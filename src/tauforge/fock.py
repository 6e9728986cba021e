"""Finite-window model of the semi-infinite wedge space.

Basis states are Maya states: a charge m plus a partition, encoding the
strictly decreasing half-integer index set {lambda_s + m - s + 1/2}.
The vacuum of charge m is (m, ()).  Wedge factors are always kept sorted
strictly decreasing, and every operator reports the permutation sign it
incurs, which is the single source of all signs here.

Half-integer indices are passed as Fraction values with denominator 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

from .mpoly import MPoly, format_rat, parse_int, parse_rat
from .schur import ChargedPoly, DomainError, Partition, schur_expand, schur_of_partition


class WindowError(ValueError):
    """State or column support does not fit inside the requested window."""


def half(numerator: int) -> Fraction:
    """The half-integer numerator/2."""
    value = Fraction(numerator, 2)
    _check_half(value)
    return value


def _check_half(j: Fraction) -> Fraction:
    j = Fraction(j)
    if j.denominator != 2:
        raise ValueError(f"expected a half-integer (odd/2), got {j}")
    return j


@dataclass(frozen=True)
class MayaState:
    charge: int
    parts: tuple[int, ...] = ()

    def __post_init__(self):
        Partition(self.parts)  # validates monotonicity/positivity

    @property
    def partition(self) -> Partition:
        return Partition(self.parts)

    def index(self, s: int) -> Fraction:
        """s-th wedge index (1-based), lambda_s + m - s + 1/2."""
        lam = self.parts[s - 1] if s <= len(self.parts) else 0
        return Fraction(2 * (lam + self.charge - s) + 1, 2)

    def prefix(self, length: int) -> list[Fraction]:
        return [self.index(s) for s in range(1, length + 1)]

    def occupied(self, p: Fraction) -> bool:
        # every index at or below the undisturbed tail is occupied
        if p <= self.index(len(self.parts) + 1):
            return True
        return any(self.index(s) == p for s in range(1, len(self.parts) + 1))

    def to_json(self) -> dict:
        return {"charge": self.charge, "partition": list(self.parts)}

    @classmethod
    def from_json(cls, data: dict) -> "MayaState":
        return cls(parse_int(data["charge"]),
                   tuple(parse_int(p) for p in data["partition"]))

    def sort_key(self):
        return (self.charge, self.parts)

    def __str__(self) -> str:
        return f"|{self.charge};{','.join(map(str, self.parts)) or '-'}>"


def _state_from_indices(indices: list[Fraction], charge: int) -> MayaState:
    """Rebuild (charge, partition) from a strictly decreasing index prefix.

    The prefix must be long enough that the remaining indices are pure
    vacuum tail of the given charge.
    """
    parts = []
    for s, idx in enumerate(indices, start=1):
        lam = idx - charge + s - Fraction(1, 2)
        if lam.denominator != 1:
            raise ValueError("indices are not aligned to the charge lattice")
        parts.append(int(lam))
    while parts and parts[-1] == 0:
        parts.pop()
    if any(p < 0 for p in parts):
        raise ValueError("index prefix too short for this charge")
    return MayaState(charge, tuple(parts))


def insert_index(state: MayaState, p: Fraction) -> tuple[int, MayaState] | None:
    """Wedge v_p in front and sort; None when p is already occupied."""
    p = _check_half(p)
    if state.occupied(p):
        return None
    above = 0
    while state.index(above + 1) > p:
        above += 1
    length = max(len(state.parts), above) + 2
    prefix = state.prefix(length)
    prefix.insert(above, p)
    sign = -1 if above % 2 else 1
    return sign, _state_from_indices(prefix, state.charge + 1)


def remove_index(state: MayaState, p: Fraction) -> tuple[int, MayaState] | None:
    """Contract index p with sign (-1)**(s+1); None when p is absent."""
    p = _check_half(p)
    if not state.occupied(p):
        return None
    s = 1
    while state.index(s) != p:
        s += 1
    length = max(len(state.parts), s) + 2
    prefix = state.prefix(length)
    prefix.pop(s - 1)
    sign = 1 if (s + 1) % 2 == 0 else -1
    return sign, _state_from_indices(prefix, state.charge - 1)


class FockVector:
    """Finite rational linear combination of Maya states."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[MayaState, Fraction] | None = None):
        clean: dict[MayaState, Fraction] = {}
        for state, coef in (terms or {}).items():
            c = Fraction(coef)
            if c:
                clean[state] = c
        self.terms = clean

    @classmethod
    def vacuum(cls, charge: int) -> "FockVector":
        return cls({MayaState(charge): Fraction(1)})

    @classmethod
    def of(cls, state: MayaState, coef=1) -> "FockVector":
        return cls({state: Fraction(coef)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __iter__(self) -> Iterator[tuple[MayaState, Fraction]]:
        return iter(sorted(self.terms.items(), key=lambda kv: kv[0].sort_key()))

    def __add__(self, other: "FockVector") -> "FockVector":
        out = dict(self.terms)
        for state, coef in other.terms.items():
            c = out.get(state, Fraction(0)) + coef
            if c:
                out[state] = c
            else:
                out.pop(state, None)
        return FockVector(out)

    def __neg__(self) -> "FockVector":
        return FockVector({s: -c for s, c in self.terms.items()})

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-other)

    def __mul__(self, scalar) -> "FockVector":
        c = Fraction(scalar)
        return FockVector({s: k * c for s, k in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "FockVector":
        return self * (1 / Fraction(scalar))

    def __eq__(self, other) -> bool:
        if isinstance(other, FockVector):
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def charges(self) -> set[int]:
        return {s.charge for s in self.terms}

    def map_states(self, op: Callable[[MayaState], tuple[int, MayaState] | None]
                   ) -> "FockVector":
        out: dict[MayaState, Fraction] = {}
        for state, coef in self.terms.items():
            hit = op(state)
            if hit is None:
                continue
            sign, new_state = hit
            c = out.get(new_state, Fraction(0)) + coef * sign
            if c:
                out[new_state] = c
            else:
                out.pop(new_state, None)
        return FockVector(out)

    def to_json(self) -> list[dict]:
        return [{"state": s.to_json(), "coef": format_rat(c)} for s, c in self]

    @classmethod
    def from_json(cls, data: Iterable[dict]) -> "FockVector":
        out: dict[MayaState, Fraction] = {}
        for item in data:
            state = MayaState.from_json(item["state"])
            out[state] = out.get(state, Fraction(0)) + parse_rat(item["coef"])
        return cls(out)

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"{format_rat(c)}*{s}" for s, c in self)


# -- fermion operators -------------------------------------------------------

def psi_plus(j: Fraction, v: FockVector) -> FockVector:
    """Wedging operator: inserts index -j, raising the charge by one."""
    j = _check_half(j)
    return v.map_states(lambda s: insert_index(s, -j))


def psi_minus(j: Fraction, v: FockVector) -> FockVector:
    """Contracting operator: removes index j, lowering the charge by one."""
    j = _check_half(j)
    return v.map_states(lambda s: remove_index(s, j))


def r_matrix_unit(i: Fraction, j: Fraction, v: FockVector) -> FockVector:
    """Action of the matrix unit E_ij: replace an occupied index j by i."""
    return psi_plus(-_check_half(i), psi_minus(j, v))


def alpha(k: int, v: FockVector) -> FockVector:
    """Mode k of the current: sum over E_{j,j+k}; k = 0 multiplies by charge."""
    if k == 0:
        return FockVector({s: c * s.charge for s, c in v.terms.items()})
    out = FockVector()
    for state, coef in v.terms.items():
        # occupied p with p-k free; beyond len(parts)+|k| both sides sit in
        # the undisturbed tail and every term cancels
        for s in range(1, len(state.parts) + abs(k) + 1):
            p = state.index(s)
            removed = remove_index(state, p)
            sign_r, mid = removed
            inserted = insert_index(mid, p - k)
            if inserted is None:
                continue
            sign_i, final = inserted
            out = out + FockVector.of(final, coef * sign_r * sign_i)
    return out


def shift_charge(power: int, v: FockVector) -> FockVector:
    """Uniform index translation by +power (the invertible charge shift)."""
    return v.map_states(lambda s: (1, MayaState(s.charge + power, s.parts)))


def wedge_vector(column: Mapping[Fraction, Fraction], v: FockVector) -> FockVector:
    """Wedge a general vector sum_p column[p] v_p in front."""
    out = FockVector()
    for p, coef in column.items():
        if coef:
            out = out + v.map_states(lambda s, p=p: insert_index(s, p)) * coef
    return out


# -- window matrices ---------------------------------------------------------

class WindowMatrix:
    """Invertible operator differing from the identity only inside a window.

    Rows and columns are half-integers strictly between -window and
    window; entries outside default to the identity.
    """

    def __init__(self, window: int, entries: Mapping[tuple[Fraction, Fraction], Fraction] | None = None):
        if window < 1:
            raise WindowError("window bound must be a positive integer")
        self.window = window
        self.entries: dict[tuple[Fraction, Fraction], Fraction] = {}
        for (i, j), value in (entries or {}).items():
            i = _check_half(i)
            j = _check_half(j)
            if not (-window < i < window and -window < j < window):
                raise WindowError(f"entry ({i},{j}) outside window {window}")
            value = Fraction(value)
            self.entries[(i, j)] = value

    def row_indices(self) -> list[Fraction]:
        return [Fraction(2 * r + 1, 2) for r in range(-self.window, self.window)]

    def entry(self, i: Fraction, j: Fraction) -> Fraction:
        default = Fraction(1) if i == j else Fraction(0)
        return self.entries.get((i, j), default)

    def column(self, j: Fraction) -> dict[Fraction, Fraction]:
        j = _check_half(j)
        if not (-self.window < j < self.window):
            return {j: Fraction(1)}
        col = {i: self.entry(i, j) for i in self.row_indices()}
        return {i: c for i, c in col.items() if c}


def apply_window_matrix(matrix: WindowMatrix, charge: int,
                        target_window: int | None = None) -> FockVector:
    """Expand the perfect wedge of the first `charge` columns over the vacuum.

    Coefficients of the result are the maximal minors (Plucker
    coordinates) of the column matrix.
    """
    N = matrix.window
    target = N if target_window is None else target_window
    if charge > N or charge < -N:
        raise WindowError(f"charge {charge} outside window {N}")
    for (i, j), value in matrix.entries.items():
        delta = Fraction(1) if i == j else Fraction(0)
        if value != delta and not (-target < i < target):
            raise WindowError(f"modified column {j} has support at {i} "
                              f"outside target window {target}")
    v = FockVector.vacuum(-N)
    j = Fraction(-2 * N + 1, 2)
    top = Fraction(2 * charge - 1, 2)
    while j <= top:
        v = wedge_vector(matrix.column(j), v)
        j += 1
    if v.is_zero:
        # columns below the charge line are dependent over the tail, so the
        # operator cannot be completed to an invertible one on this block
        raise WindowError("columns are dependent; matrix not invertible on its window")
    return v


# -- the boson-fermion dictionary ---------------------------------------------

def sigma_map(v: FockVector, D: int) -> list[ChargedPoly]:
    """Per charge, the polynomial sum of coefficients times S_lambda."""
    needed = max((sum(s.parts) for s in v.terms), default=0)
    if D < max(needed, 1):
        raise DomainError(f"need D >= {needed} for this vector, got {D}")
    by_charge: dict[int, MPoly] = {}
    for state, coef in v.terms.items():
        poly = schur_of_partition(state.partition, D) * coef
        prev = by_charge.get(state.charge)
        by_charge[state.charge] = poly if prev is None else prev + poly
    return [ChargedPoly(by_charge[m], m) for m in sorted(by_charge)
            if not by_charge[m].is_zero]


def sigma_single(v: FockVector, D: int) -> ChargedPoly:
    """sigma_map for a vector supported on one charge."""
    images = sigma_map(v, D)
    if len(images) != 1:
        raise ValueError(f"vector is supported on charges {sorted(v.charges())}, "
                         "expected exactly one")
    return images[0]


def poly_to_fock(cp: ChargedPoly) -> FockVector:
    """Inverse dictionary: expand the polynomial over S_lambda."""
    out: dict[MayaState, Fraction] = {}
    for shape, coef in schur_expand(cp.poly).items():
        out[MayaState(cp.charge, shape.parts)] = coef
    return FockVector(out)


# -- bilinear pairing ----------------------------------------------------------

PairTensor = dict[tuple[MayaState, MayaState], Fraction]


def tensor_of(u: FockVector, v: FockVector) -> PairTensor:
    """The decomposable tensor u (x) v in the Maya basis."""
    out: PairTensor = {}
    for su, cu in u.terms.items():
        for sv, cv in v.terms.items():
            c = out.get((su, sv), Fraction(0)) + cu * cv
            if c:
                out[(su, sv)] = c
            else:
                out.pop((su, sv), None)
    return out


def tensor_sum(parts: Iterable[PairTensor]) -> PairTensor:
    out: PairTensor = {}
    for tensor in parts:
        for key, coef in tensor.items():
            c = out.get(key, Fraction(0)) + coef
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def fermionic_pairing(u: FockVector, v: FockVector,
                      window: int | None = None) -> PairTensor:
    """The canonical pairing sum_i (wedge_i u) (x) (contract_{-i} v).

    The sum over half-integers i is finite on window states: the index
    must be occupied in v and free in u, which pins it above the filled
    tail of u.  The result is canonicalized in the Maya (x) Maya basis
    so equality against any target tensor is coefficient comparison.
    """
    if window is not None:
        for vec in (u, v):
            for state in vec.terms:
                top = state.parts[0] + state.charge if state.parts else state.charge
                bottom = len(state.parts) - state.charge
                if top > window or bottom > window:
                    raise WindowError(f"state {state} outside window {window}")
    out: PairTensor = {}
    for su, cu in u.terms.items():
        floor_u = su.index(len(su.parts) + 1)  # everything at or below is occupied
        for sv, cv in v.terms.items():
            s = 1
            while True:
                p = sv.index(s)
                if p < floor_u:
                    break
                s += 1
                if su.occupied(p):
                    continue
                sign_r, right = remove_index(sv, p)
                sign_i, left = insert_index(su, p)
                key = (left, right)
                c = out.get(key, Fraction(0)) + cu * cv * sign_i * sign_r
                if c:
                    out[key] = c
                else:
                    out.pop(key, None)
    return out
