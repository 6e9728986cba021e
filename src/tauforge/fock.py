"""Finite-window model of the semi-infinite wedge space.

Basis states are Maya states: a charge m plus a partition, encoding the
strictly decreasing half-integer index set {lambda_s + m - s + 1/2}.
The vacuum of charge m is (m, ()).  Wedge factors are always kept sorted
strictly decreasing, and every operator reports the permutation sign it
incurs, which is the single source of all signs here.

Inside this module an index p is held as its integer code p - 1/2, so
position s of the state (m, lambda) has code lambda_s + m - s and every
state operation is integer arithmetic on partitions.  Half-integer
Fraction values (denominator 2) appear only at the public boundary: the
fermion operators, wedge_vector and WindowMatrix take or return them,
and each is checked once on entry.

The bilinear pairing sums on integers: ``pairing_defect`` puts every
vector over one common denominator and keys its sums by plain (charge,
parts, charge, parts) tuples, so no MayaState is hashed and no Fraction
is added on the way; ``fermionic_pairing`` is its case with no pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice
from typing import Callable, Iterable, Iterator, Mapping

from .mpoly import MPoly, format_rat, parse_int, parse_rat
from .schur import ChargedPoly, Partition, schur_expand, schur_of_partition


class WindowError(ValueError):
    """State or column support does not fit inside the requested window."""


def _check_half(j: Fraction) -> Fraction:
    if type(j) is not Fraction:
        j = Fraction(j)
    if j.denominator != 2:
        raise ValueError(f"expected a half-integer (odd/2), got {j}")
    return j


def _code(p: Fraction) -> int:
    """The integer code p - 1/2 of a half-integer index."""
    return (_check_half(p).numerator - 1) // 2


@dataclass(frozen=True)
class MayaState:
    charge: int
    parts: tuple[int, ...] = ()

    @property
    def partition(self) -> Partition:
        """Not checked again: from_json checks the parts, and every state
        the library builds (wedge, contraction, pivots) is a partition."""
        return Partition.trusted(self.parts)

    def to_json(self) -> dict:
        return {"charge": self.charge, "partition": list(self.parts)}

    @classmethod
    def from_json(cls, data: dict) -> "MayaState":
        """The one entry from outside, so the one place parts are checked."""
        parts = Partition(tuple(parse_int(p) for p in data["partition"])).parts
        return cls(parse_int(data["charge"]), parts)

    def sort_key(self):
        return (self.charge, self.parts)

    def __str__(self) -> str:
        return f"|{self.charge};{','.join(map(str, self.parts)) or '-'}>"


def _codes(state: MayaState) -> list[int]:
    """Codes of positions 1..len(parts)+1; the last tops the filled tail."""
    m = state.charge
    return [lam + m - s for s, lam in enumerate(state.parts + (0,), start=1)]


def _descending_codes(state: MayaState) -> Iterator[int]:
    """The codes of positions 1, 2, ... without end, tail included."""
    codes = _codes(state)
    return chain(codes[:-1], count(codes[-1], -1))


def _position(state: MayaState, c: int) -> int | None:
    """The position holding code c, or None when c is free."""
    codes = _codes(state)
    if c <= codes[-1]:
        return state.charge - c  # in the filled tail, code m - s
    return codes.index(c) + 1 if c in codes else None


def _wedged(codes: list[int], m: int, parts: tuple[int, ...],
            c: int) -> tuple[int, tuple[int, ...]] | None:
    """The sign and parts of code c wedged in front of the state (m,
    parts) whose ``_codes`` are given; None when c is occupied.

    Below a occupied codes the result has charge m + 1, parts
    (lambda_1 - 1, .., lambda_a - 1, c - m + a, lambda_{a+1}, ..) and
    sign (-1)**a.
    """
    if c <= codes[-1]:
        return None
    a = 0
    while codes[a] > c:  # codes decrease, so a counts those above c
        a += 1
    if codes[a] == c:
        return None
    new = tuple(lam - 1 for lam in parts[:a]) + (c - m + a,) + parts[a:]
    # parts stay weakly decreasing, so any zeros form the end
    return (-1 if a % 2 else 1), tuple(lam for lam in new if lam)


def _wedge(state: MayaState, c: int) -> tuple[int, MayaState] | None:
    """Wedge code c in front and sort; None when c is occupied."""
    hit = _wedged(_codes(state), state.charge, state.parts, c)
    return None if hit is None else (hit[0], MayaState(state.charge + 1, hit[1]))


def _contracted(parts: tuple[int, ...], s: int) -> tuple[int, tuple[int, ...]]:
    """The sign (-1)**(s+1) and parts of the state with the code at
    position s contracted, charge m - 1: (lambda_1 + 1, ..,
    lambda_{s-1} + 1, lambda_{s+1}, ..), padded with 1s when s lies in
    the tail."""
    new = (tuple(lam + 1 for lam in parts[:s - 1]) + (1,) * (s - 1 - len(parts))
           + parts[s:])
    return (1 if s % 2 else -1), new


def _contract(state: MayaState, s: int) -> tuple[int, MayaState]:
    """Contract the code at position s."""
    sign, parts = _contracted(state.parts, s)
    return sign, MayaState(state.charge - 1, parts)


def _remove(state: MayaState, c: int) -> tuple[int, MayaState] | None:
    """Contract code c; None when c is free."""
    s = _position(state, c)
    return None if s is None else _contract(state, s)


def _add_to(out: dict, key, value) -> None:
    """out[key] += value, dropping the key when the sum is zero."""
    c = out.get(key, 0) + value
    if c:
        out[key] = c
    else:
        out.pop(key, None)


class FockVector:
    """Finite rational linear combination of Maya states."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[MayaState, Fraction] | None = None):
        clean: dict[MayaState, Fraction] = {}
        for state, coef in (terms or {}).items():
            c = coef if type(coef) is Fraction else Fraction(coef)
            if c:
                clean[state] = c
        self.terms = clean

    @classmethod
    def vacuum(cls, charge: int) -> "FockVector":
        return cls({MayaState(charge): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __iter__(self) -> Iterator[tuple[MayaState, Fraction]]:
        return iter(sorted(self.terms.items(), key=lambda kv: kv[0].sort_key()))

    def __add__(self, other: "FockVector") -> "FockVector":
        out = dict(self.terms)
        for state, coef in other.terms.items():
            _add_to(out, state, coef)
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
            if hit is not None:
                _add_to(out, hit[1], coef * hit[0])
        return FockVector(out)

    def to_json(self) -> list[dict]:
        return [{"state": s.to_json(), "coef": format_rat(c)} for s, c in self]

    @classmethod
    def from_json(cls, data: Iterable[dict]) -> "FockVector":
        out: dict[MayaState, Fraction] = {}
        for item in data:
            _add_to(out, MayaState.from_json(item["state"]), parse_rat(item["coef"]))
        return cls(out)

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"{format_rat(c)}*{s}" for s, c in self)


# -- fermion operators -------------------------------------------------------

def psi_plus(j: Fraction, v: FockVector) -> FockVector:
    """Wedging operator: inserts index -j, raising the charge by one."""
    c = -1 - _code(j)  # the code of index -j
    return v.map_states(lambda s: _wedge(s, c))


def psi_minus(j: Fraction, v: FockVector) -> FockVector:
    """Contracting operator: removes index j, lowering the charge by one."""
    c = _code(j)
    return v.map_states(lambda s: _remove(s, c))


def r_matrix_unit(i: Fraction, j: Fraction, v: FockVector) -> FockVector:
    """Action of the matrix unit E_ij: replace an occupied index j by i."""
    return psi_plus(-_check_half(i), psi_minus(j, v))


def alpha(k: int, v: FockVector) -> FockVector:
    """Mode k of the current: sum over E_{j,j+k}; k = 0 multiplies by charge."""
    if k == 0:
        return FockVector({s: c * s.charge for s, c in v.terms.items()})
    out: dict[MayaState, Fraction] = {}
    for state, coef in v.terms.items():
        # occupied code c with c - k free; beyond len(parts)+|k| both sides
        # sit in the undisturbed tail and every term cancels
        positions = islice(_descending_codes(state), len(state.parts) + abs(k))
        for s, c in enumerate(positions, start=1):
            sign_r, mid = _contract(state, s)
            inserted = _wedge(mid, c - k)
            if inserted is not None:
                _add_to(out, inserted[1], coef * sign_r * inserted[0])
    return FockVector(out)


def shift_charge(power: int, v: FockVector) -> FockVector:
    """Uniform index translation by +power (the invertible charge shift)."""
    return v.map_states(lambda s: (1, MayaState(s.charge + power, s.parts)))


def _over_one_den(v: FockVector) -> tuple[list[tuple[MayaState, int]], int]:
    """The terms of v as integer numerators over one common denominator."""
    den = math.lcm(*(c.denominator for c in v.terms.values()))
    return [(s, c.numerator * (den // c.denominator)) for s, c in v.terms.items()], den


def wedge_vector(column: Mapping[Fraction, Fraction], v: FockVector) -> FockVector:
    """Wedge a general vector sum_p column[p] v_p in front.

    The column and v each go over one common denominator, so products and
    sums are on integers and each result term is one Fraction.
    """
    col = {_code(p): Fraction(coef) for p, coef in column.items() if coef}
    den_col = math.lcm(*(a.denominator for a in col.values()))
    vec, den_v = _over_one_den(v)
    out: dict[MayaState, int] = {}
    for c, a in col.items():
        a = a.numerator * (den_col // a.denominator)
        for state, b in vec:
            hit = _wedge(state, c)
            if hit is not None:
                out[hit[1]] = out.get(hit[1], 0) + hit[0] * a * b
    den = den_col * den_v
    return FockVector({s: Fraction(n, den) for s, n in out.items() if n})


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
    """Per charge, the sum of coefficients times S_lambda (DomainError below a hook)."""
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
    for shape, coef in schur_expand(cp.poly, cp.weight).items():
        out[MayaState(cp.charge, shape.parts)] = coef
    return FockVector(out)


# -- bilinear pairing ----------------------------------------------------------

PairTensor = dict[tuple[MayaState, MayaState], Fraction]
PairKey = tuple[int, tuple[int, ...], int, tuple[int, ...]]


def pairing_defect(u: FockVector, v: FockVector,
                   pairs: Iterable[tuple[FockVector, FockVector]]
                   ) -> tuple[dict[PairKey, int], int]:
    """The canonical pairing sum_i (wedge_i u) (x) (contract_{-i} v)
    minus sum a (x) b over the pairs, on integers.

    Returns the nonzero numerators over one common denominator, keyed
    (charge, parts, charge, parts) in the Maya (x) Maya basis, and that
    denominator: the dict is empty exactly when the pairing equals the
    sum.  Every vector goes over its own common denominator, and each
    product of two over the lcm of those products.

    The sum over half-integers i is finite on window states: the index
    must be occupied in v and free in u, which pins it above the filled
    tail of u.  So each v state's contractions are listed once, down to
    the lowest filled-tail top among the u states, and each u state's
    wedges are made once per code.
    """
    nu, du = _over_one_den(u)
    nv, dv = _over_one_den(v)
    targets = [(_over_one_den(a), _over_one_den(b)) for a, b in pairs]
    den = math.lcm(du * dv, *(da * db for (_, da), (_, db) in targets))
    sums: dict[PairKey, int] = {}
    get = sums.get
    floor = min((_codes(su)[-1] for su, _ in nu), default=0)
    scale = den // (du * dv)
    contractions = []  # per v state: its numerator, then (code, sign, key)
    for sv, cv in nv:
        row = []
        for s, c in enumerate(_descending_codes(sv), start=1):
            if c < floor:
                break
            sign, right = _contracted(sv.parts, s)
            row.append((c, sign, (sv.charge - 1, right)))
        contractions.append((cv * scale, row))
    codes = {c for _, row in contractions for c, _, _ in row}
    for su, cu in nu:
        m, parts = su.charge, su.parts
        codes_u = _codes(su)
        top = codes_u[-1]  # codes at or below it are filled
        wedges = {}
        for c in codes:
            hit = _wedged(codes_u, m, parts, c)
            if hit is not None:
                wedges[c] = (hit[0], (m + 1, hit[1]))
        for cv, row in contractions:
            coef = cu * cv
            for c, sign_r, right in row:
                if c <= top:
                    break
                hit = wedges.get(c)
                if hit is not None:
                    key = hit[1] + right
                    sums[key] = get(key, 0) + (coef if hit[0] == sign_r else -coef)
    for (na, da), (nb, db) in targets:
        scale = den // (da * db)
        right = [((sb.charge, sb.parts), cb) for sb, cb in nb]
        for sa, ca in na:
            left, ca = (sa.charge, sa.parts), ca * scale
            for key_b, cb in right:
                key = left + key_b
                sums[key] = get(key, 0) - ca * cb
    return {key: n for key, n in sums.items() if n}, den


def fermionic_pairing(u: FockVector, v: FockVector) -> PairTensor:
    """The canonical pairing sum_i (wedge_i u) (x) (contract_{-i} v), in
    the Maya (x) Maya basis: the case of ``pairing_defect`` with no pairs."""
    sums, den = pairing_defect(u, v, ())
    return {(MayaState(m, lam), MayaState(n, mu)): Fraction(c, den)
            for (m, lam, n, mu), c in sums.items()}
