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

A FockVector is stored as MPoly is: ``num`` maps plain (charge, parts)
keys to nonzero ints and ``den`` is a positive int with
gcd(den, *num.values()) == 1, so equal vectors have equal ``num`` and
``den`` and zero is {} over 1.  Every operator works on that form, so no
MayaState is hashed and no Fraction is built on the way; ``terms`` reads
the coefficients back as a MayaState -> Fraction dict.
``FockVector._canonical`` is the one constructor from integer
numerators.  ``wedge_ints`` is the one wedge kernel: ``wedge_columns``
wedges a list of integer columns, each over its denominator, in front of
a vector with it, for the Grassmannian wedges, whose rows are integer
already, and for ``wedge_vector`` and ``apply_window_matrix``, which put
their Fraction columns over one denominator first.
``pairing_defect`` keys its sums by (charge, parts, charge, parts)
tuples; ``fermionic_pairing`` is its case with no pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice
from typing import Iterable, Iterator, Mapping

from .mpoly import MPoly, format_rat, lincomb, parse_int, parse_rat
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


# a Maya state as a plain key, the key of FockVector.num
State = tuple[int, tuple[int, ...]]


def _codes(m: int, parts: tuple[int, ...]) -> list[int]:
    """Codes of positions 1..len(parts)+1 of the state (m, parts); the last
    tops the filled tail."""
    return [lam + m - s for s, lam in enumerate(parts + (0,), start=1)]


def _descending_codes(m: int, parts: tuple[int, ...]) -> Iterator[int]:
    """The codes of positions 1, 2, ... without end, tail included."""
    codes = _codes(m, parts)
    return chain(codes[:-1], count(codes[-1], -1))


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


def _contracted(parts: tuple[int, ...], s: int) -> tuple[int, tuple[int, ...]]:
    """The sign (-1)**(s+1) and parts of the state with the code at
    position s contracted, charge m - 1: (lambda_1 + 1, ..,
    lambda_{s-1} + 1, lambda_{s+1}, ..), padded with 1s when s lies in
    the tail."""
    new = (tuple(lam + 1 for lam in parts[:s - 1]) + (1,) * (s - 1 - len(parts))
           + parts[s:])
    return (1 if s % 2 else -1), new


def _over_one_den(items: Iterable[tuple]) -> tuple[dict, int]:
    """(key, rational) items as a dict of int numerators over their least
    common denominator; over the lcm some numerator is prime to each prime
    power of it, so nonzero items come out in canonical form."""
    items = list(items)
    den = math.lcm(*(c.denominator for _, c in items))
    return {key: c.numerator * (den // c.denominator) for key, c in items}, den


def wedge_ints(column: Mapping[int, int], vec: Mapping[State, int]) -> dict[State, int]:
    """The one wedge kernel: sum_c column[c] e_c wedged in front of vec.

    The column maps codes to int numerators and vec maps (charge, parts)
    keys to int numerators; the result's numerators are over the product
    of their two denominators, with the zeros dropped.
    """
    out: dict[State, int] = {}
    get = out.get
    for (m, parts), b in vec.items():
        codes = _codes(m, parts)
        for c, a in column.items():
            hit = _wedged(codes, m, parts, c)
            if hit is not None:
                key = (m + 1, hit[1])
                out[key] = get(key, 0) + (a * b if hit[0] > 0 else -a * b)
    return {key: n for key, n in out.items() if n}


class FockVector:
    """Finite rational linear combination of Maya states: integer
    numerators keyed (charge, parts) over one positive denominator, in
    canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, terms: Mapping[MayaState, Fraction] | None = None):
        """The vector with the given rational coefficients; zeros are dropped."""
        coefs = ((s, c if type(c) is Fraction else Fraction(c))
                 for s, c in (terms or {}).items())
        self.num, self.den = _over_one_den(((s.charge, s.parts), c) for s, c in coefs if c)

    @classmethod
    def _canonical(cls, num: dict[State, int], den: int) -> "FockVector":
        """The vector sum num[(m, parts)]/den |m; parts>, for nonzero
        numerators and a nonzero den of either sign, reduced to canonical
        form: the one constructor from integer numerators."""
        g = math.gcd(den, *num.values())
        if den < 0:
            g = -g
        self = object.__new__(cls)
        if g == 1:
            self.num, self.den = num, den
        else:
            self.num, self.den = {key: n // g for key, n in num.items()}, den // g
        return self

    @property
    def terms(self) -> dict[MayaState, Fraction]:
        """The coefficients as a MayaState -> Fraction dict, built on each read."""
        den = self.den
        return {MayaState(m, parts): Fraction(n, den) for (m, parts), n in self.num.items()}

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __iter__(self) -> Iterator[tuple[MayaState, Fraction]]:
        return iter(sorted(self.terms.items(), key=lambda kv: kv[0].sort_key()))

    def __add__(self, other: "FockVector") -> "FockVector":
        g = math.gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        out = {key: n * fa for key, n in self.num.items()}
        get = out.get
        for key, n in other.num.items():
            out[key] = get(key, 0) + n * fb
        return FockVector._canonical({key: n for key, n in out.items() if n},
                                     self.den * fa)

    def __neg__(self) -> "FockVector":
        return self * -1

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-other)

    def __mul__(self, scalar) -> "FockVector":
        c = Fraction(scalar)
        if not c:
            return FockVector()
        return FockVector._canonical({key: n * c.numerator for key, n in self.num.items()},
                                     self.den * c.denominator)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, FockVector):
            return self.den == other.den and self.num == other.num
        return NotImplemented

    __hash__ = None

    def charges(self) -> set[int]:
        return {m for m, _ in self.num}

    def to_json(self) -> list[dict]:
        return [{"state": s.to_json(), "coef": format_rat(c)} for s, c in self]

    @classmethod
    def from_json(cls, data: Iterable[dict]) -> "FockVector":
        out: dict[MayaState, Fraction] = {}
        for item in data:
            state = MayaState.from_json(item["state"])
            out[state] = out.get(state, 0) + parse_rat(item["coef"])
        return cls(out)

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"{format_rat(c)}*{s}" for s, c in self)


# -- fermion operators -------------------------------------------------------

def psi_plus(j: Fraction, v: FockVector) -> FockVector:
    """Wedging operator: inserts index -j, raising the charge by one."""
    return wedge_vector({-_check_half(j): 1}, v)


def psi_minus(j: Fraction, v: FockVector) -> FockVector:
    """Contracting operator: removes index j, lowering the charge by one.

    Distinct states lose code c to distinct states, so no terms meet."""
    c = _code(j)
    out: dict[State, int] = {}
    for (m, parts), n in v.num.items():
        codes = _codes(m, parts)
        if c <= codes[-1]:
            s = m - c  # in the filled tail, code m - s
        elif c in codes:
            s = codes.index(c) + 1
        else:
            continue
        sign, new = _contracted(parts, s)
        out[m - 1, new] = n if sign > 0 else -n
    return FockVector._canonical(out, v.den)


def r_matrix_unit(i: Fraction, j: Fraction, v: FockVector) -> FockVector:
    """Action of the matrix unit E_ij: replace an occupied index j by i."""
    return psi_plus(-_check_half(i), psi_minus(j, v))


def alpha(k: int, v: FockVector) -> FockVector:
    """Mode k of the current: sum over E_{j,j+k}; k = 0 multiplies by charge."""
    if k == 0:
        return FockVector._canonical({key: n * key[0] for key, n in v.num.items()
                                      if key[0]}, v.den)
    out: dict[State, int] = {}
    get = out.get
    for (m, parts), n in v.num.items():
        # occupied code c with c - k free; beyond len(parts)+|k| both sides
        # sit in the undisturbed tail and every term cancels
        positions = islice(_descending_codes(m, parts), len(parts) + abs(k))
        for s, c in enumerate(positions, start=1):
            sign_r, mid = _contracted(parts, s)
            hit = _wedged(_codes(m - 1, mid), m - 1, mid, c - k)
            if hit is not None:
                key = (m, hit[1])
                out[key] = get(key, 0) + (n if hit[0] == sign_r else -n)
    return FockVector._canonical({key: n for key, n in out.items() if n}, v.den)


def shift_charge(power: int, v: FockVector) -> FockVector:
    """Uniform index translation by +power (the invertible charge shift)."""
    return FockVector._canonical({(m + power, parts): n
                                  for (m, parts), n in v.num.items()}, v.den)


def wedge_columns(columns: Iterable[tuple[Mapping[int, int], int]], v: FockVector
                  ) -> FockVector:
    """Wedge each column in front of v in turn.  A column is a map from
    codes to int numerators over a positive denominator; ``wedge_ints``
    sums on integers over the product of the denominators, reduced once
    at the end."""
    num, den = v.num, v.den
    for col, d in columns:
        num, den = wedge_ints(col, num), den * d
    return FockVector._canonical(num, den)


def wedge_vector(column: Mapping[Fraction, Fraction], v: FockVector) -> FockVector:
    """Wedge a general vector sum_p column[p] v_p in front."""
    return wedge_columns([_over_one_den((_code(p), Fraction(coef))
                                        for p, coef in column.items() if coef)], v)


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
    # columns j = -N + 1/2 .. charge - 1/2, each wedged in front of H_-N
    columns = (_over_one_den((_code(i), c) for i, c in matrix.column(j).items())
               for j in (Fraction(2 * r + 1, 2) for r in range(-N, charge)))
    v = wedge_columns(columns, FockVector({MayaState(-N): 1}))
    if v.is_zero:
        # columns below the charge line are dependent over the tail, so the
        # operator cannot be completed to an invertible one on this block
        raise WindowError("columns are dependent; matrix not invertible on its window")
    return v


# -- the boson-fermion dictionary ---------------------------------------------

def sigma_map(v: FockVector, D: int) -> list[ChargedPoly]:
    """Per charge, the sum of coefficients times S_lambda (DomainError below a hook).

    Sato's formula on the integer numerators: each charge's image is one
    lincomb of its (S_lambda, numerator) pairs, divided by the vector's
    denominator once.  The S_lambda whose hook fits in D are polynomials
    in the algebraically independent S_1..S_D, so they are linearly
    independent: every charge of a vector has a nonzero image.
    """
    by_charge: dict[int, list[tuple[MPoly, int]]] = {}
    for (m, parts), n in v.num.items():
        by_charge.setdefault(m, []).append(
            (schur_of_partition(Partition.trusted(parts), D), n))
    return [ChargedPoly(lincomb(D, by_charge[m]) / v.den, m) for m in sorted(by_charge)]


def sigma_single(v: FockVector, D: int) -> ChargedPoly:
    """sigma_map for a vector supported on one charge."""
    images = sigma_map(v, D)
    if len(images) != 1:
        raise ValueError(f"vector is supported on charges {sorted(v.charges())}, "
                         "expected exactly one")
    return images[0]


def poly_to_fock(cp: ChargedPoly) -> FockVector:
    """Inverse dictionary: expand the polynomial over S_lambda."""
    return FockVector._canonical(*_over_one_den(
        ((cp.charge, shape.parts), c) for shape, c in schur_expand(cp.poly, cp.weight).items()))


# -- bilinear pairing ----------------------------------------------------------

PairTensor = dict[tuple[MayaState, MayaState], Fraction]
PairKey = tuple[int, tuple[int, ...], int, tuple[int, ...]]


def pairing_defect(u: FockVector, v: FockVector,
                   pairs: Iterable[tuple[FockVector, FockVector]]
                   ) -> tuple[dict[PairKey, int], int]:
    """The canonical pairing sum_i (wedge_i u) (x) (contract_{-i} v)
    minus sum a (x) b over the pairs, on integers.

    Every vector's numerators and denominator are read as stored.
    Returns the nonzero numerators over one common denominator,
    keyed (charge, parts, charge, parts) in the Maya (x) Maya basis, and
    that denominator: the dict is empty exactly when the pairing equals
    the sum.  Each product of two vectors goes over the lcm of the
    products of their denominators.

    The sum over half-integers i is finite on window states: the index
    must be occupied in v and free in u, which pins it above the filled
    tail of u.  So each v state's contractions are listed once, down to
    the lowest filled-tail top among the u states, and each u state's
    wedges are made once per code.
    """
    nu, du = u.num, u.den
    nv, dv = v.num, v.den
    targets = [(a.num, a.den, b.num, b.den) for a, b in pairs]
    den = math.lcm(du * dv, *(da * db for _, da, _, db in targets))
    sums: dict[PairKey, int] = {}
    get = sums.get
    floor = min((_codes(m, parts)[-1] for m, parts in nu), default=0)
    scale = den // (du * dv)
    contractions = []  # per v state: its numerator, then (code, sign, key)
    for (n, mu), cv in nv.items():
        row = []
        for s, c in enumerate(_descending_codes(n, mu), start=1):
            if c < floor:
                break
            sign, right = _contracted(mu, s)
            row.append((c, sign, (n - 1, right)))
        contractions.append((cv * scale, row))
    codes = {c for _, row in contractions for c, _, _ in row}
    for (m, parts), cu in nu.items():
        codes_u = _codes(m, parts)
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
    for na, da, nb, db in targets:
        scale = den // (da * db)
        for left, ca in na.items():
            ca *= scale
            for right, cb in nb.items():
                key = left + right
                sums[key] = get(key, 0) - ca * cb
    return {key: n for key, n in sums.items() if n}, den


def fermionic_pairing(u: FockVector, v: FockVector) -> PairTensor:
    """The canonical pairing sum_i (wedge_i u) (x) (contract_{-i} v), in
    the Maya (x) Maya basis: the case of ``pairing_defect`` with no pairs."""
    sums, den = pairing_defect(u, v, ())
    return {(MayaState(m, lam), MayaState(n, mu)): Fraction(c, den)
            for (m, lam, n, mu), c in sums.items()}
