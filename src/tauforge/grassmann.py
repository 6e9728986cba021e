"""Points of the polynomial Grassmannian and their tau-function data.

A point is a tail level T (the full cone spanned by s**-T, s**-T+1, ...)
plus finitely many extra Laurent vectors in the loop variable s (apart
from the times t_i), held in reduced echelon form: pivots are lowest
exponents, strictly increasing, monic, and supported strictly below the
tail.  ``mpoly.Echelon`` reduces them as one-variable polynomials,
s**e -> x**(-T - 1 - e), whose lead is the pivot.

The fermion dictionary identifies s**e with the wedge index -e - 1/2, so
multiplication by s**k is the k-fold index lowering on wedge factors.
The wedges are summed on integers by ``fock.wedge_columns``: s**e is the
code -e - 1, and each finished wedge is a FockVector, which the
companions and the d/dt_k summands scale by their pivot minor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .mpoly import Echelon, MPoly, format_rat, lincomb, parse_int, parse_rat
from .schur import ChargedPoly
from .fock import (FockVector, MayaState, State, WindowMatrix, sigma_single,
                   wedge_columns)

LaurentVector = dict[int, Fraction]


class GrassmannError(ValueError):
    pass


class PivotError(ArithmeticError):
    """An invariant of the echelon bookkeeping failed.

    An internal fault like ExactnessError, not a property of the input,
    since no reduced point reaches one: each kernel vector of the stable
    split lies in the span of the point's rows, so its pivot is one of
    theirs; an echelon wedge's pivot minor is triangular with the pivot
    coefficients on its diagonal, so it is nonzero; a complement factor
    w_j has s**k w_j outside the point, since otherwise its pivot would be
    a kernel pivot, so rho_j is nonzero; and the shifted factors stay
    independent, so sigma_j is nonzero.
    """


def index_to_exp(i: Fraction) -> int:
    e = -i - Fraction(1, 2)
    if e.denominator != 1:
        raise GrassmannError(f"index {i} is not a half-integer")
    return int(e)


def vec_mul_sk(vec: LaurentVector, k: int) -> LaurentVector:
    return {e + k: c for e, c in vec.items()}


def _loop_poly(vec: Iterable[tuple[int, Fraction]], tail: int) -> MPoly:
    """The nonzero part of vec strictly below the tail (the rest is in
    H_tail) as a polynomial in one variable, s**e -> x**(-tail - 1 - e)."""
    top = -tail - 1
    return MPoly.from_powers((top - e, c) for e, c in vec if c and e <= top)


@dataclass(frozen=True)
class GrPoint:
    """Reduced representative: tail level plus echelon extra basis."""

    tail: int
    basis: tuple[tuple[tuple[int, Fraction], ...], ...] = ()

    def vectors(self) -> list[LaurentVector]:
        return [dict(v) for v in self.basis]

    @property
    def charge(self) -> int:
        return self.tail + len(self.basis)

    def pivots(self) -> list[int]:
        return [min(dict(v)) for v in self.basis]

    @property
    def weight(self) -> int:
        """Weighted degree of the point's tau: the weight of its pivot partition."""
        return sum(_pivot_state(self.pivots(), self.tail)[1])

    def to_json(self) -> dict:
        rows = []
        for vec in self.vectors():
            lo, hi = min(vec), max(vec)
            rows.append({"minExp": lo,
                         "coefs": [format_rat(vec.get(e, Fraction(0)))
                                   for e in range(lo, hi + 1)]})
        return {"tail": self.tail, "basis": rows}

    def __str__(self) -> str:
        def fmt(vec):
            return " + ".join(f"{format_rat(c)}*s^{e}" for e, c in sorted(vec.items()))
        body = ", ".join(fmt(v) for v in self.vectors()) or "-"
        return f"GrPoint(tail H_{self.tail}; {body})"


def point_rows(data: dict) -> tuple[list[LaurentVector], int]:
    """The raw vectors and the tail of a point payload, before any elimination."""
    vectors = []
    for row in data.get("basis", []):
        lo = parse_int(row["minExp"])
        if not isinstance(row["coefs"], list):
            raise ValueError("the coefs of a basis row must be a list")
        vectors.append({lo + i: parse_rat(c) for i, c in enumerate(row["coefs"])})
    return vectors, parse_int(data["tail"])


def reduce_point(vectors: Iterable[Mapping[int, Fraction]], tail: int) -> GrPoint:
    """Canonical echelon representative of span(vectors) + H_tail; an int
    coefficient from a caller comes back a Fraction."""
    rows = Echelon()
    for vec in vectors:
        rows.insert(_loop_poly(vec.items(), tail))
    return _point(rows, tail)


def _point(rows: Echelon, tail: int) -> GrPoint:
    """The point of the rows' span over H_tail, pivots ascending."""
    return GrPoint(tail, tuple(tuple(sorted((-tail - 1 - d, c) for d, c in row.powers()))
                               for row in reversed(rows.reduced())))


# -- the stability filtration ---------------------------------------------------

def _stable_split(point: GrPoint, k: int
                  ) -> tuple[list[LaurentVector], int, GrPoint]:
    """Kernel/complement split of multiplication by s**k modulo the point.

    Returns (factors, codimension n, kernel point): the n complement
    vectors, then the kernel point's basis.  Each s**k v_i, cut at the
    tail, is reduced against the point's rows and the earlier shifted
    rows; its carry is v_i less the multiples taken of the shifted rows'
    carries, so a shift that reduces to zero leaves a carry whose s**k
    multiple lies in the point.  The reduced kernel keeps all pivots
    across both groups distinct, which the wedge constructions rely on.
    """
    if k < 1:
        raise GrassmannError("the constraint power k must be positive")
    tail = point.tail
    rows = Echelon()
    polys = [_loop_poly(v, tail) for v in point.basis]
    for p in polys:
        rows.insert(p)
    carries: dict[int, MPoly] = {}  # lead of a shifted row -> its carry
    kernel = Echelon()
    for v, p in zip(point.basis, polys):
        # s**k v below H_tail has the keys of v below H_(tail + k)
        rest, out = rows.insert(_loop_poly(v, tail + k))
        read = [(carries[lead], -c) for lead, c in out.items() if lead in carries]
        carry = lincomb(1, [(p, 1), *read]) if read else p
        if rest.num:
            carries[max(rest.num)] = carry
        else:
            kernel.insert(carry)
    kernel_point = _point(kernel, tail)
    kernel_pivots = set(kernel_point.pivots())
    complement = [v for v in point.vectors() if min(v) not in kernel_pivots]
    n = len(point.basis) - len(kernel_point.basis)
    if len(complement) != n:
        raise PivotError("pivot bookkeeping failed in the stable split")
    return complement + kernel_point.vectors(), n, kernel_point


def stable_subspace(point: GrPoint, k: int) -> tuple[GrPoint, int]:
    """Maximal subspace whose s**k multiple stays inside, with codimension.

    The codimension is the minimal pair count n of the filtration level
    containing the point; n = 0 is exactly the k-reduction.
    """
    _, n, kernel = _stable_split(point, k)
    return kernel, n


# -- wedges and tau functions -----------------------------------------------------

def _column(vec: LaurentVector) -> dict[int, Fraction]:
    """The factor vec as a wedge column: s**e at code -e - 1."""
    return {-e - 1: c for e, c in vec.items() if c}


def _wedge_factors(factors: Sequence[LaurentVector], tail: int) -> FockVector:
    """The wedge of the factors over H_tail."""
    return wedge_columns(map(_column, reversed(factors)), FockVector({MayaState(tail): 1}))


def _pivot_state(pivots: Sequence[int], tail: int) -> State:
    """The (charge, parts) of the Maya state whose wedge codes are -e - 1
    over the pivots, then H_tail."""
    charge = tail + len(pivots)
    codes = sorted((-e - 1 for e in pivots), reverse=True)
    parts = (c - charge + s for s, c in enumerate(codes, start=1))
    return charge, tuple(lam for lam in parts if lam)


def _pivot_minor(factors: Sequence[LaurentVector], tail: int
                 ) -> tuple[FockVector, Fraction]:
    """The wedge of echelon factors over H_tail and its pivot minor."""
    wedge = _wedge_factors(factors, tail)
    pivot = wedge.num.get(_pivot_state([min(v) for v in factors], tail))
    if not pivot:
        raise PivotError("echelon wedge lost its pivot coordinate")
    return wedge, Fraction(pivot, wedge.den)


def _wedge_vars(wedges: Sequence[FockVector]) -> int:
    """The least variable count the Schur images of the wedges need."""
    return max([sum(parts) for fv in wedges for _, parts in fv.num] + [1])


def fock_of(point: GrPoint) -> FockVector:
    """The perfect wedge of the point, scaled so the pivot minor is 1."""
    wedge, c = _pivot_minor(point.vectors(), point.tail)
    return wedge * (1 / c)


def tau_of(point: GrPoint) -> ChargedPoly:
    """Schur expansion of the point's wedge, normalized on the pivot minor."""
    wedge = fock_of(point)
    return sigma_single(wedge, _wedge_vars([wedge]))


def companions(point: GrPoint, k: int
               ) -> tuple[ChargedPoly, list[ChargedPoly], list[ChargedPoly]]:
    """Adapted tau with its n companion pairs at charges m+1 and m-k-1."""
    tau_fv, rho_fvs, sigma_fvs = companion_wedges(point, k)
    D = _wedge_vars([tau_fv, *rho_fvs, *sigma_fvs])
    tau = sigma_single(tau_fv, D)
    rhos = [sigma_single(fv, D) for fv in rho_fvs]
    sigmas = [sigma_single(fv, D) for fv in sigma_fvs]
    return tau, rhos, sigmas


def companion_wedges(point: GrPoint, k: int
                     ) -> tuple[FockVector, list[FockVector], list[FockVector]]:
    """Fock-side companions: the normative objects behind the identities.

    With factors ordered complement-first, the pairing of tau against its
    k-shifted wedge telescopes onto the complement, giving
    rho_j = (s**k w_j) wedge tau and sigma_j = (-1)**(j-1) times the
    shifted wedge with factor j dropped.
    """
    factors, n, _ = _stable_split(point, k)
    wedge, c = _pivot_minor(factors, point.tail)
    tau = wedge * (1 / c)
    rho_fvs = []
    sigma_fvs = []
    for j in range(n):
        rho = wedge_columns([_column(vec_mul_sk(factors[j], k))], tau)
        if rho.is_zero:
            raise PivotError(f"companion {j + 1} vanished")
        rho_fvs.append(rho)
        rest = [vec_mul_sk(f, k) for i, f in enumerate(factors) if i != j]
        sigma = _wedge_factors(rest, point.tail - k) * ((-1 if j % 2 else 1) / c)
        if sigma.is_zero:
            raise PivotError(f"companion {j + 1} vanished")
        sigma_fvs.append(sigma)
    return tau, rho_fvs, sigma_fvs


def dtk_decomposition(point: GrPoint, k: int) -> list[ChargedPoly]:
    """Split d(tau)/dt_k into wedge summands, one per complement factor.

    Replacing a stable factor by its s**k multiple reproduces no basis
    vector (pivots are distinct), so only the complement contributes and
    every summand is itself a perfect wedge.
    """
    factors, n, _ = _stable_split(point, k)
    _, c = _pivot_minor(factors, point.tail)
    wedges = []
    for j in range(n):
        replaced = factors[:j] + [vec_mul_sk(factors[j], k)] + factors[j + 1:]
        fv = _wedge_factors(replaced, point.tail) * (1 / c)
        if not fv.is_zero:
            wedges.append(fv)
    D = _wedge_vars(wedges)
    return [sigma_single(fv, D) for fv in wedges]


# -- solution generator -------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorReport:
    rows: int
    cols: int
    k: int
    violating_columns: tuple[int, ...]  # 1-based

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "k": self.k,
                "violations": list(self.violating_columns)}


class GeneratorConditionError(GrassmannError):
    def __init__(self, message: str, report: GeneratorReport):
        super().__init__(message)
        self.report = report


def generate_from_matrix(entries: Sequence[Sequence[Fraction]], k: int,
                         n: int) -> tuple[GrPoint, ChargedPoly, GeneratorReport]:
    """Polynomial solution from an M x N rank-N matrix of chain data.

    The shift matrix R drops every row index by k.  Columns must chain
    (R A_j is the next column or zero) except for at most n of them; tau
    then lands in filtration level n.  Rows map to loop vectors by
    e_l -> s**(N-l), and tau is Sato's formula on the raw columns: the
    Schur image of their wedge over the tail at level -N, the sum of
    Pluecker coordinates times S_lambda.  Wedging the columns in reverse
    order cancels the reversal sign (-1)**(N(N-1)/2), so tau equals the
    determinant det(sum_l S_{l-i} A_{lj}) exactly, not up to a scalar.
    """
    if k < 1:
        raise GrassmannError("the constraint power k must be positive")
    M = len(entries)
    if M == 0 or any(len(row) != len(entries[0]) for row in entries):
        raise GrassmannError("matrix entries must be rectangular and nonempty")
    N = len(entries[0])
    if not (M > N > 0):
        raise GrassmannError(f"need rows > cols > 0, got {M} x {N}")
    columns = [[row[j] for row in entries] for j in range(N)]
    # every exponent N - l lies below the tail at -N, so no entry is cut
    vectors = [{N - l: c for l, c in enumerate(col, start=1) if c} for col in columns]
    point = reduce_point(vectors, -N)
    if len(point.basis) != N:
        raise GrassmannError(f"matrix rank below {N}")
    violating = []
    for j, col in enumerate(columns):
        r_col = col[k:] + [Fraction(0)] * min(k, M)  # R A_j
        if not any(r_col):
            continue
        if r_col in columns[:j]:
            raise GrassmannError(f"shift of column {j + 1} duplicates earlier "
                                 f"column {columns.index(r_col) + 1}")
        if columns[j + 1:j + 2] != [r_col]:
            violating.append(j + 1)
    report = GeneratorReport(M, N, k, tuple(violating))
    if len(violating) > n:
        raise GeneratorConditionError(
            f"{len(violating)} columns break the chain condition, allowed {n}",
            report)
    # the box N x (M - N) holds every state, so its hook M - 1 is enough
    tau = sigma_single(_wedge_factors(vectors[::-1], -N), max(M - 1, 1))
    return point, tau, report


def grpoint_from_window_matrix(matrix: WindowMatrix, charge: int) -> GrPoint:
    """The point carrying the same wedge as the matrix columns below charge."""
    N = matrix.window  # the columns j = m - 1/2 for m = 1 - N..charge
    columns = (matrix.column(Fraction(2 * m - 1, 2)) for m in range(1 - N, charge + 1))
    return reduce_point([{index_to_exp(i): c for i, c in col.items()} for col in columns],
                        -N)
