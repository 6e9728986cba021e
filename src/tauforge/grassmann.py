"""Points of the polynomial Grassmannian and their tau-function data.

A point is a tail level T (the full cone spanned by s**-T, s**-T+1, ...)
plus finitely many extra Laurent vectors in the loop variable s (apart
from the times t_i).  From the JSON file to the wedge each vector has one
form, a row: its part strictly below the tail as a one-variable MPoly,
s**e -> x**d with d = -T - 1 - e, integer numerators over one
denominator.  ``point_rows`` reads a payload's coefficients as integer
pairs (``mpoly._ratio``) and ``reduce_point`` a caller's ints or
Fractions, both through one row builder, which puts each row over the lcm
of its denominators with one gcd pass.  ``mpoly.Echelon`` reduces the
rows, and a point keeps the reduced echelon rows: monic, zero at every
other lead, pivots (lowest exponents, so the leads) ascending.
Multiplication by s**k, cut at the tail, is the key shift d -> d - k on
the keys d >= k.

The fermion dictionary identifies s**e with the wedge index -e - 1/2, so
multiplication by s**k is the k-fold index lowering on wedge factors.
The wedges are summed on the rows' integer numerators over their
denominators by ``fock.wedge_columns``: s**e is the code -e - 1 = T + d,
and T + d - k for its s**k multiple.  Each finished wedge is a
FockVector, which the companions and the d/dt_k summands scale by their
pivot minor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .mpoly import Echelon, MPoly, _format, _ratio, lincomb, parse_int
from .schur import ChargedPoly
from .fock import FockVector, MayaState, State, WindowMatrix, sigma_single, wedge_columns


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


def _row(triples: Iterable[tuple[int, int, int]], tail: int) -> MPoly:
    """The row of sum p/q s**e over (e, p, q) triples, e distinct and
    q > 0: its part strictly below the tail (the rest is in H_tail) as a
    polynomial in one variable, s**e -> x**(-tail - 1 - e), over the lcm
    of the q's with one gcd pass."""
    top = -tail - 1
    kept = [(top - e, p, q) for e, p, q in triples if p and e <= top]
    den = math.lcm(*(q for _, _, q in kept))
    return MPoly.from_powers({d: p * (den // q) for d, p, q in kept}, den)


def _shift(row: MPoly, k: int) -> MPoly:
    """s**k times the row's vector, cut at the tail: the key shift
    d -> d - k on the keys d >= k."""
    return MPoly.from_powers({d - k: n for d, n in row.num.items() if d >= k}, row.den)


@dataclass(frozen=True)
class GrPoint:
    """Reduced representative: the tail level and the reduced echelon rows
    (x**d for s**(-tail - 1 - d)), pivots ascending."""

    tail: int
    rows: tuple[MPoly, ...] = ()

    @property
    def charge(self) -> int:
        return self.tail + len(self.rows)

    @property
    def weight(self) -> int:
        """Weighted degree of the point's tau: the weight of its pivot partition."""
        return sum(_pivot_state(self.rows, self.tail)[1])

    def to_json(self) -> dict:
        top = -self.tail - 1
        basis = []
        for row in self.rows:
            num, den = row.num, row.den
            coefs = []
            for d in range(max(num), min(num) - 1, -1):  # exponents ascending
                n = num.get(d, 0)
                g = math.gcd(n, den)  # each coefficient n/den in lowest terms
                coefs.append(_format(n // g, den // g))
            basis.append({"minExp": top - max(num), "coefs": coefs})
        return {"tail": self.tail, "basis": basis}


def point_rows(data: dict) -> tuple[list[MPoly], int]:
    """The rows, one per basis row of a point payload (a zero row too),
    and the tail, before any elimination."""
    triples = []
    for row in data.get("basis", []):
        lo = parse_int(row["minExp"])
        if not isinstance(row["coefs"], list):
            raise ValueError("the coefs of a basis row must be a list")
        triples.append([(lo + i, *_ratio(c)) for i, c in enumerate(row["coefs"])])
    tail = parse_int(data["tail"])
    return [_row(t, tail) for t in triples], tail


def reduce_point(vectors: Iterable[Mapping[int, int | Fraction]], tail: int) -> GrPoint:
    """Canonical echelon representative of span(vectors) + H_tail, each
    vector mapping exponents to ints or Fractions."""
    return reduce_rows([_row(((e, c.numerator, c.denominator) for e, c in vec.items()), tail)
                        for vec in vectors], tail)


def reduce_rows(rows: Iterable[MPoly], tail: int) -> GrPoint:
    """The point of the rows' span over H_tail: its reduced echelon rows,
    pivots ascending."""
    echelon = Echelon()
    for row in rows:
        echelon.insert(row)
    return GrPoint(tail, tuple(reversed(echelon.reduced())))


# -- the stability filtration ---------------------------------------------------

def _stable_split(point: GrPoint, k: int) -> tuple[list[MPoly], int, GrPoint]:
    """Kernel/complement split of multiplication by s**k modulo the point.

    Returns (factors, codimension n, kernel point): the n complement
    rows, then the kernel point's rows.  Each s**k v_i, cut at the tail,
    is reduced against the point's rows and the earlier shifted rows; its
    carry is v_i less the multiples taken of the shifted rows' carries, so
    a shift that reduces to zero leaves a carry whose s**k multiple lies
    in the point.  The reduced kernel keeps all pivots across both groups
    distinct, which the wedge constructions rely on.
    """
    if k < 1:
        raise GrassmannError("the constraint power k must be positive")
    rows = Echelon()
    for p in point.rows:
        rows.insert(p)
    carries: dict[int, MPoly] = {}  # lead of a shifted row -> its carry
    kernel = []
    for p in point.rows:
        rest, out = rows.insert(_shift(p, k))
        read = [(carries[lead], -c) for lead, c in out.items() if lead in carries]
        carry = lincomb(1, [(p, 1), *read]) if read else p
        if rest.num:
            carries[max(rest.num)] = carry
        else:
            kernel.append(carry)
    kernel_point = reduce_rows(kernel, point.tail)
    kernel_leads = {max(row.num) for row in kernel_point.rows}
    complement = [p for p in point.rows if max(p.num) not in kernel_leads]
    n = len(point.rows) - len(kernel_point.rows)
    if len(complement) != n:
        raise PivotError("pivot bookkeeping failed in the stable split")
    return complement + list(kernel_point.rows), n, kernel_point


def stable_subspace(point: GrPoint, k: int) -> tuple[GrPoint, int]:
    """Maximal subspace whose s**k multiple stays inside, with codimension.

    The codimension is the minimal pair count n of the filtration level
    containing the point; n = 0 is exactly the k-reduction.
    """
    _, n, kernel = _stable_split(point, k)
    return kernel, n


# -- wedges and tau functions -----------------------------------------------------

def _vacuum(tail: int) -> FockVector:
    """H_tail, the vacuum of charge tail."""
    return FockVector({MayaState(tail): 1})


def _wedge(factors: Sequence[tuple[MPoly, int]], v: FockVector) -> FockVector:
    """f_1 ^ .. ^ f_n ^ v for the factors (row, low), the x**d of a row
    at code low + d: low is T for a row of a point over H_T, and T - k for
    its s**k multiple."""
    return wedge_columns([({low + d: n for d, n in row.num.items()}, row.den)
                          for row, low in reversed(factors)], v)


def _pivot_state(rows: Sequence[MPoly], tail: int) -> State:
    """The (charge, parts) of the Maya state whose wedge codes are those of
    the rows' pivots, tail + lead, then H_tail."""
    charge = tail + len(rows)
    codes = sorted((tail + max(row.num) for row in rows), reverse=True)
    parts = (c - charge + s for s, c in enumerate(codes, start=1))
    return charge, tuple(lam for lam in parts if lam)


def _pivot_minor(rows: Sequence[MPoly], tail: int) -> tuple[FockVector, Fraction]:
    """The wedge of echelon rows over H_tail and its pivot minor."""
    wedge = _wedge([(row, tail) for row in rows], _vacuum(tail))
    pivot = wedge.num.get(_pivot_state(rows, tail))
    if not pivot:
        raise PivotError("echelon wedge lost its pivot coordinate")
    return wedge, Fraction(pivot, wedge.den)


def _wedge_vars(wedges: Sequence[FockVector]) -> int:
    """The least variable count the Schur images of the wedges need."""
    return max([sum(parts) for fv in wedges for _, parts in fv.num] + [1])


def fock_of(point: GrPoint) -> FockVector:
    """The perfect wedge of the point, scaled so the pivot minor is 1."""
    wedge, c = _pivot_minor(point.rows, point.tail)
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
    shifted wedge with factor j dropped.  Over H_(T-k) the shifted factors
    have the codes of the unshifted rows at low T - k.
    """
    factors, n, _ = _stable_split(point, k)
    low = point.tail - k
    wedge, c = _pivot_minor(factors, point.tail)
    tau = wedge * (1 / c)
    rho_fvs = []
    sigma_fvs = []
    for j in range(n):
        rho = _wedge([(factors[j], low)], tau)
        if rho.is_zero:
            raise PivotError(f"companion {j + 1} vanished")
        rho_fvs.append(rho)
        rest = [(f, low) for i, f in enumerate(factors) if i != j]
        sigma = _wedge(rest, _vacuum(low)) * ((-1 if j % 2 else 1) / c)
        if sigma.is_zero:
            raise PivotError(f"companion {j + 1} vanished")
        sigma_fvs.append(sigma)
    return tau, rho_fvs, sigma_fvs


def dtk_decomposition(point: GrPoint, k: int) -> list[ChargedPoly]:
    """Split d(tau)/dt_k into wedge summands, one per complement factor.

    Replacing a stable factor by its s**k multiple reproduces no basis
    vector (pivots are distinct), so only the complement contributes and
    every summand is itself a perfect wedge.  The multiple's codes below
    the tail hit filled codes of H_T and drop out of the wedge.
    """
    factors, n, _ = _stable_split(point, k)
    tail = point.tail
    _, c = _pivot_minor(factors, tail)
    wedges = []
    for j in range(n):
        replaced = [(f, tail - k if i == j else tail) for i, f in enumerate(factors)]
        fv = _wedge(replaced, _vacuum(tail)) * (1 / c)
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


def generate_from_matrix(entries: Sequence[Sequence[int | Fraction]], k: int,
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
    Entries are ints or Fractions; each column is a row of the point, entry
    l at key l - 1, and R A_j is the key shift of s**k.
    """
    if k < 1:
        raise GrassmannError("the constraint power k must be positive")
    M = len(entries)
    if M == 0 or any(len(row) != len(entries[0]) for row in entries):
        raise GrassmannError("matrix entries must be rectangular and nonempty")
    N = len(entries[0])
    if not (M > N > 0):
        raise GrassmannError(f"need rows > cols > 0, got {M} x {N}")
    # every exponent N - l lies below the tail at -N, so no entry is cut
    columns = [_row(((N - l, c.numerator, c.denominator) for l, c in enumerate(col, start=1)),
                    -N) for col in zip(*entries)]
    point = reduce_rows(columns, -N)
    if len(point.rows) != N:
        raise GrassmannError(f"matrix rank below {N}")
    violating = []
    for j, col in enumerate(columns):
        r_col = _shift(col, k)  # R A_j
        if not r_col:
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
    tau = sigma_single(_wedge([(col, -N) for col in reversed(columns)], _vacuum(-N)),
                       max(M - 1, 1))
    return point, tau, report


def grpoint_from_window_matrix(matrix: WindowMatrix, charge: int) -> GrPoint:
    """The point carrying the same wedge as the matrix columns below charge."""
    N = matrix.window  # the columns j = m - 1/2 for m = 1 - N..charge
    columns = (matrix.column(Fraction(2 * m - 1, 2)) for m in range(1 - N, charge + 1))
    return reduce_point([{index_to_exp(i): c for i, c in col.items()} for col in columns],
                        -N)
