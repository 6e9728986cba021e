"""Truncated pseudo-differential operators and Sato dressing.

Operators are finite sums a_i(t) d^i with coefficients in Q[t][1/tau]
(``TauFrac``) and d = d/dt_1.  Composition uses the generalized Leibniz rule
d^i a = sum_j C(i, j) a^(j) d^(i-j); for negative i the sum is infinite
and is cut at a floor order, with the guaranteed-exact range tracked
through every operation so identity claims never rest on truncated
terms.

Dressing builds P = 1 + a_1 d^-1 + ... from a polynomial tau via its
shifted quotient tau(t-[z^-1])/tau(t), and P^-1 = B* from the adjoint
wave function tau(t+[z^-1])/tau(t) (Date-Jimbo-Kashiwara-Miwa), so
L^k = (P d^k) P^-1 is one composition, cut where it stops being exact.
P B* = 1 holds for KP taus only.  It is certified by polynomial residues
with no composition: by Dickey's lemma res_z (P e^{xz})(Q e^{-xz}) =
res_d (P Q*), the t_1-derivatives of the bilinear residue of
tau(t-[z^-1]) tau(t'+[z^-1]) are unit-triangular in the coefficients of
P B* - 1.  A tau that fails it takes Newton steps to the exact inverse.
The constraint and flow checks subtract the claimed right-hand sides and
test each coefficient for exact zero: its numerator over the power of
tau is the zero polynomial.

The Lax flow dL/dt_k = [(L^k)_+, L] is certified by Sato's equation for
the dressing operator (Date-Jimbo-Kashiwara-Miwa 1983; Dickey, Soliton
Equations and Hamiltonian Systems): with L = P d P^-1 and
S = dP/dt_k + (L^k)_- P, the Lax defect is [S P^-1, L], so S vanishing
on orders -1..-3 proves the flow on every order from -3 up.  That needs
one composition cut at order -4.  The converse fails, so when S does
not vanish the commutator itself decides and gives the witnesses.  At
k = 1, S = dP/dt_1 + L_- P vanishes for every P, so it is not formed.
The one dressing goes only as deep as these checks read (lax_depth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .mpoly import MPoly, PolyError
from .ratfun import TauFrac, TauRing
from .schur import ChargedPoly, miwa_shift
from .zseries import ZSeries


class TruncationError(ArithmeticError):
    """An identity was requested outside the guaranteed-exact order range.

    An internal fault like ExactnessError, not a property of the input.
    """


NEG_INF = None  # exact_to sentinel: exact at every order


def _binomial(i: int, j: int) -> int:
    """C(i, j) = i (i-1) ... (i-j+1) / j!, an integer for every integer i."""
    out = 1
    for s in range(j):
        out = out * (i - s) // (s + 1)  # exact: out is C(i, s) here
    return out


def _tightest(*bounds: int | None) -> int | None:
    """The tightest exact_to bound; exact at every order only if all bounds are."""
    known = [e for e in bounds if e is not None]
    return max(known) if known else NEG_INF


def _leibniz(out: dict[int, TauFrac], a: TauFrac | int, i: int, b: TauFrac, l: int,
             floor: int) -> bool:
    """Add a d^i b d^l = sum_j C(i, j) a b^(j) d^(i-j+l) into out, in that
    order of j, down to floor; True if the series was cut there.

    a is a coefficient or an integer sign.  The series stops where b^(j)
    vanishes or, for i >= 0, at j = i.
    """
    deriv = b
    j = 0
    while True:
        order = i - j + l
        if order < floor:
            return True
        if j:
            deriv = deriv.differentiate(1)  # cached on the element
        if deriv.is_zero:
            return False
        c = _binomial(i, j)
        if c:
            term = (a if c == 1 else a * c) * deriv
            cur = out.get(order)
            out[order] = term if cur is None else cur + term
        if i >= 0 and j >= i:
            return False
        j += 1


class PsiDO:
    """Operator sum_{order <= max_order} coeffs[order] * d^order.

    Coefficients below ``floor`` are dropped; dropping a nonzero one
    makes the operator exact only down to ``floor``.
    """

    __slots__ = ("ring", "coeffs", "floor", "exact_to")

    def __init__(self, ring: TauRing, coeffs: dict[int, TauFrac], floor: int,
                 exact_to: int | None = NEG_INF):
        self.ring = ring
        self.floor = floor
        clean: dict[int, TauFrac] = {}
        for order, fn in coeffs.items():
            if fn.ring is not ring and fn.ring.tau != ring.tau:
                raise PolyError("coefficient ring mismatch")
            if fn.is_zero:
                continue
            if order >= floor:
                clean[int(order)] = fn
            elif exact_to is None:
                exact_to = floor
        self.coeffs = clean
        self.exact_to = exact_to if exact_to is None else max(exact_to, floor)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, ring: TauRing, floor: int) -> "PsiDO":
        return cls(ring, {0: ring.const(1)}, floor)

    @classmethod
    def d(cls, ring: TauRing, floor: int, power: int = 1) -> "PsiDO":
        return cls(ring, {power: ring.const(1)}, floor)

    @classmethod
    def multiplier(cls, fn: TauFrac, floor: int) -> "PsiDO":
        return cls(fn.ring, {0: fn}, floor)

    # -- structure ------------------------------------------------------------

    @property
    def vars(self) -> int:
        return self.ring.vars

    @property
    def max_order(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    def coeff(self, order: int) -> TauFrac:
        if self.exact_to is not None and order < self.exact_to:
            raise TruncationError(
                f"order {order} below guaranteed-exact bound {self.exact_to}")
        fn = self.coeffs.get(order)
        return self.ring.const(0) if fn is None else fn

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        """Coefficientwise equality on the jointly guaranteed order range."""
        if not isinstance(other, PsiDO):
            return NotImplemented
        bound = _tightest(self.exact_to, other.exact_to)
        orders = set(self.coeffs) | set(other.coeffs)
        if bound is not None:
            orders = {o for o in orders if o >= bound}
        return all(self.coeff(o).equals(other.coeff(o)) for o in orders)

    __hash__ = None

    # -- ring operations ----------------------------------------------------------

    def __add__(self, other: "PsiDO") -> "PsiDO":
        out = dict(self.coeffs)
        for order, fn in other.coeffs.items():
            cur = out.get(order)
            out[order] = fn if cur is None else cur + fn
        return PsiDO(self.ring, out, max(self.floor, other.floor),
                     _tightest(self.exact_to, other.exact_to))

    def __neg__(self) -> "PsiDO":
        return PsiDO(self.ring, {o: -f for o, f in self.coeffs.items()},
                     self.floor, self.exact_to)

    def __sub__(self, other: "PsiDO") -> "PsiDO":
        return self + -other

    def __mul__(self, other: "PsiDO") -> "PsiDO":
        """Composition; exactness shrinks by the partner's top order."""
        floor = max(self.floor, other.floor)
        out: dict[int, TauFrac] = {}
        dropped = False
        for i, a in self.coeffs.items():
            for l, b in other.coeffs.items():
                dropped |= _leibniz(out, a, i, b, l, floor)
        e = NEG_INF  # a zero operand gives the exact zero operator
        if self.coeffs and other.coeffs:
            e = _tightest(None if self.exact_to is None else self.exact_to + other.max_order,
                          None if other.exact_to is None else other.exact_to + self.max_order)
        return PsiDO(self.ring, out, floor, _tightest(e, floor) if dropped else e)

    # -- involutions and parts ------------------------------------------------------

    def adjoint(self) -> "PsiDO":
        """(a d^i)* = (-d)^i a, extended linearly; an anti-involution."""
        out: dict[int, TauFrac] = {}
        dropped = False
        for i, a in self.coeffs.items():
            dropped |= _leibniz(out, 1 if i % 2 == 0 else -1, i, a, 0, self.floor)
        e = self.exact_to
        return PsiDO(self.ring, out, self.floor, _tightest(e, self.floor) if dropped else e)

    def plus_part(self) -> "PsiDO":
        """Differential part (orders >= 0), always fully exact."""
        if self.exact_to is not None and self.exact_to > 0:
            raise TruncationError("differential part is not fully known")
        return PsiDO(self.ring,
                     {o: f for o, f in self.coeffs.items() if o >= 0},
                     self.floor, NEG_INF)

    # -- actions -----------------------------------------------------------------------

    def apply_to(self, fn: TauFrac) -> TauFrac:
        """Apply a differential operator to a function."""
        if any(o < 0 for o in self.coeffs):
            raise ValueError("only differential operators act on functions")
        out = self.ring.const(0)
        by_order = sorted(self.coeffs.items())
        deriv = fn
        level = 0
        for order, a in by_order:
            while level < order:
                deriv = deriv.differentiate(1)
                level += 1
            out = out + a * deriv
        return out

    def diff_coeffs(self, k: int) -> "PsiDO":
        """Coefficient-wise d/dt_k."""
        return PsiDO(self.ring,
                     {o: f.differentiate(k) for o, f in self.coeffs.items()},
                     self.floor, self.exact_to)

    # -- serialization --------------------------------------------------------------------

    def to_json(self) -> dict:
        """Coefficients on the guaranteed-exact range, whose bound is "truncation"."""
        bound = self.floor if self.exact_to is None else self.exact_to
        return {
            "maxOrder": self.max_order if self.coeffs else 0,
            "truncation": bound,
            "coefs": {str(o): self.coeffs[o].to_json()
                      for o in sorted(self.coeffs) if o >= bound},
        }

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"({self.coeffs[o]!r})*d^{o}" for o in sorted(self.coeffs, reverse=True)]
        return " + ".join(parts)


@dataclass(frozen=True)
class DressingPair:
    P: PsiDO
    L: PsiDO


def _bilinear_certificate(minus: ZSeries, plus: ZSeries, N: int) -> bool:
    """True when P B* = 1 on orders -1..-N, from polynomials alone.

    minus and plus are A = tau(t - [z^-1]) and B = tau(t + [z^-1]), so
    P e^{xi} = A e^{xi} / tau and B e^{-xi} / tau = B(d) e^{-xi}.  The
    test is H_n = 0 for n < N, where H_n = res_z [(d_1 + z)^n A] B
    = sum_m C(n, m) sum_{i+j = m-n-1} (d_1^m A_i) B_j is d^n/dt_1^n of
    res_z A(t,z) B(t',z) e^{xi(t-t',z)} at t' = t.  Dickey's lemma,
    res_z (P e^{xz})(Q e^{-xz}) = res_d (P Q*), gives
    res_d(d^n P B*) = tau^-1 sum_m C(n, m) d_1^(n-m)(tau^-1) H_m, and
    res_d(d^n P B*) is r_{n+1} plus derivatives of r_1..r_n, the r_i of
    P B* - 1 = sum r_i d^-i.  Both systems are triangular with units on
    the diagonal, so H_0..H_{N-1} vanish exactly when r_1..r_N do.
    """
    top = max(-minus.min_order, -plus.min_order, 1)  # H_0 reads A_-1
    zero = MPoly.zero(minus.vars)
    # G[top + i] is the z^i coefficient of (d_1 + z)^n A; orders above top
    # are never read, and each order needs only orders at or below it
    G = [minus.coeff(i) for i in range(-top, 1)] + [zero] * top
    B = [plus.coeff(j) for j in range(-top, 1)]  # B[top + j] is B_j
    for n in range(N):
        if n:
            G = [g.differentiate(1) + lower for g, lower in zip(G, [zero, *G])]
        H = zero
        for i in range(-1, top):
            H = H + G[top + i] * B[top - 1 - i]
        if not H.is_zero:
            return False
    return True


def _dressing(poly: MPoly, D: int, floor: int) -> tuple[PsiDO, PsiDO]:
    """P and P^-1 of tau = poly in D variables, cut at floor.

    a_i and b_i are the z**-i coefficients of tau(t -/+ [z^-1]) / tau(t);
    P = 1 + sum a_i d^-i and P^-1 = B* with B = 1 + sum (-1)^i b_i d^-i,
    the dressing operator of the adjoint wave function.  The adjoint's
    infinite tails are cut at floor, so P^-1 is exact down to floor.

    P B* = 1 is the bilinear identity, so it holds only when tau is a KP
    tau function.  _bilinear_certificate checks it on orders -1..floor
    from the Miwa shifts alone; a tau that fails it takes Newton steps
    Q <- Q - Q (P Q - 1), each squaring the error, to the exact inverse.
    """
    if poly.is_zero:
        raise ValueError("tau must be nonzero")
    ring = TauRing(poly.embed(D))
    minus, plus = miwa_shift(ring.tau, -1), miwa_shift(ring.tau, +1)
    a = {0: ring.const(1)}
    b = {0: ring.const(1)}
    for i in range(1, ring.tau.wdeg() + 1):
        a[-i] = ring.frac(minus.coeff(-i), 1)
        b[-i] = ring.frac(plus.coeff(-i) * (-1) ** i, 1)
    P = PsiDO(ring, a, floor)
    Pinv = PsiDO(ring, PsiDO(ring, b, floor).adjoint().coeffs, floor, floor)
    if _bilinear_certificate(minus, plus, -floor):
        return P, Pinv
    one = PsiDO.identity(ring, floor)
    error = P * Pinv - one
    while not error.is_zero:
        Pinv = Pinv - Pinv * error
        error = P * Pinv - one
    return P, Pinv


def dress_from_tau(tau: ChargedPoly | MPoly, T: int) -> DressingPair:
    """Dressing operator and Lax operator of a polynomial tau.

    a_i is the z**-i coefficient of the shifted tau over tau itself; L is
    conjugation of d by P, exact down to order -T.
    """
    poly = tau.poly if isinstance(tau, ChargedPoly) else tau
    if T < 1:
        raise ValueError("truncation depth must be positive")
    floor = -(T + 1)
    P, Pinv = _dressing(poly, max(poly.max_var_used(), 1), floor)
    return DressingPair(P, P * PsiDO.d(P.ring, floor + 1) * Pinv)


@dataclass(frozen=True)
class OrderCheck:
    order: int
    passed: bool
    witness: TauFrac | None = None

    def to_json(self) -> dict:
        out = {"order": self.order, "pass": self.passed,
               "method": "cross-multiplication"}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


@dataclass
class OperatorReport:
    label: str
    checks: list[OrderCheck] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"id": self.label, "pass": self.all_pass,
                "orders": [c.to_json() for c in self.checks]}


def _zero_check(order: int, fn: TauFrac) -> OrderCheck:
    """Exact zero test of one coefficient; a nonzero one is its witness."""
    return OrderCheck(order, fn.is_zero, None if fn.is_zero else fn)


def _zero_checks(op: PsiDO, orders: Sequence[int]) -> list[OrderCheck]:
    """One zero check per order, top first."""
    return [_zero_check(order, op.coeff(order)) for order in sorted(orders, reverse=True)]


def lax_depth(k: int, T: int) -> int:
    """Depth of the one dressing verify_lax makes, the least at which every
    order it reads is exact.

    L^k is exact down to floor + k, so the constraint's -T needs floor
    -(T + k) and Sato's -3 needs -(3 + k); the commutator (k >= 2) composes
    (L^k)_+ with L, exact down to floor + 1, and reads -3, so it needs
    -(4 + k).
    """
    return max(T, 4) + k


SATO_CUT = -4  # S is read on orders -1..-3 only


def _sato_pass(P: PsiDO, minus: PsiDO, k: int) -> bool:
    """True when S = dP/dt_k + (L^k)_- P vanishes on orders -1..-3.

    minus is (L^k)_-.  Both operands are cut at SATO_CUT, so the one
    composition stops there; PsiDO.coeff raises TruncationError should
    the cut reach an order read.
    """
    ring = P.ring
    P = PsiDO(ring, P.coeffs, SATO_CUT, P.exact_to)
    S = P.diff_coeffs(k) + PsiDO(ring, minus.coeffs, SATO_CUT, minus.exact_to) * P
    return all(S.coeff(o).is_zero for o in range(SATO_CUT + 1, 0))


def verify_lax(tau: ChargedPoly, rhos: Sequence[ChargedPoly],
               sigmas: Sequence[ChargedPoly], k: int, T: int) -> list[OperatorReport]:
    """The constraint and the flows along t_k, from one dressing of tau.

    The constraint L^k = (L^k)_+ + sum q_j d^-1 r_j is checked
    coefficientwise on orders -T..-1; the Lax flow
    dL/dt_k = [(L^k)_+, L] from order -3 up, and the eigenfunction flows
    dq_j/dt_k = (L^k)_+ q_j and dr_j/dt_k = -((L^k)_+)* r_j exactly.
    The reports come in that order, the q_j/r_j pairs interleaved.

    The Lax flow has two paths to one verdict.  Sato's equation
    dP/dt_k = -(L^k)_- P holding on orders -1..-3 certifies a pass on
    every order; otherwise the commutator dL/dt_k - [(L^k)_+, L] is
    checked order by order and gives the witnesses.  A passing order
    carries no witness on either path, so the report is the same.  At
    k = 1, (L)_+ = d and S = dP/dt_1 + L_- P vanishes for every P, so
    Sato is not tested there: lax-flow-t1 passes for every tau and is no
    evidence about it.
    """
    if T < 3:
        raise ValueError("truncation depth must be at least 3")
    if len(rhos) != len(sigmas):
        raise ValueError("companion lists must have equal length")
    D = max(k, 1, *[cp.poly.max_var_used() for cp in [tau, *rhos, *sigmas]])
    floor = -lax_depth(k, T)
    P, Pinv = _dressing(tau.poly, D, floor)
    ring = P.ring
    qs = [ring.frac(cp.poly.embed(D), 1) for cp in rhos]
    rs = [ring.frac(cp.poly.embed(D), 1) for cp in sigmas]
    # P d^k P^-1 is exact down to floor + k only, so no composition of
    # L^k, nor of the q d^-1 r beside it, goes below that
    cut = floor + k
    Lk = P * PsiDO.d(ring, cut, k) * Pinv
    Lk_plus = Lk.plus_part()
    minus = Lk - Lk_plus
    defect = minus
    dinv = PsiDO.d(ring, cut, -1)
    for q, r in zip(qs, rs):
        defect = defect - PsiDO.multiplier(q, cut) * dinv * PsiDO.multiplier(r, cut)
    reports = [OperatorReport(f"constraint-k{k}", _zero_checks(defect, range(-T, 0)))]
    orders = range((Lk_plus.max_order or 0) + 1, SATO_CUT, -1)
    if k == 1 or _sato_pass(P, minus, k):
        # the Lax defect is [S P^-1, L], of order at most -4 when S is;
        # at k = 1, S = dP/dt_1 + L_- P = P_x - [d, P] = 0 for every P
        checks = [OrderCheck(o, True) for o in orders]
    else:
        # the converse fails (3 t1 t2 at k = 2 fails Sato and passes the
        # flow), so the commutator decides
        L = P * PsiDO.d(ring, floor + 1) * Pinv
        checks = _zero_checks(L.diff_coeffs(k) - (Lk_plus * L - L * Lk_plus), orders)
    reports.append(OperatorReport(f"lax-flow-t{k}", checks))
    adj = Lk_plus.adjoint()
    for j, (q, r) in enumerate(zip(qs, rs), start=1):
        for name, fn in ((f"q_{j}-flow-t{k}", q.differentiate(k) - Lk_plus.apply_to(q)),
                         (f"r_{j}-flow-t{k}", r.differentiate(k) + adj.apply_to(r))):
            reports.append(OperatorReport(name, [_zero_check(0, fn)]))
    return reports
