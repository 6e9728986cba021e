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
P B* = 1 holds for KP taus only; a tau that fails the KP identity takes
Newton steps to the exact inverse.

The Lax reports take their verdicts from the bilinear identities that
``hirota.bilinear_defects`` proves (Sato's bilinear identity; Dickey's
lemma res_z (P e^{xz})(Q e^{-xz}) = res_d (P Q*) reads them at t' = t):
KP gives P B* = 1 and Sato's equation, so the Lax flow along every t_k;
KP with constrained-k gives (L^k)_- = sum q_j d^-1 r_j; KP with rho_j or
sigma_j gives the q_j or r_j flow.  So the identities imply the reports,
and a job whose identities all hold passes with no dressing.  For a KP
tau, (L^k)_- is the operator of the kernel R(t, t') / (tau(t) tau(t')),
R the constrained-k residue, and the kernel-to-operator map is linear;
so the constrained-k defect sum_l X_l (x) e_l is the constraint defect
sum_l (X_l / tau) d^-1 (e_l / tau), and a KP tau whose rho_j and
sigma_j hold reads its constraint witnesses off it, with no dressing and
no composition.  The converse fails (3 t1 t2 at k = 2 fails KP and
passes the flow), so a job whose tau fails KP, or whose rho_j or sigma_j
fails, is dressed once (lax_depth).  On either path each coefficient of
the constraint and flow defects is tested for exact zero: its numerator
over the power of tau is the zero polynomial, and a nonzero one is the
witness, which prints in one canonical form whichever path made it.  At
k = 1 the flow holds for every tau, so a lax-flow-t1 pass is no evidence
about tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .mpoly import MPoly
from .ratfun import TauFrac, TauRing
from .hirota import _kp_defect, bilinear_defects, identity_family
from .schur import ChargedPoly, miwa_shift


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


def _leibniz(out: dict[int, list], a: TauFrac, i: int, b: TauFrac, l: int,
             floor: int) -> bool:
    """List the terms of a d^i b d^l = sum_j C(i, j) a b^(j) d^(i-j+l) in
    out by order, as ``TauRing.sum`` terms (C(i, j), a, b^(j)), down to
    floor; True if the series was cut there.

    The series stops where b^(j) vanishes or, for i >= 0, at j = i.
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
        n = _binomial(i, j)
        if n:
            out.setdefault(order, []).append((n, a, deriv))
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
            ring._check(fn)
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

    # -- structure ------------------------------------------------------------

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

    def _combine(self, other: "PsiDO", sign: int) -> "PsiDO":
        """self + sign * other, one ``TauRing.sum`` per order."""
        one = self.ring.one
        out = {o: [(1, f, one)] for o, f in self.coeffs.items()}
        for o, f in other.coeffs.items():
            out.setdefault(o, []).append((sign, f, one))
        return PsiDO(self.ring, {o: self.ring.sum(t) for o, t in out.items()},
                     max(self.floor, other.floor), _tightest(self.exact_to, other.exact_to))

    def __add__(self, other: "PsiDO") -> "PsiDO":
        return self._combine(other, 1)

    def __neg__(self) -> "PsiDO":
        return PsiDO(self.ring, {o: -f for o, f in self.coeffs.items()},
                     self.floor, self.exact_to)

    def __sub__(self, other: "PsiDO") -> "PsiDO":
        return self._combine(other, -1)

    def __mul__(self, other: "PsiDO") -> "PsiDO":
        """Composition; exactness shrinks by the partner's top order."""
        ring = self.ring
        floor = max(self.floor, other.floor)
        out: dict[int, list] = {}
        dropped = False
        for i, a in self.coeffs.items():
            for l, b in other.coeffs.items():
                dropped |= _leibniz(out, a, i, b, l, floor)
        e = NEG_INF  # a zero operand gives the exact zero operator
        if self.coeffs and other.coeffs:
            e = _tightest(None if self.exact_to is None else self.exact_to + other.max_order,
                          None if other.exact_to is None else other.exact_to + self.max_order)
        return PsiDO(ring, {o: ring.sum(t) for o, t in out.items()}, floor,
                     _tightest(e, floor) if dropped else e)

    # -- involutions and parts ------------------------------------------------------

    def adjoint(self) -> "PsiDO":
        """(a d^i)* = (-d)^i a, extended linearly; an anti-involution."""
        ring = self.ring
        out: dict[int, list] = {}
        dropped = False
        for i, a in self.coeffs.items():
            dropped |= _leibniz(out, -ring.one if i % 2 else ring.one, i, a, 0, self.floor)
        e = self.exact_to
        return PsiDO(ring, {o: ring.sum(t) for o, t in out.items()}, self.floor,
                     _tightest(e, self.floor) if dropped else e)

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
        terms = []
        deriv = fn
        level = 0
        for order, a in sorted(self.coeffs.items()):
            while level < order:
                deriv = deriv.differentiate(1)
                level += 1
            terms.append((1, a, deriv))
        return self.ring.sum(terms)

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


def _dressing(tau: ChargedPoly, D: int, floor: int, kp: bool) -> tuple[PsiDO, PsiDO]:
    """P and P^-1 of tau's polynomial in D variables, cut at floor, with
    the weight tau holds, not scanned again.

    a_i and b_i are the z**-i coefficients of tau(t -/+ [z^-1]) / tau(t),
    read off the shifts of the ring's primitive tau: the shift is linear,
    so the quotient does not depend on tau's scale.  P = 1 + sum a_i d^-i
    and P^-1 = B* with B = 1 + sum (-1)^i b_i d^-i, the dressing operator
    of the adjoint wave function.  The adjoint's infinite tails are cut at
    floor, so P^-1 is exact down to floor.

    kp is the verdict of the KP identity, which gives P B* = 1 on every
    order.  A tau that fails it takes Newton steps Q <- Q - Q (P Q - 1),
    each squaring the error, to the exact inverse.
    """
    ring, w = TauRing(tau.poly.embed(D)), tau.weight
    minus, plus = miwa_shift(ring.tau, -1, w), miwa_shift(ring.tau, +1, w)
    a = {0: ring.const(1)}
    b = {0: ring.const(1)}
    for i in range(1, w + 1):
        a[-i] = TauFrac(ring, minus.coeff(-i), 1)
        b[-i] = TauFrac(ring, plus.coeff(-i) * (-1) ** i, 1)
    P = PsiDO(ring, a, floor)
    Pinv = PsiDO(ring, PsiDO(ring, b, floor).adjoint().coeffs, floor, floor)
    if kp:
        return P, Pinv
    one = PsiDO.identity(ring, floor)
    error = P * Pinv - one
    while not error.is_zero:
        Pinv = Pinv - Pinv * error
        error = P * Pinv - one
    return P, Pinv


def dress_from_tau(tau: ChargedPoly, T: int) -> DressingPair:
    """Dressing operator and Lax operator of a polynomial tau.

    a_i is the z**-i coefficient of the shifted tau over tau itself; L is
    conjugation of d by P, exact down to order -T.  P^-1 takes Newton
    steps only when tau fails the KP identity of ``bilinear_defects``,
    decided on its unexpanded defect.
    """
    if T < 1:
        raise ValueError("truncation depth must be positive")
    kp = not _kp_defect(tau)[2]
    floor = -(T + 1)
    P, Pinv = _dressing(tau, max(tau.poly.max_var_used(), 1), floor, kp)
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
    """One zero check per order, in the order given."""
    return [_zero_check(order, op.coeff(order)) for order in orders]


def _passed(orders: Sequence[int]) -> list[OrderCheck]:
    """A pass on each order, with no witness."""
    return [OrderCheck(order, True) for order in orders]


def _constraint_defect(poly: MPoly, wide: int, D: int, rows: dict[int, MPoly],
                       combos: dict[int, MPoly], T: int) -> list[OrderCheck]:
    """The constraint's checks on orders -1..-T of a KP tau = poly whose
    constrained-k defect is sum_l combos[l] (x) rows[l] in wide variables:
    the coefficients of sum_l (X_l / tau) d^-1 (rows[l] / tau) (see the
    module docstring), one sum per order in tau's ring over the wide
    variables, each brought down to D variables.  A numerator that uses
    a variable above t_D is a fault of the arithmetic."""
    wide_ring, ring = TauRing(poly.embed(wide)), TauRing(poly.embed(D))
    terms: dict[int, list] = {}
    for l, x in combos.items():
        _leibniz(terms, wide_ring.frac(x, 1), -1, wide_ring.frac(rows[l], 1), 0, -T)
    checks = []
    for o in range(-1, -T - 1, -1):
        fn = wide_ring.sum(terms.get(o, ()))
        if fn.num.max_var_used() > D:
            raise ArithmeticError(f"constraint coefficient at order {o} uses a "
                                  f"variable above t_{D}")
        checks.append(_zero_check(o, TauFrac(ring, fn.num.embed(D), fn.power)))
    return checks


def lax_depth(k: int, T: int) -> int:
    """Depth of the dressing verify_lax makes on its witness path, the least
    at which every order it may read is exact.

    L^k is exact down to floor + k, so the constraint's -T needs floor
    -(T + k); the commutator (k >= 2, a tau that fails KP) composes
    (L^k)_+ with L, exact down to floor + 1, and reads -3, so it needs
    -(4 + k).
    """
    return max(T, 4) + k


def verify_lax(tau: ChargedPoly, rhos: Sequence[ChargedPoly],
               sigmas: Sequence[ChargedPoly], k: int, T: int) -> list[OperatorReport]:
    """The constraint and the flows along t_k.

    The constraint L^k = (L^k)_+ + sum q_j d^-1 r_j is checked
    coefficientwise on orders -1..-T; the Lax flow
    dL/dt_k = [(L^k)_+, L] from order k + 1 down to -3, and the
    eigenfunction flows dq_j/dt_k = (L^k)_+ q_j and
    dr_j/dt_k = -((L^k)_+)* r_j exactly.  The reports come in that order,
    the q_j/r_j pairs interleaved.

    The identities of ``identity_family`` imply every report (see the
    module docstring), so they are run first, by ``bilinear_defects`` with
    the charges fixed at 0, 1 and -k-1, since the Lax side ignores
    charges.  When KP and every rho_j and sigma_j hold, nothing is
    dressed or composed: the Lax flow and the q_j/r_j flows pass, and the
    constraint passes with constrained-k or else takes its witnesses from
    that identity's defect (``_constraint_defect``).  The converse fails
    (3 t1 t2 at k = 2 fails KP and passes the Lax flow), so when KP or a
    rho_j or sigma_j fails, one dressing of tau is composed and every
    coefficient is tested for exact zero; its failing orders give the
    witnesses.  There KP still decides two things: a tau that fails it
    takes Newton steps to P^-1, and only then does the commutator
    dL/dt_k - [(L^k)_+, L] decide the flow.  A passing order carries no
    witness on any path, and a witness prints in canonical form, so the
    report is the same.  At k = 1, (L)_+ = d and the flow holds for every
    tau, so lax-flow-t1 passes always and is no evidence about tau.
    """
    if T < 3:
        raise ValueError("truncation depth must be at least 3")
    operands, family = identity_family(
        tau.at_charge(0), [cp.at_charge(1) for cp in rhos],
        [cp.at_charge(-k - 1) for cp in sigmas], k)
    wide, echelon, defects = bilinear_defects(operands, family, k)
    labels = [f"constraint-k{k}", f"lax-flow-t{k}"]
    labels += [f"{f}_{j}-flow-t{k}" for j in range(1, len(rhos) + 1) for f in "qr"]
    constraint, flow = range(-1, -T - 1, -1), range(k + 1, -4, -1)
    D = max(k, 1, *[cp.poly.max_var_used() for cp in [tau, *rhos, *sigmas]])
    kp = not defects[0]
    if kp and not any(defects[2:]):
        checks = [_constraint_defect(tau.poly, wide, D, echelon.rows, defects[1], T)
                  if defects[1] else _passed(constraint),
                  _passed(flow), *[_passed([0])] * 2 * len(rhos)]
        return [OperatorReport(label, c) for label, c in zip(labels, checks)]
    floor = -lax_depth(k, T)
    P, Pinv = _dressing(tau, D, floor, kp)
    ring = P.ring
    qs = [ring.frac(cp.poly.embed(D), 1) for cp in rhos]
    rs = [ring.frac(cp.poly.embed(D), 1) for cp in sigmas]
    # P d^k P^-1 is exact down to floor + k only, so no composition of
    # L^k goes below that
    cut = floor + k
    Lk = P * PsiDO.d(ring, cut, k) * Pinv
    Lk_plus = Lk.plus_part()
    # the constraint's orders -1..-T of (L^k)_- - sum q_j d^-1 r_j, one sum
    # per order; Lk.coeff guards each order against truncation
    terms: dict[int, list] = {}
    for q, r in zip(qs, rs):
        _leibniz(terms, -q, -1, r, 0, -T)
    checks = [[_zero_check(o, ring.sum([(1, Lk.coeff(o), ring.one), *terms.get(o, ())]))
               for o in constraint]]
    if k == 1 or kp:
        checks.append(_passed(flow))
    else:
        L = P * PsiDO.d(ring, floor + 1) * Pinv
        checks.append(_zero_checks(L.diff_coeffs(k) - (Lk_plus * L - L * Lk_plus), flow))
    adj = Lk_plus.adjoint() if rs else None  # read only by the r flows
    for q, r in zip(qs, rs):
        checks += [[_zero_check(0, q.differentiate(k) - Lk_plus.apply_to(q))],
                   [_zero_check(0, r.differentiate(k) + adj.apply_to(r))]]
    return [OperatorReport(label, c) for label, c in zip(labels, checks)]
