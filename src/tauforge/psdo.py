"""Truncated pseudo-differential operators and Sato dressing.

Operators are finite sums a_i(t) d^i with rational-function coefficients
and d = d/dt_1.  Composition uses the generalized Leibniz rule
d^i a = sum_j C(i, j) a^(j) d^(i-j); for negative i the sum is infinite
and is cut at a floor order, with the guaranteed-exact range tracked
through every operation so identity claims never rest on truncated
terms.

Dressing builds P = 1 + a_1 d^-1 + ... from a polynomial tau via its
shifted quotient, then L = P d P^-1.  The constraint and flow checks
subtract the claimed right-hand sides and test coefficients for exact
zero, with seeded rational-point evaluation as a fast pre-filter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .mpoly import MPoly, PolyError
from .ratfun import PoleError, RatFun
from .schur import ChargedPoly, DomainError, miwa_shift


class TruncationError(ArithmeticError):
    """An identity was requested outside the guaranteed-exact order range.

    An internal fault like ExactnessError, not a property of the input.
    """


class PoleBudgetError(ArithmeticError):
    """Could not find enough sample points off the denominator locus."""


NEG_INF = None  # exact_to sentinel: exact at every order


def _binomial(i: int, j: int) -> Fraction:
    out = Fraction(1)
    for s in range(j):
        out *= Fraction(i - s, s + 1)
    return out


class PsiDO:
    """Operator sum_{order <= max_order} coeffs[order] * d^order."""

    __slots__ = ("vars", "coeffs", "floor", "exact_to")

    def __init__(self, vars: int, coeffs: dict[int, RatFun] | None = None,
                 floor: int = -8, exact_to: int | None = NEG_INF):
        self.vars = vars
        self.floor = floor
        clean: dict[int, RatFun] = {}
        for order, fn in (coeffs or {}).items():
            if fn.vars != vars:
                raise PolyError("coefficient variable count mismatch")
            if order >= floor and not fn.is_zero:
                clean[int(order)] = fn
        self.coeffs = clean
        self.exact_to = exact_to if exact_to is None else max(exact_to, floor)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: int, floor: int) -> "PsiDO":
        return cls(vars, {}, floor)

    @classmethod
    def identity(cls, vars: int, floor: int) -> "PsiDO":
        return cls(vars, {0: RatFun.from_const(vars, 1)}, floor)

    @classmethod
    def d(cls, vars: int, floor: int, power: int = 1) -> "PsiDO":
        return cls(vars, {power: RatFun.from_const(vars, 1)}, floor)

    @classmethod
    def multiplier(cls, fn: RatFun, floor: int) -> "PsiDO":
        return cls(fn.vars, {0: fn}, floor)

    # -- structure ------------------------------------------------------------

    @property
    def max_order(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    def coeff(self, order: int) -> RatFun:
        if self.exact_to is not None and order < self.exact_to:
            raise TruncationError(
                f"order {order} below guaranteed-exact bound {self.exact_to}")
        return self.coeffs.get(order, RatFun.from_const(self.vars, 0))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        """Coefficientwise equality on the jointly guaranteed order range."""
        if not isinstance(other, PsiDO):
            return NotImplemented
        bounds = [e for e in (self.exact_to, other.exact_to) if e is not None]
        bound = max(bounds) if bounds else None
        orders = set(self.coeffs) | set(other.coeffs)
        if bound is not None:
            orders = {o for o in orders if o >= bound}
        return all(self.coeff(o).equals(other.coeff(o)) for o in orders)

    __hash__ = None

    # -- ring operations ----------------------------------------------------------

    def _join(self, other: "PsiDO") -> tuple[int, int | None]:
        floor = max(self.floor, other.floor)
        if self.exact_to is None and other.exact_to is None:
            e = NEG_INF
        elif self.exact_to is None:
            e = other.exact_to
        elif other.exact_to is None:
            e = self.exact_to
        else:
            e = max(self.exact_to, other.exact_to)
        return floor, e

    def __add__(self, other: "PsiDO") -> "PsiDO":
        floor, e = self._join(other)
        out = dict(self.coeffs)
        for order, fn in other.coeffs.items():
            cur = out.get(order)
            out[order] = fn if cur is None else cur + fn
        return PsiDO(self.vars, out, floor, e)

    def __neg__(self) -> "PsiDO":
        return PsiDO(self.vars, {o: -f for o, f in self.coeffs.items()},
                     self.floor, self.exact_to)

    def __sub__(self, other: "PsiDO") -> "PsiDO":
        return self + (-other)

    def scale(self, c) -> "PsiDO":
        return PsiDO(self.vars, {o: f * c for o, f in self.coeffs.items()},
                     self.floor, self.exact_to)

    def __mul__(self, other: "PsiDO") -> "PsiDO":
        """Composition; exactness shrinks by the partner's top order."""
        if not isinstance(other, PsiDO):
            return self.scale(other)
        floor = max(self.floor, other.floor)
        out: dict[int, RatFun] = {}
        dropped = False
        derivs: dict[int, list[RatFun]] = {l: [b] for l, b in other.coeffs.items()}
        for i, a in self.coeffs.items():
            for l, chain in derivs.items():
                j = 0
                while True:
                    order = i - j + l
                    if order < floor:
                        dropped = True
                        break
                    if j == len(chain):
                        chain.append(chain[-1].differentiate(1))
                    deriv = chain[j]
                    if deriv.is_zero:
                        break
                    c = _binomial(i, j)
                    if c:
                        term = a * deriv * c
                        cur = out.get(order)
                        out[order] = term if cur is None else cur + term
                    if i >= 0 and j >= i:
                        break
                    j += 1
        e_self, e_other = self.exact_to, other.exact_to
        top_self = self.max_order
        top_other = other.max_order
        if e_self is None and e_other is None:
            e: int | None = NEG_INF
        elif top_self is None or top_other is None:
            e = NEG_INF  # zero operator
        else:
            candidates = []
            if e_self is not None:
                candidates.append(e_self + top_other)
            if e_other is not None:
                candidates.append(e_other + top_self)
            e = max(candidates)
        if dropped:
            e = floor if e is None else max(e, floor)
        return PsiDO(self.vars, out, floor, e)

    __rmul__ = scale

    def __pow__(self, n: int) -> "PsiDO":
        if n < 0:
            raise ValueError("negative operator power; invert explicitly")
        result = PsiDO.identity(self.vars, self.floor)
        for _ in range(n):
            result = result * self
        return result

    # -- involutions and parts ------------------------------------------------------

    def adjoint(self) -> "PsiDO":
        """(a d^i)* = (-d)^i a, extended linearly; an anti-involution."""
        floor = self.floor
        out: dict[int, RatFun] = {}
        dropped = False
        for i, a in self.coeffs.items():
            sign = 1 if i % 2 == 0 else -1
            deriv = a
            j = 0
            while True:
                order = i - j
                if order < floor:
                    dropped = True
                    break
                if deriv.is_zero:
                    break
                c = _binomial(i, j)
                if c:
                    term = deriv * (c * sign)
                    cur = out.get(order)
                    out[order] = term if cur is None else cur + term
                if i >= 0 and j >= i:
                    break
                deriv = deriv.differentiate(1)
                j += 1
        e = self.exact_to
        if dropped:
            e = floor if e is None else max(e, floor)
        return PsiDO(self.vars, out, floor, e)

    def plus_part(self) -> "PsiDO":
        """Differential part (orders >= 0), always fully exact."""
        if self.exact_to is not None and self.exact_to > 0:
            raise TruncationError("differential part is not fully known")
        return PsiDO(self.vars,
                     {o: f for o, f in self.coeffs.items() if o >= 0},
                     self.floor, NEG_INF)

    def minus_part(self) -> "PsiDO":
        return PsiDO(self.vars,
                     {o: f for o, f in self.coeffs.items() if o < 0},
                     self.floor, self.exact_to)

    def split(self) -> tuple["PsiDO", "PsiDO"]:
        return self.plus_part(), self.minus_part()

    # -- actions -----------------------------------------------------------------------

    def apply_to(self, fn: RatFun) -> RatFun:
        """Apply a differential operator to a function."""
        if any(o < 0 for o in self.coeffs):
            raise ValueError("only differential operators act on functions")
        out = RatFun.from_const(self.vars, 0)
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
        return PsiDO(self.vars,
                     {o: f.differentiate(k) for o, f in self.coeffs.items()},
                     self.floor, self.exact_to)

    def inverse(self) -> "PsiDO":
        """Neumann inverse of a monic order-zero operator, down to floor."""
        unit = self.coeffs.get(0)
        if self.max_order != 0 or unit is None or not unit.equals(
                RatFun.from_const(self.vars, 1)):
            raise ValueError("inverse requires a monic order-zero operator")
        k = self - PsiDO.identity(self.vars, self.floor)
        result = PsiDO.identity(self.vars, self.floor)
        power = PsiDO.identity(self.vars, self.floor)
        step = 0
        while not power.is_zero and step <= -self.floor:
            power = power * k
            result = result + power.scale((-1) ** (step + 1))
            step += 1
        return PsiDO(self.vars, result.coeffs, self.floor, self.floor)

    # -- serialization --------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "maxOrder": self.max_order if self.coeffs else 0,
            "truncation": self.floor,
            "coefs": {str(o): self.coeffs[o].to_json() for o in sorted(self.coeffs)},
        }

    @classmethod
    def from_json(cls, data: dict) -> "PsiDO":
        floor = int(data["truncation"])
        coeffs = {int(o): RatFun.from_json(fj) for o, fj in data.get("coefs", {}).items()}
        vars = next(iter(coeffs.values())).vars if coeffs else 1
        return cls(vars, coeffs, floor, floor)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"({self.coeffs[o]!r})*d^{o}" for o in sorted(self.coeffs, reverse=True)]
        return " + ".join(parts)


@dataclass(frozen=True)
class DressingPair:
    P: PsiDO
    L: PsiDO


def dress_from_tau(tau: ChargedPoly | MPoly, T: int, D: int | None = None) -> DressingPair:
    """Dressing operator and Lax operator of a polynomial tau.

    a_i is the z**-i coefficient of the shifted tau over tau itself; L is
    conjugation of d by P, exact down to order -T.
    """
    poly = tau.poly if isinstance(tau, ChargedPoly) else tau
    if poly.is_zero:
        raise ValueError("tau must be nonzero")
    if T < 1:
        raise ValueError("truncation depth must be positive")
    depth = poly.wdeg()
    if D is None:
        D = max(poly.max_var_used(), 1)
    elif D < poly.max_var_used():
        raise DomainError(f"need D >= {poly.max_var_used()}, got {D}")
    base = poly.embed(D)
    shifted = miwa_shift(base, -1)
    work_floor = -(T + 1)
    coeffs = {0: RatFun.from_const(D, 1)}
    for i in range(1, depth + 1):
        num = shifted.coeff(-i)
        if not num.is_zero:
            coeffs[-i] = RatFun(num, base)
    P = PsiDO(D, coeffs, work_floor)
    L = P * PsiDO.d(D, work_floor) * P.inverse()
    return DressingPair(P, L)


# -- seeded rational sampling -----------------------------------------------------

def sample_points(vars: int, avoid: Sequence[MPoly], trials: int, seed: int,
                  budget: int = 100) -> list[list[Fraction]]:
    """Deterministic small-rational points avoiding given zero loci."""
    rng = random.Random(seed)
    points: list[list[Fraction]] = []
    attempts = 0
    while len(points) < trials:
        if attempts >= budget + trials:
            raise PoleBudgetError(
                f"exhausted {budget} resamples avoiding poles")
        attempts += 1
        point = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(vars)]
        if any(p.evaluate(point) == 0 for p in avoid):
            continue
        points.append(point)
    return points


@dataclass(frozen=True)
class OrderCheck:
    order: int
    passed: bool
    method: str
    witness: RatFun | None = None

    def to_json(self) -> dict:
        out = {"order": self.order, "pass": self.passed, "method": self.method}
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


def _zero_checks(op: PsiDO, orders: Sequence[int], points: Sequence[Sequence[Fraction]],
                 label_unused: str = "") -> list[OrderCheck]:
    """Exact zero test per order, with point evaluation as a pre-filter."""
    out = []
    for order in sorted(orders, reverse=True):
        fn = op.coeff(order)
        sampled_zero = True
        for point in points:
            try:
                if fn.evaluate(point) != 0:
                    sampled_zero = False
                    break
            except PoleError:
                continue
        if not sampled_zero:
            out.append(OrderCheck(order, False, "evaluation", fn))
            continue
        ok = fn.is_zero
        out.append(OrderCheck(order, ok, "cross-multiplication",
                              None if ok else fn))
    return out


def constraint_defect(tau: ChargedPoly, rhos: Sequence[ChargedPoly],
                      sigmas: Sequence[ChargedPoly], k: int, T: int,
                      D: int | None = None) -> tuple[PsiDO, PsiDO, list[RatFun], list[RatFun]]:
    """L^k minus its differential part minus the claimed tail, plus context."""
    if len(rhos) != len(sigmas):
        raise ValueError("companion lists must have equal length")
    poly = tau.poly
    if D is None:
        D = max(poly.max_var_used(), k,
                *[cp.poly.max_var_used() for cp in [*rhos, *sigmas]] or [1], 1)
    work_floor = -(T + k + 1)
    pair = dress_from_tau(ChargedPoly(poly, tau.charge), T + k, D)
    P = PsiDO(D, pair.P.coeffs, work_floor)
    L = P * PsiDO.d(D, work_floor) * P.inverse()
    Lk = L**k
    base = poly.embed(D)
    qs = [RatFun(cp.poly.embed(D), base) for cp in rhos]
    rs = [RatFun(cp.poly.embed(D), base) for cp in sigmas]
    defect = Lk - Lk.plus_part()
    dinv = PsiDO.d(D, work_floor, -1)
    for q, r in zip(qs, rs):
        defect = defect - PsiDO.multiplier(q, work_floor) * dinv * PsiDO.multiplier(r, work_floor)
    return defect, Lk, qs, rs


def verify_constraint(tau: ChargedPoly, rhos: Sequence[ChargedPoly],
                      sigmas: Sequence[ChargedPoly], k: int, T: int,
                      trials: int = 20, seed: int = 0,
                      D: int | None = None) -> OperatorReport:
    """Check L^k = (L^k)_+ + sum q_j d^-1 r_j coefficientwise to order -T."""
    if T < 3:
        raise ValueError("truncation depth must be at least 3")
    defect, _, _, _ = constraint_defect(tau, rhos, sigmas, k, T, D)
    vars = defect.vars
    points = sample_points(vars, [tau.poly.embed(vars)], trials, seed)
    orders = range(-T, 0)
    report = OperatorReport(f"constraint-k{k}")
    report.checks.extend(_zero_checks(defect, orders, points))
    return report


def verify_flows(tau: ChargedPoly, rhos: Sequence[ChargedPoly],
                 sigmas: Sequence[ChargedPoly], k: int, T: int,
                 orders: Sequence[int] | None = None,
                 trials: int = 20, seed: int = 0,
                 D: int | None = None) -> list[OperatorReport]:
    """Lax flow and eigenfunction flows along t_k, asserted exactly.

    dL/dt_k = [(L^k)_+, L], dq_j/dt_k = (L^k)_+ q_j and
    dr_j/dt_k = -((L^k)_+)* r_j, coefficientwise down to order -T.
    """
    if T < 1:
        raise ValueError("truncation depth must be positive")
    poly = tau.poly
    if D is None:
        D = max(poly.max_var_used(), k,
                *[cp.poly.max_var_used() for cp in [*rhos, *sigmas]] or [1], 1)
    work_floor = -(T + 2 * k + 1)
    pair = dress_from_tau(ChargedPoly(poly, tau.charge), T + 2 * k, D)
    P = PsiDO(D, pair.P.coeffs, work_floor)
    L = P * PsiDO.d(D, work_floor) * P.inverse()
    Lk = L**k
    Lk_plus = Lk.plus_part()
    lax = L.diff_coeffs(k) - (Lk_plus * L - L * Lk_plus)
    points = sample_points(D, [poly.embed(D)], trials, seed)
    top = (Lk_plus.max_order or 0) + 1
    lax_orders = orders if orders is not None else range(-T, top + 1)
    reports = [OperatorReport(f"lax-flow-t{k}")]
    reports[0].checks.extend(_zero_checks(lax, lax_orders, points))
    base = poly.embed(D)
    adj = Lk_plus.adjoint()
    for j, (rho, sig) in enumerate(zip(rhos, sigmas), start=1):
        q = RatFun(rho.poly.embed(D), base)
        r = RatFun(sig.poly.embed(D), base)
        q_defect = q.differentiate(k) - Lk_plus.apply_to(q)
        r_defect = r.differentiate(k) + adj.apply_to(r)
        for name, defect in ((f"q_{j}-flow-t{k}", q_defect),
                             (f"r_{j}-flow-t{k}", r_defect)):
            rep = OperatorReport(name)
            holder = PsiDO(D, {0: defect}, work_floor)
            rep.checks.extend(_zero_checks(holder, [0], points))
            reports.append(rep)
    return reports
