import math
import random
from fractions import Fraction

import pytest

import tauforge.hirota as hirota
from tauforge.mpoly import MPoly, divexact
from tauforge.fock import FockVector, MayaState
from tauforge.grassmann import reduce_point
from tauforge.schur import partitions_of
from tauforge.zseries import ExactnessError, ZSeries


@pytest.fixture
def golden_point():
    """span{s^-2} + H_{-1}: the worked example used throughout."""
    return reduce_point([{-2: Fraction(1)}], -1)


@pytest.fixture
def short_window(monkeypatch):
    """bilinear_window that asks for a kernel one order short."""
    real = hirota.bilinear_window

    def short(w_left, w_right, weight):
        return real(w_left, w_right, weight) - 1

    monkeypatch.setattr(hirota, "bilinear_window", short)


def refute(operands, family, k):
    """hirota.bilinear_defects with every identity failing, for psdo:
    verify_lax takes its witness path, and P^-1 takes Newton steps."""
    return None, None, [{0: MPoly.const(1, 1)}] * len(family)


def random_poly(rng: random.Random, vars: int, max_terms: int = 4,
                max_exp: int = 2) -> MPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(vars))
        terms[exp] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return MPoly(vars, terms)


def random_state(rng: random.Random, max_charge: int = 2,
                 max_part: int = 4, max_len: int = 3) -> MayaState:
    m = rng.randint(-max_charge, max_charge)
    parts = sorted((rng.randint(1, max_part) for _ in range(rng.randint(0, max_len))),
                   reverse=True)
    return MayaState(m, tuple(parts))


def random_grpoint(rng: random.Random, max_extras: int = 2,
                   span: int = 4) -> "reduce_point":
    tail = rng.randint(-3, 1)
    vectors = []
    for _ in range(rng.randint(1, max_extras)):
        lo = -tail - rng.randint(1, span)
        width = -tail - lo
        support = rng.sample(range(lo, -tail), min(rng.randint(1, 3), width))
        vec = {e: Fraction(rng.randint(-3, 3)) for e in support}
        vec[lo] = Fraction(rng.choice([1, 2, -1, 3]))
        vectors.append(vec)
    return reduce_point(vectors, tail)


def vectors(point) -> list[dict[int, Fraction]]:
    """The point's rows as Laurent vectors, s**e -> coefficient, pivots
    ascending: row key d is the exponent -tail - 1 - d."""
    top = -point.tail - 1
    return [{top - d: Fraction(n, row.den) for d, n in row.num.items()}
            for row in point.rows]


def pivots(point) -> list[int]:
    """The pivots, the lowest exponents of the point's rows, ascending."""
    return [min(vec) for vec in vectors(point)]


def shifted(vec: dict, k: int) -> dict:
    """s**k times the Laurent vector vec."""
    return {e + k: c for e, c in vec.items()}


def one_state(state: MayaState, coef=1) -> FockVector:
    """coef times one basis state."""
    return FockVector({state: Fraction(coef)})


def half(numerator: int) -> Fraction:
    """The half-integer numerator/2."""
    assert numerator % 2
    return Fraction(numerator, 2)


def evaluate(p: MPoly, point) -> Fraction:
    """Exact value of p at a rational point (one value per variable)."""
    assert len(point) == p.vars
    return sum((c * math.prod(Fraction(x) ** e for x, e in zip(point, exp))
                for exp, c in p.terms.items()), Fraction(0))


def printed_over_tau(num: MPoly, tau: MPoly, power: int) -> dict:
    """The printed form of num / tau**power, computed over tau itself: tau
    cancelled while divexact divides num, then num and the tau**p left
    both divided by content(tau)**p."""
    while power and (q := divexact(num, tau)) is not None:
        num, power = q, power - 1
    c = tau.content()**power
    return {"num": (num / c).to_json(), "den": (tau**power / c).to_json()}


def flip_signs(p: MPoly, signs) -> MPoly:
    """p with t_i replaced by signs[i-1] * t_i, each sign +1 or -1: the
    substitution read off p.terms, independent of the library's own."""
    assert len(signs) == p.vars and all(s in (1, -1) for s in signs)
    return MPoly(p.vars, {exp: c * math.prod(s**e for s, e in zip(signs, exp))
                          for exp, c in p.terms.items()})


def partitions_up_to(n: int):
    return [p for w in range(n + 1) for p in partitions_of(w)]


def product_coeff(*factors: ZSeries, order: int) -> MPoly:
    """Coefficient of z**order in the product of the factors.

    Equal to ``(f1 * f2 * ...).coeff(order)`` but forms no other order of
    the product: the factors are multiplied left to right, keeping only
    the partial orders from which the remaining factors' order ranges can
    still reach ``order``.  The exactness rule is the one ``__mul__``
    applies: a factor exact up to ``exact_hi`` leaves the product exact up
    to ``exact_hi`` plus the lowest orders of the other factors, and
    asking above that raises ExactnessError.
    """
    first = factors[0]
    assert all(f.vars == first.vars for f in factors)
    lows = [f.min_order for f in factors]
    # An empty factor has no lowest order; it bounds no other factor.
    bounds = [f.exact_hi + sum(lows[:i] + lows[i + 1:])
              for i, f in enumerate(factors)
              if f.exact_hi is not None and None not in lows[:i] + lows[i + 1:]]
    if bounds and order > min(bounds):
        raise ExactnessError(f"order {order} above guaranteed-exact bound {min(bounds)}")
    zero = MPoly.zero(first.vars)
    if None in lows:
        return zero
    highs = [max(f.coeffs) for f in factors]

    def reachable(i: int) -> tuple[int, int]:
        """Partial orders after factor i that can still reach order."""
        return order - sum(highs[i + 1:]), order - sum(lows[i + 1:])

    lo, hi = reachable(0)
    partial = {o: p for o, p in first.coeffs.items() if lo <= o <= hi}
    for i in range(1, len(factors)):
        lo, hi = reachable(i)
        out: dict[int, MPoly] = {}
        for op, pp in partial.items():
            for of, pf in factors[i].coeffs.items():
                o = op + of
                if lo <= o <= hi:
                    out[o] = pp * pf if o not in out else out[o] + pp * pf
        partial = {o: p for o, p in out.items() if not p.is_zero}
    return partial.get(order, zero)
