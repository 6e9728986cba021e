import random
from fractions import Fraction

import pytest

import tauforge.hirota as hirota
from tauforge.mpoly import MPoly
from tauforge.fock import MayaState
from tauforge.grassmann import reduce_point


@pytest.fixture
def golden_point():
    """span{s^-2} + H_{-1}: the worked example used throughout."""
    return reduce_point([{-2: Fraction(1)}], -1)


@pytest.fixture
def short_window(monkeypatch):
    """bilinear_window that asks for a kernel one order short."""
    real = hirota.bilinear_window

    def short(w_left, w_right, weight):
        zmin, kmax = real(w_left, w_right, weight)
        return zmin, kmax - 1

    monkeypatch.setattr(hirota, "bilinear_window", short)


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
