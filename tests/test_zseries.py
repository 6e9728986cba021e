import random

import pytest

from tauforge.mpoly import MPoly
from tauforge.zseries import ExactnessError, ZSeries

from conftest import product_coeff, random_poly


def laurent(vars, mapping):
    return ZSeries(vars, {o: MPoly.const(vars, c) for o, c in mapping.items()})


def truncated(s, hi):
    """The exact series s with every order above hi forgotten, as a cut kernel is."""
    return ZSeries(s.vars, {o: p for o, p in s.coeffs.items() if o <= hi}, hi)


def test_laurent_difference_of_squares():
    a = laurent(1, {-1: 1, 1: 1})
    b = laurent(1, {-1: 1, 1: -1})
    assert a * b == laurent(1, {-2: 1, 2: -1})


def test_poly_coefficients_multiply():
    t1 = MPoly.variable(1, 1)
    s = ZSeries(1, {0: t1, -1: MPoly.const(1, 1)})
    sq = s * s
    assert sq.coeff(0) == t1**2
    assert sq.coeff(-1) == t1 * 2
    assert sq.coeff(-2) == MPoly.const(1, 1)


def test_exact_window_shrinks_in_products():
    full = laurent(1, {-2: 1, 0: 3})
    cut = truncated(laurent(1, {0: 1, 1: 1, 2: 1}), 2)
    prod = full * cut
    assert prod.exact_hi == 0  # unknown orders above 2 meet the z^-2 term
    assert prod.coeff(0) == MPoly.const(1, 3) + MPoly.const(1, 1)
    with pytest.raises(ExactnessError):
        prod.coeff(1)


def test_convolution_within_window():
    rng = random.Random(31)
    for _ in range(20):
        a = ZSeries(2, {rng.randint(-3, 3): random_poly(rng, 2) for _ in range(3)})
        b = ZSeries(2, {rng.randint(-3, 3): random_poly(rng, 2) for _ in range(3)})
        prod = a * b
        for order in range(-6, 7):
            direct = MPoly.zero(2)
            for i in range(-3, 4):
                direct = direct + a.coeff(i) * b.coeff(order - i)
            assert prod.coeff(order) == direct


def test_product_coeff_matches_chained_mul():
    # differential check against the full product: same coefficient on
    # every order of the window, and ExactnessError on exactly the orders
    # where the chained product's own guard refuses to answer
    rng = random.Random(47)
    answered = refused = 0
    for _ in range(80):
        factors = []
        for _ in range(rng.choice((2, 3))):
            s = ZSeries(2, {rng.randint(-3, 3): random_poly(rng, 2)
                            for _ in range(rng.randint(0, 3))})
            if rng.random() < 0.5:
                s = truncated(s, rng.randint(-2, 3))
            factors.append(s)
        chained = factors[0]
        for f in factors[1:]:
            chained = chained * f
        for order in range(-10, 11):
            try:
                want = chained.coeff(order)
            except ExactnessError:
                with pytest.raises(ExactnessError):
                    product_coeff(*factors, order=order)
                refused += 1
            else:
                assert product_coeff(*factors, order=order) == want
                answered += 1
    assert answered and refused


@pytest.mark.parametrize("vars,i", [(1, 1), (3, 2), (3, 3)])
def test_product_guard_bit_raises(vars, i):
    # t_i**(2**14) at z**0 squares to t_i**(2**15), out of range, at z**0
    big = MPoly(vars, {tuple(2**14 if j == i else 0 for j in range(1, vars + 1)): 1})
    s = ZSeries(vars, {0: big, 1: MPoly.const(vars, 1)})
    with pytest.raises(ArithmeticError, match="reaches"):
        s * s


def test_product_coeff_single_factor_and_guard():
    cut = truncated(laurent(1, {-1: 2, 0: 1, 1: 4}), 0)
    assert product_coeff(cut, order=-1) == MPoly.const(1, 2)
    with pytest.raises(ExactnessError):
        product_coeff(cut, order=1)
    assert issubclass(ExactnessError, ArithmeticError)
