import math
import random
import re
from fractions import Fraction as F

import pytest

import tauforge.schur as schur
from tauforge.mpoly import MPoly
from tauforge.zseries import ExactnessError, ZSeries
from tauforge.schur import (ChargedPoly, DomainError, Partition,
                            bilinear_window, elementary_schur, hall_product,
                            miwa_shift, partitions_of, schur_expand,
                            schur_of_partition, xi_series)

from conftest import flip_signs, partitions_up_to, random_poly


def conjugate(lam):
    """The conjugate partition: its parts are the column lengths of lam."""
    return Partition(tuple(sum(1 for p in lam.parts if p > i)
                           for i in range(lam.parts[0] if lam.parts else 0)))


def exp_series_oracle(D: int, order: int) -> ZSeries:
    """exp(sum t_i z^i) expanded term by term, independent of the recurrence."""
    result = ZSeries(D, {0: MPoly.const(D, 1)})
    for i in range(1, order + 1):
        # exp(t_i z^i) = sum_j t_i^j z^(i j) / j!, cut at order
        factor = {i * j: MPoly.variable(D, i) ** j / math.factorial(j)
                  for j in range(order // i + 1)}
        result = result * ZSeries(D, factor)
    return ZSeries(D, {o: p for o, p in result.coeffs.items() if o <= order}, order)


class TestElementarySchur:
    def test_negative_is_zero(self):
        assert elementary_schur(-1, 1).is_zero

    def test_zero_is_one(self):
        assert elementary_schur(0, 1) == MPoly.const(1, 1)

    def test_s3(self):
        D = 3
        t1, t2, t3 = (MPoly.variable(D, i) for i in (1, 2, 3))
        assert elementary_schur(3, D) == t3 + t1 * t2 + t1**3 / 6

    def test_matches_exponential_oracle(self):
        D = 8
        oracle = exp_series_oracle(D, 8)
        for i in range(9):
            assert elementary_schur(i, D) == oracle.coeff(i), i

    def test_t1_derivative_lowers_index(self):
        D = 8
        for i in range(1, 9):
            assert elementary_schur(i, D).differentiate(1) == \
                elementary_schur(i - 1, D)

    def test_rejects_small_var_count(self):
        with pytest.raises(DomainError):
            elementary_schur(5, 4)

    def test_weighted_degree(self):
        for i in range(1, 7):
            assert elementary_schur(i, 8).wdeg() == i


class TestPartitionSchur:
    def test_empty(self):
        assert schur_of_partition(Partition(), 1) == MPoly.const(1, 1)

    def test_single_box(self):
        assert schur_of_partition(Partition((1,)), 2) == MPoly.variable(2, 1)

    def test_column_two(self):
        D = 2
        t1, t2 = MPoly.variable(D, 1), MPoly.variable(D, 2)
        assert schur_of_partition(Partition((1, 1)), D) == t1**2 / 2 - t2

    def test_row_shape_is_elementary(self):
        for n in range(1, 7):
            assert schur_of_partition(Partition((n,)), 8) == \
                elementary_schur(n, 8)

    def test_conjugation_symmetry_sign_plus_one(self):
        # flipping even-indexed times sends S_lambda to its conjugate,
        # with stable sign +1
        D = 8
        signs = [(-1) ** i for i in range(D)]
        for lam in partitions_up_to(6):
            direct = schur_of_partition(lam, D)
            conj = schur_of_partition(conjugate(lam), D)
            assert flip_signs(conj, signs) == direct, lam

    def test_rejects_small_var_count(self):
        # the hook rule names the shape; elementary_schur would name S_4
        with pytest.raises(DomainError, match=re.escape("need D >= 4 for (3,1), got 3")):
            schur_of_partition(Partition((3, 1)), 3)

    @staticmethod
    def hook(lam):
        return max(lam.parts[0] + len(lam) - 1 if lam.parts else 0, 1)

    def test_hook_many_variables_are_enough(self):
        # Jacobi-Trudi reads no S_i above the hook lambda_1 + len - 1, so
        # S_lambda built there is the one built at the weight
        for lam in partitions_up_to(8):
            at_hook = schur_of_partition(lam, self.hook(lam))
            weight = max(sum(lam.parts), 1)
            assert at_hook.embed(weight) == schur_of_partition(lam, weight), lam

    def test_rejects_one_below_the_hook(self):
        # the rule itself, not a later refusal of some S_i
        for lam in partitions_up_to(8):
            hook = self.hook(lam)
            with pytest.raises(DomainError, match=re.escape(f"need D >= {hook} for {lam},")):
                schur_of_partition(lam, hook - 1)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_partition_counts(self):
        assert [len(partitions_of(n)) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]


class TestMiwaShift:
    def test_single_time(self):
        D = 2
        t2 = MPoly.variable(D, 2)
        s = miwa_shift(t2, -1, 2)
        assert s.coeff(0) == t2
        assert s.coeff(-2) == MPoly.const(D, -1) * F(1, 2)
        assert s.coeff(-1).is_zero

    def test_square(self):
        D = 1
        t1 = MPoly.variable(D, 1)
        s = miwa_shift(t1**2, -1, 2)
        assert s.coeff(0) == t1**2
        assert s.coeff(-1) == t1 * -2
        assert s.coeff(-2) == MPoly.const(D, 1)

    def test_cancellation_in_s2(self):
        D = 2
        p = elementary_schur(2, D)
        s = miwa_shift(p, -1, 2)
        assert s.coeff(0) == p
        assert s.coeff(-1) == -MPoly.variable(D, 1)
        assert s.coeff(-2).is_zero  # the two z^-2 contributions cancel

    def test_plus_shift_reinforces(self):
        D = 2
        s = miwa_shift(elementary_schur(2, D), +1, 2)
        assert s.coeff(-2) == MPoly.const(D, 1)

    def test_constant_term_recovers_input(self):
        rng = random.Random(3)
        for _ in range(20):
            p = random_poly(rng, 3)
            s = miwa_shift(p, -1, p.wdeg())
            assert s.coeff(0) == p
            assert s.min_order is None or s.min_order >= -p.wdeg()

    @pytest.mark.parametrize("sign", [1, -1])
    def test_coefficients_are_canonical(self, sign):
        # each derivative enters its order's sum unreduced, so the sum alone
        # must leave every coefficient in lowest terms, order 1's one
        # derivative (t_1^2 / 2 -> 2 t_1 / 2) included
        rng = random.Random(40 + sign)
        t1, t2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        polys = [t1**2 / 2, (t1**3 * 3 + t2 * 6) / 5, t1 * t2 * F(4, 3)]
        polys += [weighted_poly(rng, rng.randint(1, 6), rng.randint(1, 8))
                  * F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(40)]
        for p in polys:
            for order, c in miwa_shift(p, sign, p.wdeg()).coeffs.items():
                assert c.den > 0 and 0 not in c.num.values()
                assert math.gcd(c.den, *c.num.values()) == 1, (p, order)
                assert c == MPoly(c.vars, dict(c.terms))


def weighted_poly(rng: random.Random, vars: int, weight: int) -> MPoly:
    """A seeded polynomial in vars variables of weighted degree at most weight."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        budget = rng.randint(0, weight)
        exp = [0] * vars
        for i in range(vars, 0, -1):
            exp[i - 1] = rng.randint(0, budget // i)
            budget -= i * exp[i - 1]
        terms[tuple(exp)] = F(rng.randint(-5, 5), rng.randint(1, 4))
    return MPoly(vars, terms)


class TestMiwaShiftOracle:
    """miwa_shift against SymPy substituting t_i -> t_i + sign * z**-i / i
    and expanding, compared coefficient by coefficient in z."""

    @staticmethod
    def to_sympy(sp, symbols, p: MPoly):
        return sp.Add(*(sp.Rational(c.numerator, c.denominator)
                        * sp.Mul(*(t**e for t, e in zip(symbols, exp)))
                        for exp, c in p.terms.items()))

    def check(self, sp, p: MPoly, sign: int):
        ts = sp.symbols(f"t1:{p.vars + 1}")
        w = sp.Symbol("w")  # z**-1
        shifted = sp.expand(self.to_sympy(sp, ts, p).subs(
            {t: t + sp.Rational(sign, i) * w**i for i, t in enumerate(ts, start=1)},
            simultaneous=True))
        want = {-n: c for (n,), c in sp.Poly(shifted, w).as_dict().items()}
        got = miwa_shift(p, sign, p.wdeg())
        assert got.exact_hi is None and got.vars == p.vars
        assert sorted(got.coeffs) == sorted(want)
        for order, c in want.items():
            assert sp.expand(self.to_sympy(sp, ts, got.coeff(order)) - c) == 0

    @pytest.mark.parametrize("sign", [1, -1])
    def test_seeded_polynomials(self, sign):
        sp = pytest.importorskip("sympy")
        rng = random.Random(20 + sign)
        for _ in range(40):
            self.check(sp, weighted_poly(rng, rng.randint(1, 6), rng.randint(0, 8)), sign)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_edges(self, sign):
        sp = pytest.importorskip("sympy")
        t1, t2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        for p in (MPoly.zero(3), MPoly.const(0, F(-3, 4)),
                  (t1**2 * t2 - t2 / 3).embed(6)):  # weight 4 in 6 variables
            self.check(sp, p, sign)


class TestKernel:
    """The one-sided kernel exp(+-xi(t, z)) = sum_j S_j(+-t) z**j."""

    def test_order_zero(self):
        for sign in (1, -1):
            assert xi_series(2, 0, sign).coeff(0) == MPoly.const(2, 1)

    def test_order_one(self):
        t1 = MPoly.variable(2, 1)
        assert xi_series(2, 1, 1).coeff(1) == t1
        assert xi_series(2, 1, -1).coeff(1) == -t1

    def test_order_two(self):
        D = 3
        t1, t2 = MPoly.variable(D, 1), MPoly.variable(D, 2)
        assert xi_series(D, 2, 1).coeff(2) == t1**2 / 2 + t2
        assert xi_series(D, 2, -1).coeff(2) == t1**2 / 2 - t2

    def test_matches_oracle_and_inverts(self):
        # exp(xi) term by term, and exp(xi) exp(-xi) = 1 to the cut
        D = 6
        plus, minus = xi_series(D, D, 1), xi_series(D, D, -1)
        assert plus == exp_series_oracle(D, D)
        product = plus * minus
        assert product.exact_hi == D
        assert {o: p for o, p in product.coeffs.items()} == {0: MPoly.const(D, 1)}

    def test_minus_sign_flips_every_time(self):
        # S_j(-t), from the recursion with the sign, is S_j(t) at -t
        D = 8
        plus, minus = xi_series(D, D, 1), xi_series(D, D, -1)
        for j in range(D + 1):
            assert minus.coeff(j) == flip_signs(plus.coeff(j), [-1] * D), j

    def test_order_above_vars_rejected(self):
        with pytest.raises(DomainError):
            xi_series(3, 4, 1)

    def test_truncation_is_tracked(self):
        k = xi_series(3, 2, -1)
        with pytest.raises(ExactnessError):
            k.coeff(3)

    def test_window_rule(self):
        assert bilinear_window(2, 3, 1) >= 2 + 3 - 1 - 1


class TestHall:
    def test_schur_orthonormal(self):
        D = 8
        shapes = partitions_up_to(5)
        mats = {lam: schur_of_partition(lam, D) for lam in shapes}
        for lam in shapes:
            for mu in shapes:
                expect = F(1) if lam == mu else F(0)
                assert hall_product(mats[lam], mats[mu]) == expect

    def test_schur_expand_roundtrip(self):
        rng = random.Random(11)
        for _ in range(10):
            p = random_poly(rng, 3, max_terms=3, max_exp=2)
            expansion = schur_expand(p, p.wdeg())
            rebuilt = MPoly.zero(max(p.vars, p.wdeg(), 1))
            for lam, coef in expansion.items():
                rebuilt = rebuilt + schur_of_partition(lam, rebuilt.vars) * coef
            assert rebuilt == p.embed(rebuilt.vars)

    def test_known_expansion(self):
        t1 = MPoly.variable(1, 1)
        for weight in (2, 4):  # a weight above wdeg adds only zero coefficients
            expansion = schur_expand(t1**2, weight)
            assert expansion == {Partition((2,)): F(1), Partition((1, 1)): F(1)}

    def test_weight_below_wdeg_raises(self):
        # the shapes stop at the weight given, so the top terms are lost
        # and the reproduction check fails
        t1, t2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        for p, weight in [(t1**3 + t1, 2), (t1 * t2, 2), (t2, 0)]:
            with pytest.raises(ArithmeticError):
                schur_expand(p, weight)

    def test_wrong_hall_weight_raises(self, monkeypatch):
        real = schur._hall_weights

        def doubled(shape, D):
            weights, den = real(shape, D)
            if shape == Partition((2,)):
                return tuple((key, 2 * h) for key, h in weights), den
            return weights, den

        monkeypatch.setattr(schur, "_hall_weights", doubled)
        t1 = MPoly.variable(1, 1)
        with pytest.raises(ArithmeticError):
            schur_expand(t1**2, 2)
        assert schur_expand(t1, 1) == {Partition((1,)): F(1)}

    def test_shape_table_is_immutable(self):
        shapes = partitions_of(4)
        assert isinstance(shapes, tuple)
        assert partitions_of(4) is shapes


def test_charged_poly_json():
    cp = ChargedPoly(MPoly.variable(2, 1), -3)
    back = ChargedPoly.from_json(cp.to_json())
    assert back.poly == cp.poly and back.charge == -3
