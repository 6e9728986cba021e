import math
import random
import re
from fractions import Fraction as F

import pytest

from tauforge.mpoly import (_BITS, Echelon, MPoly, PolyError, _grlex_key, _guard, _pack,
                            _unpack, divexact, dot, format_rat, lincomb, parse_rat)

from conftest import evaluate, flip_signs, random_poly


def V(vars, i):
    return MPoly.variable(vars, i)


class TestRationals:
    @pytest.mark.parametrize("text,num,den", [
        ("3", 3, 1), ("-7/2", -7, 2), ("0", 0, 1), ("4/6", 2, 3),
    ])
    def test_parse(self, text, num, den):
        q = parse_rat(text)
        assert (q.numerator, q.denominator) == (num, den)

    def test_format_roundtrip(self):
        rng = random.Random(0)
        for _ in range(50):
            q = F(rng.randint(-50, 50), rng.randint(1, 20))
            assert parse_rat(format_rat(q)) == q

    @pytest.mark.parametrize("bad", ["1/0", "-3/0", 2, 1.5, None, ["1"],
                                     "2.5", "1e5", "1_000", "\u0661"])
    def test_non_string_or_zero_denominator_is_value_error(self, bad):
        with pytest.raises(ValueError):
            parse_rat(bad)

    def test_same_strings_as_the_fraction_parser(self):
        # the same strings accepted, with equal values, and the same
        # ValueError on the rest, as parsing through Fraction(str)
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        chars = list("0123456789+-/ ._e") + ["\t", "\u00a0", "\u0661", "\u0966", "\uff11"]
        digits = st.text(st.sampled_from(list("0001234567890_") + ["\u0661"]), max_size=4)
        # sign, digits, separator, digits, padding: near the grammar
        shaped = st.tuples(st.sampled_from(["", "+", "-", " ", "+-", "e"]), digits,
                           st.sampled_from(["", "/", "/", "/", "//", ".", "e", "/-"]),
                           digits, st.sampled_from(["", " ", "\t", "."])).map("".join)

        @hyp.settings(max_examples=3000, deadline=None, database=None, derandomize=True)
        @hyp.example("7/0")
        @hyp.example(" -0/00 ")
        @hyp.example("+12/08")
        @hyp.example("-3/4")
        @hyp.given(st.one_of(st.text(st.sampled_from(chars), max_size=9), shaped))
        def check(text):
            try:
                want = fraction_parse_rat(text)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    parse_rat(text)
                assert str(got.value) == str(exc)
            else:
                got = parse_rat(text)
                assert type(got) is F and got == want

        check()

    def test_to_json_prints_each_coefficient_in_lowest_terms(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        coefs = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**4))
        exps = st.tuples(st.integers(0, 3), st.integers(0, 3))

        @hyp.settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @hyp.given(st.dictionaries(exps, coefs, max_size=6))
        def check(terms):
            p = MPoly(2, terms)
            printed = {tuple(t["exp"]): t["coef"] for t in p.to_json()["terms"]}
            assert printed == {e: format_rat(F(c)) for e, c in terms.items() if c}

        check()

    def test_to_json_matches_a_grlex_sort(self):
        # term order and coefficient strings of the writer against a sort
        # of the Fraction terms by _grlex_key, in 0 to 8 variables, over
        # den 1 and over den > 1
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        seen = set()

        def polys(vars):
            exps = st.tuples(*[st.integers(0, 3)] * vars)
            coefs = st.one_of(st.integers(-50, 50).map(F),
                              st.builds(F, st.integers(-50, 50), st.integers(1, 12)))
            return st.dictionaries(exps, coefs, max_size=8).map(
                lambda terms: MPoly(vars, terms))

        @hyp.settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @hyp.given(st.integers(0, 8).flatmap(polys))
        def check(p):
            seen.add(p.den == 1)
            ordered = sorted(p.terms.items(), key=lambda item: _grlex_key(item[0]),
                             reverse=True)
            assert p.to_json() == {"vars": p.vars, "terms": [
                {"exp": list(e), "coef": format_rat(c)} for e, c in ordered]}

        check()
        assert seen == {True, False}


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def fraction_parse_rat(text):
    """parse_rat as it was, through Fraction(str) after the same grammar."""
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text.strip()):
        raise ValueError(f'rational must be a "p/q" string, got {text!r}')
    try:
        return F(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class TestRingOps:
    def test_difference_of_squares(self):
        t1, t2 = V(2, 1), V(2, 2)
        assert (t1 + t2) * (t1 - t2) == t1**2 - t2**2

    def test_rational_add(self):
        t1 = V(1, 1)
        assert t1 * F(1, 2) + t1 * F(1, 3) == t1 * F(5, 6)

    def test_varcount_mismatch(self):
        with pytest.raises(PolyError):
            V(1, 1) + V(2, 1)

    def test_zero_scalar_division(self):
        with pytest.raises(ZeroDivisionError):
            V(1, 1) / 0

    def test_ring_axioms_random(self):
        rng = random.Random(17)
        for _ in range(40):
            a = random_poly(rng, 3)
            b = random_poly(rng, 3)
            c = random_poly(rng, 3)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a - a == MPoly.zero(3)

    def test_pow(self):
        t1 = V(1, 1)
        assert (t1 + 1) ** 3 == t1**3 + 3 * t1**2 + 3 * t1 + 1
        assert t1**0 == MPoly.const(1, 1)


class TestCalculus:
    def test_differentiate_examples(self):
        t1, t2 = V(3, 1), V(3, 2)
        p = t1**2 / 2 + t2
        assert p.differentiate(1) == t1
        assert p.differentiate(2) == MPoly.const(3, 1)
        assert p.differentiate(3).is_zero

    def test_differentiate_range(self):
        with pytest.raises(PolyError):
            V(2, 1).differentiate(3)

    def test_evaluate_example(self):
        p = V(2, 1)**2 / 2 + V(2, 2)
        assert evaluate(p, [F(2), F(1)]) == 3

    def test_evaluate_is_ring_hom(self):
        rng = random.Random(5)
        for _ in range(25):
            a = random_poly(rng, 2)
            b = random_poly(rng, 2)
            pt = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)]
            assert evaluate(a * b, pt) == evaluate(a, pt) * evaluate(b, pt)
            assert evaluate(a + b, pt) == evaluate(a, pt) + evaluate(b, pt)


class TestStructure:
    def test_wdeg_weights_by_index(self):
        t1, t3 = V(3, 1), V(3, 3)
        assert (t1**2).wdeg() == 2
        assert t3.wdeg() == 3
        assert (t1 * t3).wdeg() == 4
        assert MPoly.zero(3).wdeg() == 0

    def test_content_and_leading(self):
        p = V(2, 1) * 4 + V(2, 2) * 6
        assert p.content() == 2
        p = V(2, 1) * -4 + MPoly.const(2, 6)
        assert p.content() == -2  # sign follows the graded-lex leading term

    def test_embed_and_scale(self):
        p = V(2, 1) * V(2, 2)
        q = p.embed(4, 2)
        assert q == V(4, 3) * V(4, 4)
        flipped = flip_signs(p, [1, -1])
        assert flipped == -p


class TestDivision:
    def test_exact_quotients(self):
        x, y = V(2, 1), V(2, 2)
        assert divexact(x**2 - y**2, x + y) == x - y
        assert divexact(x**3 - 1, x**2 + x + 1) == x - 1
        assert divexact(MPoly.zero(2), x) == MPoly.zero(2)

    def test_non_divisible(self):
        x, y = V(2, 1), V(2, 2)
        assert divexact(x**2 + y, x + y) is None
        assert divexact(x, x * y) is None

    def test_random_products_divide_back(self):
        rng = random.Random(23)
        for _ in range(30):
            a = random_poly(rng, 2)
            b = random_poly(rng, 2)
            if a.is_zero or b.is_zero:
                continue
            assert divexact(a * b, b) == a

    def test_monomial_test_does_not_borrow_across_fields(self):
        t1, t2 = V(2, 1), V(2, 2)
        assert divexact(t2, t1) is None
        assert divexact(t1, t2) is None
        top = 2**15 - 1
        assert divexact(t1**top * t2**top, t1**top) == t2**top
        assert divexact(t1**top * t2**top, t2**top * t1) == t1**(top - 1)
        assert divexact(t2**top, t1 * t2) is None
        # a remainder key past p's exponents proves non-divisibility
        assert divexact(t1**top * t2, t2 + t1**100) is None

    def test_divisor_with_rational_content_and_negative_lead(self):
        x, y = V(2, 1), V(2, 2)
        d = (y * 2 - x * 3 + 1) * F(-5, 6)  # key order: leads with -5/3 y; content 5/6
        a = x * F(7, 4) - y**2 + F(1, 9)
        q = divexact(a * d, d)
        assert q == a
        assert_canonical(q)
        assert divexact(d, d) == MPoly.const(2, 1)
        assert divexact(d * F(3, 7), d * -2) == MPoly.const(2, F(-3, 14))

    def test_leading_coefficient_alone_proves_non_divisibility(self):
        # every monomial step succeeds, but 2 does not divide the integer
        # leading numerator 1 of x + 1 over the primitive divisor 2x + 1
        x = V(1, 1)
        assert divexact(x + 1, x * 2 + 1) is None
        assert divexact((x + 1) / 5, (x * 2 + 1) * F(3, 7)) is None
        assert divexact(x * 2 + 1, x + 1) is None

    def test_constants_in_no_variables(self):
        c = MPoly.const
        assert divexact(c(0, 6), c(0, F(-3, 4))) == c(0, -8)
        assert divexact(c(0, F(1, 3)), c(0, 7)) == c(0, F(1, 21))
        assert divexact(MPoly.zero(0), c(0, 5)) == MPoly.zero(0)
        with pytest.raises(ZeroDivisionError):
            divexact(c(0, 1), MPoly.zero(0))

    def test_products_divide_back_and_shifted_ones_do_not(self):
        rng = random.Random(29)
        cs = [F(1), F(-1, 2), F(7, 3)]
        for _ in range(40):
            a = random_poly(rng, 3, max_terms=12, max_exp=5)
            b = random_poly(rng, 3, max_terms=20, max_exp=4)
            if a.is_zero or not b.max_var_used():
                continue
            ab = a * b
            assert divexact(ab, b) == a
            for c in cs:
                assert divexact(ab + c, b) is None


class TestPacking:
    """Exponent vectors are packed ints; a product that would reach a guard
    bit raises, and no exponent outside 0..2**15 - 1 is ever stored."""

    def test_roundtrip(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @hyp.given(st.lists(st.integers(0, 2**15 - 1), max_size=64).map(tuple))
        def check(exp):
            assert _unpack(_pack(exp), len(exp)) == exp

        check()

    @pytest.mark.parametrize("vars,i", [(1, 1), (3, 2), (3, 3)])
    def test_guard_bit_raises(self, vars, i):
        big = MPoly(vars, {tuple(2**14 if j == i else 0 for j in range(1, vars + 1)): 1})
        with pytest.raises(ArithmeticError):
            big * big
        with pytest.raises(ArithmeticError):
            big**2

    @pytest.mark.parametrize("vars,i", [(1, 1), (3, 2), (3, 3)])
    def test_below_the_guard_bit(self, vars, i):
        def power(e):
            return MPoly(vars, {tuple(e if j == i else 0 for j in range(1, vars + 1)): 1})

        top = 2**15 - 1
        assert power(2**14 - 1) * power(2**14) == power(top)
        # every field at 2**15 - 1 at once: the largest key, no carry
        low, high = MPoly(vars, {(2**14 - 1,) * vars: 1}), MPoly(vars, {(2**14,) * vars: 1})
        assert dict((low * high).terms) == {(top,) * vars: 1}

    @pytest.mark.parametrize("exp", [(2**15,), (10**30,), (-1,), (0, 2**15)])
    def test_constructor_refuses_out_of_range(self, exp):
        with pytest.raises(PolyError):
            MPoly(len(exp), {exp: 1})
        with pytest.raises(ValueError):
            MPoly.from_json({"vars": len(exp),
                             "terms": [{"exp": list(exp), "coef": "1"}]})

    def test_embed_matches_tuple_shift(self):
        rng = random.Random(31)
        for D in range(1, 7):
            for _ in range(10):
                p = random_poly(rng, D, max_terms=6, max_exp=3)
                shifted = MPoly(2 * D, {(0,) * D + e: c for e, c in p.terms.items()})
                padded = MPoly(2 * D, {e + (0,) * D: c for e, c in p.terms.items()})
                assert p.embed(2 * D, D) == shifted
                assert p.embed(2 * D) == padded
                used = p.max_var_used()
                assert p.embed(2 * D, D).max_var_used() == (D + used if used else 0)


class TestSerialization:
    def test_json_roundtrip(self):
        rng = random.Random(9)
        for _ in range(20):
            p = random_poly(rng, 3)
            assert MPoly.from_json(p.to_json()) == p

    def test_json_shape(self):
        p = V(2, 1) * F(1, 2)
        assert p.to_json() == {"vars": 2,
                               "terms": [{"exp": [1, 0], "coef": "1/2"}]}

    def test_printing_graded_lex(self):
        t1, t2 = V(2, 1), V(2, 2)
        p = t2 + t1**2 / 2 - 1
        assert str(p) == "1/2*t1^2 + t2 - 1"


# -- differential oracle: SymPy Poly over QQ ---------------------------------

ORACLE_VARS = 3


def _oracle():
    """Hypothesis and SymPy, skipping the calling test when either is missing."""
    return pytest.importorskip("hypothesis"), pytest.importorskip("sympy")


def _settings(hyp):
    return hyp.settings(max_examples=60, deadline=None, database=None,
                        derandomize=True)


def _rats(st):
    # few distinct denominators, so numerators and denominators of
    # different operands often share factors that must cancel
    return st.builds(F, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 9, 12]))


def _polys(st, vars=ORACLE_VARS):
    """Sparse polynomials with small rational coefficients, zero included."""
    exps = st.tuples(*[st.integers(0, 3)] * vars)
    return st.dictionaries(exps, _rats(st), max_size=6).map(
        lambda terms: MPoly(vars, terms))


def _to_sympy(sp, p: MPoly):
    gens = sp.symbols(f"t1:{p.vars + 1}")
    return sp.Poly.from_dict({e: sp.Rational(c.numerator, c.denominator)
                              for e, c in p.terms.items()}, *gens, domain=sp.QQ)


def _coeffs(q) -> dict:
    return {m: F(int(c.p), int(c.q)) for m, c in q.as_dict().items()}


def assert_canonical(p: MPoly) -> None:
    """Nonzero int numerators over a positive denominator prime to them all,
    keyed by packed exponents of p.vars fields with no guard bit set."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.num.values())
    for k in p.num:
        assert type(k) is int and k >= 0
        assert not k & _guard(p.vars) and not k >> (_BITS * p.vars)
        assert _pack(_unpack(k, p.vars)) == k
    assert math.gcd(p.den, *p.num.values()) == 1


def assert_matches(p: MPoly, q) -> None:
    assert_canonical(p)
    assert dict(p.terms) == _coeffs(q)
    assert len(p.terms) == len(q.as_dict())


class TestSympyOracle:
    def test_ring_ops(self):
        hyp, sp = _oracle()
        st = hyp.strategies

        @_settings(hyp)
        @hyp.given(_polys(st), _polys(st))
        def check(a, b):
            sa, sb = _to_sympy(sp, a), _to_sympy(sp, b)
            assert_matches(a, sa)
            assert_matches(a + b, sa + sb)
            assert_matches(a - b, sa - sb)
            assert_matches(a * b, sa * sb)
            assert_matches(-a, -sa)

        check()

    def test_scalar_product(self):
        hyp, sp = _oracle()
        st = hyp.strategies

        @_settings(hyp)
        @hyp.given(_polys(st), _rats(st), st.integers(-12, 12))
        def check(a, c, n):
            sa = _to_sympy(sp, a)
            sc = sp.Rational(c.numerator, c.denominator)
            assert_matches(a * c, sa.mul_ground(sc))
            assert_matches(c * a, sa.mul_ground(sc))
            assert_matches(a * n, sa.mul_ground(n))
            if n:
                assert_matches(a * n * F(1, n), sa)
            if c:
                assert_matches(a / c, sa.mul_ground(1 / sc))

        check()

    def test_differentiate_and_embed(self):
        hyp, sp = _oracle()
        st = hyp.strategies

        @_settings(hyp)
        @hyp.given(_polys(st), st.integers(1, ORACLE_VARS), st.integers(0, 2))
        def check(a, i, offset):
            sa = _to_sympy(sp, a)
            assert_matches(a.differentiate(i), sa.diff(sa.gens[i - 1]))
            wide = ORACLE_VARS + offset
            gens = sp.symbols(f"t1:{wide + 1}")
            moved = sa.as_expr().subs({g: gens[j + offset]
                                       for j, g in enumerate(sa.gens)},
                                      simultaneous=True)
            assert_matches(a.embed(wide, offset),
                           sp.Poly(moved, *gens, domain=sp.QQ))

        check()

    def test_evaluate(self):
        hyp, sp = _oracle()
        st = hyp.strategies
        points = st.lists(_rats(st), min_size=ORACLE_VARS, max_size=ORACLE_VARS)

        @_settings(hyp)
        @hyp.given(_polys(st), points)
        def check(a, point):
            sa = _to_sympy(sp, a)
            values = [sp.Rational(v.numerator, v.denominator) for v in point]
            expected = sa.as_expr().subs(dict(zip(sa.gens, values)))
            assert evaluate(a, point) == F(int(expected.p), int(expected.q))

        check()

    def test_divexact(self):
        hyp, sp = _oracle()
        st = hyp.strategies

        @_settings(hyp)
        @hyp.given(_polys(st), _polys(st))
        def check(a, b):
            hyp.assume(not b.is_zero)
            sa, sb = _to_sympy(sp, a), _to_sympy(sp, b)
            for p, sp_p in ((a * b, sa * sb), (a, sa)):
                q = divexact(p, b)
                try:
                    expected = sp_p.exquo(sb)
                except sp.ExactQuotientFailed:
                    assert q is None
                else:
                    assert q is not None
                    assert_matches(q, expected)

        check()

    def test_equality_is_zero_difference(self):
        hyp, sp = _oracle()
        st = hyp.strategies

        @_settings(hyp)
        @hyp.given(_polys(st), _polys(st), _polys(st))
        def check(a, b, c):
            assert (a == b) == (a - b).is_zero
            back = (a + c) - c
            assert back == a and (back - a).is_zero
            assert_canonical(back)
            assert (a * c == b * c) == (a * c - b * c).is_zero

        check()


class TestDot:
    """dot(vars, pairs) is sum a*b, one pair at a time or all at once."""

    def test_matches_repeated_addition(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        # the lists draw no pair and pairs with a zero factor, _polys
        # unlike denominators; cancel appends each pair negated, so the
        # whole sum must cancel to zero
        @_settings(hyp)
        @hyp.given(st.lists(st.tuples(_polys(st), _polys(st)), max_size=4), st.booleans())
        def check(pairs, cancel):
            if cancel:
                pairs = pairs + [(-a, b) for a, b in pairs]
            want = MPoly.zero(ORACLE_VARS)
            for a, b in pairs:
                want = want + a * b
            got = dot(ORACLE_VARS, pairs)
            assert_canonical(got)
            assert got == want
            assert got.is_zero or not cancel

        check()

    def test_other_variable_count_raises(self):
        a, b = V(2, 1), V(3, 1)
        for pairs in ([(a, b)], [(b, a)], [(a, a), (b, b)], [(MPoly.zero(3), a)]):
            with pytest.raises(PolyError):
                dot(2, pairs)


class TestLincomb:
    """lincomb(vars, pairs) is sum c*p, checked against Fraction arithmetic."""

    def test_matches_fraction_arithmetic(self):
        rng = random.Random(30)
        for _ in range(300):
            pairs = []
            for _ in range(rng.randint(0, 5)):
                p = random_poly(rng, 3) if rng.random() < 0.8 else MPoly.zero(3)
                c = rng.choice([0, rng.randint(-6, 6), F(rng.randint(-6, 6), rng.randint(1, 9))])
                pairs.append((p, c))
            cancel = rng.random() < 0.25
            if cancel:
                pairs += [(p, -c) for p, c in pairs]
            want = {}
            for p, c in pairs:
                for exp, coef in p.terms.items():
                    want[exp] = want.get(exp, F(0)) + coef * c
            got = lincomb(3, pairs)
            assert_canonical(got)
            assert dict(got.terms) == {e: v for e, v in want.items() if v}
            assert got.is_zero or not cancel

    def test_one_integer_factor_is_canonical(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        # scalar p * c skips the closing gcd pass, so the per-pair cancel
        # alone must leave the result canonical; the integers share factors
        # with the denominators _polys draws, and pairs that add nothing,
        # one with a non-integer factor, may stand around the live one
        @_settings(hyp)
        @hyp.given(_polys(st),
                   st.one_of(st.sampled_from([0, 1, -1]), st.integers(-72, 72),
                             st.integers(-72, 72).map(F)),
                   st.booleans())
        def check(p, c, pad):
            idle = [(MPoly.zero(ORACLE_VARS), F(1, 3)), (p, 0)] if pad else []
            got = lincomb(ORACLE_VARS, idle + [(p, c)] + idle)
            assert_canonical(got)
            assert dict(got.terms) == {e: v * c for e, v in p.terms.items() if c}

        check()

    def test_no_pairs_and_zero_factors(self):
        p = random_poly(random.Random(1), 2)
        for pairs in ([], [(p, 0)], [(MPoly.zero(2), F(3, 4))], [(p, F(0)), (p, 0)]):
            assert lincomb(2, pairs) == MPoly.zero(2)

    def test_full_cancellation_is_canonical_zero(self):
        x, y = V(2, 1), V(2, 2)
        p = x * F(1, 6) + y * F(5, 4)
        got = lincomb(2, [(p, F(2, 3)), (p * 2, F(-1, 3)), (x, 0)])
        assert (got.num, got.den) == ({}, 1)

    def test_other_variable_count_raises(self):
        a, b = V(2, 1), V(3, 1)
        for pairs in ([(b, 1)], [(a, 1), (b, F(1, 2))], [(MPoly.zero(3), 1)], [(b, 0)]):
            with pytest.raises(PolyError):
                lincomb(2, pairs)


class TestPowers:
    """from_powers: one-variable polynomials keyed by exponent, from integer
    numerators over one denominator."""

    def test_round_trip_in_canonical_form(self):
        # 2/12 + -24/12 x**3 + 6/12 x**7 is 1/6 - 2 x**3 + 1/2 x**7, by
        # one gcd pass
        p = MPoly.from_powers({0: 2, 3: -24, 7: 6}, 12)
        assert_canonical(p)
        assert (p.num, p.den) == ({0: 1, 3: -12, 7: 3}, 6)
        assert MPoly.from_powers(p.num, p.den) == p
        assert p == MPoly(1, {(0,): F(1, 6), (3,): -2, (7,): F(1, 2)})
        assert MPoly.from_powers({}, 1) == MPoly.zero(1)
        assert MPoly.from_powers({2: 5}, 1).num == {2: 5}

    def test_exponents_past_the_field(self):
        # the key of x**d is d itself, so lincomb, which adds no keys,
        # is exact past the 2**15 the packed fields allow
        d = 2**16 + 5
        p = MPoly.from_powers({d: 1, 1: 6}, 2)
        q = lincomb(1, [(p, 2), (MPoly.from_powers({d: 1}, 1), F(-1, 3))])
        assert (q.num, q.den) == ({1: 18, d: 2}, 3)


def echelon_inputs(rng, count: int, vars: int = 2) -> list[MPoly]:
    """Random polynomials, every fourth a combination of earlier ones."""
    polys = []
    for case in range(count):
        if case % 4 == 3:
            p = lincomb(vars, [(q, F(rng.randint(-3, 3), rng.randint(1, 4)))
                               for q in rng.sample(polys, 2)])
        else:
            p = random_poly(rng, vars, max_terms=4)
        polys.append(p)
    return polys


class TestEchelon:
    """mpoly.Echelon, the one exact elimination: reduce and insert write a
    polynomial in the rows, and reduced() is the canonical basis."""

    def test_reduce_and_insert(self):
        rows = Echelon()
        for p in echelon_inputs(random.Random(53), 60, vars=3):
            before = dict(rows.rows)
            rest, out = rows.reduce(p)
            assert rows.rows == before
            assert set(out) <= set(before)
            assert lincomb(3, [(rest, 1), *((rows.rows[l], c) for l, c in out.items())]) == p
            assert not rest.num or max(rest.num) not in before
            rest2, out2 = rows.insert(p)
            assert rest2 == rest
            if rest.num:
                assert rows.rows == {**before, max(rest.num): rest}
                assert out2 == {**out, max(rest.num): 1}
            else:
                assert rows.rows == before and out2 == out
            assert lincomb(3, [(rows.rows[l], c) for l, c in out2.items()]) == p
        assert [max(row.num) for row in rows.rows.values()] == list(rows.rows)
        assert len(rows.rows) > 15

    def test_reduced_basis_is_canonical(self):
        rng = random.Random(59)
        for _ in range(20):
            rows = Echelon()
            polys = echelon_inputs(rng, rng.randint(1, 12))
            for p in polys:
                rows.insert(p)
            basis = rows.reduced()
            leads = [max(row.num) for row in basis]
            assert leads == sorted(rows.rows)
            for row, lead in zip(basis, leads):
                assert row.num[lead] == row.den  # monic
                assert not set(row.num) & (set(leads) - {lead})
            # the same span: every input reduces to zero on the basis,
            # whose own echelon form is itself
            again = Echelon()
            for row in basis:
                again.insert(row)
            assert all(not again.reduce(p)[0].num for p in polys)
            assert again.reduced() == basis
