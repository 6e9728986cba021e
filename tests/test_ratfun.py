import random
from fractions import Fraction as F

import pytest

import tauforge.mpoly as mpoly
from tauforge.mpoly import MPoly, PolyError, divexact
from tauforge.ratfun import RatFun, TauFrac, TauRing

from conftest import evaluate, printed_over_tau, random_poly


def V(i, vars=2):
    return MPoly.variable(vars, i)


def random_tau(rng):
    tau = MPoly.zero(2)
    while tau.is_zero:
        tau = random_poly(rng, 2)
    return tau


def random_ring(rng):
    return TauRing(random_tau(rng))


def random_element(rng, ring):
    return ring.frac(random_poly(rng, 2), rng.randint(0, 2))


def printed(num: MPoly, den: MPoly) -> dict:
    return {"num": num.to_json(), "den": den.to_json()}


class TestNormalization:
    def test_scalar_denominator(self):
        # a constant tau folds into the numerator
        f = TauRing(MPoly.const(2, -3)).frac(V(1) * 2, 2)
        assert f.to_json() == printed(V(1) * F(2, 9), MPoly.const(2, 1))

    def test_gcd_style_cancellation(self):
        f = TauRing(V(1) + V(2)).frac(V(1)**2 - V(2)**2, 1)
        assert f.to_json() == printed(V(1) - V(2), MPoly.const(2, 1))

    def test_zero_numerator(self):
        f = TauRing(V(1)).frac(MPoly.zero(2), 3)
        assert f.power == 0
        assert f.to_json() == printed(MPoly.zero(2), MPoly.const(2, 1))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            TauRing(MPoly.zero(2))

    def test_power_cancellation(self):
        # the ring never cancels; rendering cancels tau one factor at a time
        tau = V(1)**2 + V(2)
        R = TauRing(tau)
        f = R.frac(tau * V(2), 1) * R.frac(tau * 2, 1)
        assert (f.num, f.power) == (tau * tau * V(2) * 2, 2)
        assert f.to_json() == printed(V(2) * 2, MPoly.const(2, 1))
        assert repr(f) == "2*t2"
        # a part of tau^p is cancelled too: the value prints at tau^1
        g = R.frac(tau * V(2), 1) * R.frac(MPoly.const(2, 3), 1)
        assert (g.num, g.power) == (tau * V(2) * 3, 2)
        assert g.to_json() == printed(V(2) * 3, tau)
        assert repr(g) == "(3*t2) / (t1^2 + t2)"

    def test_denominator_content_and_sign(self):
        # tau^p / c has coprime integer coefficients and a positive
        # graded-lex leading coefficient; the numerator carries 1/c
        R = TauRing(V(1) * -2 + 4)
        assert R.frac(V(2) * 3, 2).to_json() == \
            printed(V(2) * F(3, 4), (V(1) - 2)**2)
        assert R.frac(V(2), 1).to_json() == printed(V(2) * F(-1, 2), V(1) - 2)

    def test_denominator_content_is_a_power_of_taus(self):
        # the ring prints over powers of tau / content(tau), which are
        # tau**p / content(tau**p) since content(tau**p) = content(tau)**p,
        # sign included (Gauss's lemma)
        rng = random.Random(31)
        for _ in range(40):
            tau = random_tau(rng)
            R = TauRing(tau)
            for p in range(5):
                c = (tau**p).content()
                assert c == tau.content()**p
                assert R.power(p) == tau**p / c

    def test_printed_form_is_canonical(self):
        # one value, one printed form: x and x at a larger power of tau
        # print alike, at the least power of tau
        rng = random.Random(29)
        cancelled = 0
        for _ in range(40):
            R = random_ring(rng)
            x = random_element(rng, R)
            shown = x.to_json()
            for j in (1, 2):
                assert TauFrac(R, x.num * R.power(j), x.power + j).to_json() == shown
            num, den = (MPoly.from_json(shown[key]) for key in ("num", "den"))
            assert (num * R.power(x.power) - x.num * den).is_zero
            if den.max_var_used():
                assert divexact(num, R.tau) is None
            else:
                cancelled += x.power > 0
        assert cancelled  # a constant tau, or a numerator tau divides


class TestPrimitiveTau:
    """The ring holds tau / content(tau) and prints over its powers."""

    def test_prints_as_over_tau_itself(self):
        # taus whose content is negative and no integer, numerators with and
        # without factors of tau, powers 0 to 4
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
        ints = st.dictionaries(exps, st.integers(-6, 6), min_size=1, max_size=4)
        rats = st.dictionaries(exps, st.builds(F, st.integers(-9, 9), st.integers(1, 4)),
                               max_size=4)
        scales = st.builds(F, st.integers(-9, -1), st.integers(2, 9)).filter(
            lambda c: c.denominator > 1)

        @hyp.settings(max_examples=150, deadline=None, database=None, derandomize=True)
        @hyp.given(ints.map(lambda t: MPoly(2, t)).filter(lambda p: not p.is_zero),
                   scales, rats, st.integers(0, 2), st.integers(0, 4))
        def check(base, c, terms, j, p):
            tau = base / base.content() * c
            assert tau.content() == c
            num = MPoly(2, terms) * tau**j
            want = printed_over_tau(num, tau, p)
            assert TauRing(tau).frac(num, p).to_json() == want
            assert RatFun(num, tau, p).to_json() == want

        check()

    def test_rings_over_scaled_taus_mix(self):
        # tau and c*tau have one primitive part, so elements of their rings
        # compare equal by value and sum together
        tau, c = V(1)**2 + V(2), F(-2, 3)
        R, S = TauRing(tau), TauRing(tau * c)
        assert R.tau == S.tau
        x, y = R.frac(V(1), 2), S.frac(V(1) * c**2, 2)  # num / tau**2 both
        assert x == y and y == x and not x.equals(S.frac(V(1), 2))
        assert R.sum([(1, x, S.one), (-1, y, R.one)]).is_zero
        assert (x + y).equals(S.frac(V(1) * c**2 * 2, 2))

    def test_printing_divides_no_content(self, monkeypatch):
        # a non-primitive tau prints with no scalar division or scaling, and
        # each power of the ring's tau is formed once
        R = TauRing(V(1)**2 * F(-2, 3) + V(2) * F(4, 9))
        xs = [R.frac(V(2) + p, p) for p in range(5)]
        calls = {"/": 0, "lincomb": 0, "dot": 0}

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr(MPoly, "__truediv__", counted("/", MPoly.__truediv__))
        monkeypatch.setattr(mpoly, "lincomb", counted("lincomb", mpoly.lincomb))
        monkeypatch.setattr(mpoly, "dot", counted("dot", mpoly.dot))
        shown = [[x.to_json() for x in xs] for _ in range(2)]
        assert calls == {"/": 0, "lincomb": 0, "dot": 3}  # tau**2, tau**3, tau**4
        assert shown[0] == shown[1]
        assert all(RatFun._of(x).den is R.power(x.power) for x in xs)


class TestArithmetic:
    def test_common_denominator_add(self):
        tau = V(1)**2 + V(2)
        R = TauRing(tau)
        a = R.frac(V(1), 1)
        b = R.frac(V(2), 1)
        s = a + b
        assert s.equals(R.frac(V(1) + V(2), 1))
        assert (s.num, s.power) == (V(1) + V(2), 1)  # no degree explosion

    def test_field_identities_random(self):
        # ring axioms, with tau and the powers lifted and added as needed
        rng = random.Random(41)
        for _ in range(25):
            R = random_ring(rng)
            a, b, c = (random_element(rng, R) for _ in range(3))
            assert (a + b - b).equals(a)
            assert (a * b).equals(b * a)
            assert ((a + b) + c).equals(a + (b + c))
            assert ((a * b) * c).equals(a * (b * c))
            assert (a * (b + c)).equals(a * b + a * c)
            assert (a - a).is_zero

    def test_inverse(self):
        # tau is a unit of Q[t][1/tau]: tau^p times (n / tau^p) is n
        R = TauRing(V(2))
        f = R.frac(V(1), 2)
        assert (f * R.frac(V(2)**2)).equals(R.frac(V(1)))
        assert (R.frac(MPoly.const(2, 1), 1) * R.frac(V(2))).equals(R.const(1))
        with pytest.raises(ValueError):
            f + TauRing(V(1)).frac(V(1), 1)  # different tau

    def test_equality_across_rings(self):
        # two ring objects with equal taus compare by value
        tau = V(1)**2 + V(2)
        R, S = TauRing(tau), TauRing(tau)
        x = R.frac(V(1), 1)
        assert x.equals(S.frac(V(1) * tau, 2)) and S.frac(V(1) * tau, 2) == x
        assert not x.equals(S.frac(V(1), 2))


class TestDerivative:
    def test_inverse_power_rule(self):
        R = TauRing(V(1))
        f = R.frac(MPoly.const(2, 1), 1)
        assert f.differentiate(1).equals(R.frac(MPoly.const(2, -1), 2))

    def test_quotient_rule_random(self):
        rng = random.Random(7)
        for _ in range(15):
            num, den = random_poly(rng, 2), random_poly(rng, 2)
            if den.is_zero:
                continue
            R = TauRing(den)
            f = R.frac(num, 1)
            lhs = f.differentiate(1)
            rhs = R.frac(num.differentiate(1) * den - num * den.differentiate(1), 2)
            assert lhs.equals(rhs)
            g = random_element(rng, R)  # Leibniz rule at any power
            assert (f * g).differentiate(2).equals(
                f.differentiate(2) * g + f * g.differentiate(2))


def value(f, point):
    """f at a point, from MPoly evaluation of its numerator and tau; None on a pole."""
    t = evaluate(f.ring.tau, point)
    return None if t == 0 else evaluate(f.num, point) / t**f.power


class TestEvaluation:
    def test_separate_num_den(self):
        R = TauRing(V(1) - V(2))
        assert value(R.frac(V(1)**2 - V(2)**2, 1), [F(3), F(1)]) == 4
        assert value(R.frac(V(1), 1), [F(1), F(1)]) is None
        shown = R.frac(V(1)**2 - V(2)**2, 1).to_json()
        assert evaluate(MPoly.from_json(shown["num"]), [F(3), F(1)]) == 4

    def test_cross_mult_equality_matches_evaluation(self):
        rng = random.Random(13)
        outcomes = []
        while len(outcomes) < 30:
            num, den, extra = (random_poly(rng, 2) for _ in range(3))
            if den.is_zero:
                continue
            R = TauRing(den)
            p, j = rng.randint(0, 2), rng.randint(1, 2)
            f = R.frac(num, p)
            g = rng.choice([
                R.frac(num * R.power(j), p + j),  # same element, bigger shape
                R.frac(num + den, p),  # differs by den / tau^p
                R.frac(num + extra, p),  # differs unless extra is zero
                R.frac(num * R.power(j) + extra, p + j),
            ])
            agree = f.equals(g)
            values = []
            while len(values) < 20:
                pt = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)]
                fv, gv = value(f, pt), value(g, pt)
                if fv is not None:
                    values.append(fv == gv)
            if agree:
                assert all(values)
            else:  # a nonzero difference shows at some sampled point
                assert not all(values)
            outcomes.append(agree)
        assert True in outcomes and False in outcomes


class TestSum:
    def test_matches_evaluation(self):
        # sum c*a*b at rational points is the sum of the values, over powers
        # 0 to 3 and integer factors that are 0, negative or above 1
        rng = random.Random(31)
        factors, powers = set(), set()
        for _ in range(25):
            R = random_ring(rng)
            terms = []
            for _ in range(rng.randint(1, 5)):
                a, b = (R.frac(random_poly(rng, 2), rng.randint(0, 3)) for _ in range(2))
                terms.append((rng.choice([0, -3, -1, 1, 2, 5]), a, b))
                factors.add(terms[-1][0])
                powers.update((a.power, b.power))
            s = R.sum(terms)
            assert s.power <= max(a.power + b.power for _, a, b in terms)
            checked = 0
            while checked < 5:
                pt = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)]
                v = value(s, pt)
                if v is not None:
                    assert v == sum(c * value(a, pt) * value(b, pt) for c, a, b in terms)
                    checked += 1
        assert factors == {0, -3, -1, 1, 2, 5} and powers == {0, 1, 2, 3}

    def test_cancellation_gives_zero_at_power_zero(self):
        R = TauRing(V(1)**2 + V(2))
        a, b = R.frac(V(1), 2), R.frac(V(2) + 1, 3)
        for terms in ([(2, a, b), (-1, a, b), (-1, b, a)], []):
            s = R.sum(terms)
            assert s.is_zero and s.power == 0
        # a group that cancels is not lifted: the rest keeps its power
        s = R.sum([(1, a, b), (-1, b, a), (3, a, R.one)])
        assert (s.num, s.power) == (V(1) * 3, 2)

    def test_another_tau_is_refused(self):
        R = TauRing(V(1))
        with pytest.raises(PolyError):
            R.sum([(1, R.one, TauRing(V(2)).one)])
        # an equal tau in another ring object is the same ring
        other = TauRing(V(1)).frac(V(2), 1)
        assert R.sum([(1, R.frac(V(2), 1), other)]).equals(R.frac(V(2)**2, 2))
