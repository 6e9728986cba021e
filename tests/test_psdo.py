import itertools
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from tauforge.mpoly import MPoly
from tauforge.ratfun import TauFrac, TauRing
from tauforge.schur import (ChargedPoly, Partition, elementary_schur, miwa_shift,
                            schur_of_partition)
from tauforge.grassmann import companions, reduce_point, tau_of
from tauforge.hirota import kp_residue, verify_suite
import tauforge.psdo as psdo
from tauforge.psdo import (OperatorReport, PsiDO, TruncationError, _dressing,
                           _zero_checks, dress_from_tau, lax_depth, verify_lax)

from conftest import random_grpoint, random_poly, refute

D, FL = 3, -6
ONE = ChargedPoly(MPoly.const(1, 1), 0)
R = TauRing(MPoly.variable(D, 1))  # coefficients in Q[t][1/t1]


def constraint(tau, rhos, sigmas, k, T):
    """The constraint-k report of verify_lax, which comes first."""
    report = verify_lax(tau, rhos, sigmas, k, T)[0]
    assert report.label == f"constraint-k{k}"
    return report


def flows(tau, rhos, sigmas, k, T):
    """The lax-flow and q_j/r_j flow reports of verify_lax."""
    return verify_lax(tau, rhos, sigmas, k, T)[1:]


def var(i, vars=D):
    return R.frac(MPoly.variable(vars, i))


def mult(f):
    """The multiplication operator by f."""
    return PsiDO(f.ring, {0: f}, FL)


d = PsiDO.d(R, FL)
dinv = PsiDO.d(R, FL, -1)
inv_t1 = R.frac(MPoly.const(D, 1), 1)


class TestCompose:
    def test_leibniz(self):
        got = d * mult(var(1))
        assert got == PsiDO(R, {1: var(1), 0: R.const(1)}, FL)

    def test_inverse_order_terminates_on_polynomials(self):
        got = dinv * mult(var(1))
        assert got == PsiDO(R, {-1: var(1), -2: R.const(-1)}, FL)
        assert got.exact_to is None  # series ended naturally, fully exact

    def test_dinv_d_cancels(self):
        assert dinv * d == PsiDO.identity(R, FL)
        assert d * dinv == PsiDO.identity(R, FL)

    def test_rational_coefficient_series_truncates(self):
        got = dinv * mult(inv_t1)
        assert got.exact_to == FL  # infinite tail was cut at the floor
        with pytest.raises(TruncationError):
            got.coeff(FL - 1)
        # d^-1 t1^-1 = sum_j C(-1, j) (t1^-1)^(j) d^-(j+1) = sum_j j! t1^-(j+1) d^-(j+1)
        for j in range(-FL):
            assert got.coeff(-1 - j).equals(
                R.frac(MPoly.const(D, math.factorial(j)), j + 1))

    def test_constructor_guard_below_floor(self):
        op = PsiDO(R, {0: R.const(1), -9: var(1)}, floor=FL)
        assert op.exact_to == FL  # a nonzero coefficient was dropped
        with pytest.raises(TruncationError):
            op.coeff(-9)
        assert op.coeff(FL).is_zero
        assert PsiDO(R, {-9: R.const(0)}, FL).exact_to is None  # zero: nothing lost
        assert PsiDO(R, {-9: var(1)}, FL, exact_to=-2).exact_to == -2

    def test_associativity_random(self):
        rng = random.Random(3)
        for _ in range(20):
            ops = []
            for _ in range(3):
                coeffs = {rng.randint(-2, 2): R.frac(random_poly(rng, D))
                          for _ in range(2)}
                ops.append(PsiDO(R, coeffs, FL))
            a, b, c = ops
            assert (a * b) * c == a * (b * c)


class TestAdjoint:
    def test_derivative_flips_sign(self):
        assert d.adjoint() == -d

    def test_sandwich(self):
        q, r = var(2), var(3)
        lhs = (mult(q) * dinv * mult(r)).adjoint()
        rhs = -(mult(r) * dinv * mult(q))
        assert lhs == rhs

    def test_involution(self):
        a = d * d + mult(var(1)) * d
        assert a.adjoint().adjoint() == a

    def test_anti_homomorphism_random(self):
        rng = random.Random(7)
        for _ in range(20):
            a = PsiDO(R, {rng.randint(0, 2): R.frac(random_poly(rng, D))
                          for _ in range(2)}, FL)
            b = PsiDO(R, {rng.randint(-1, 2): R.frac(random_poly(rng, D))
                          for _ in range(2)}, FL)
            assert (a * b).adjoint() == b.adjoint() * a.adjoint()


class TestOneSumPerOrder:
    """Composition, the adjoint, + and - and apply_to form each output order
    with one TauRing.sum and no running TauFrac + or -."""

    @pytest.fixture
    def sums(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("a running TauFrac sum")

        monkeypatch.setattr(TauFrac, "__add__", refuse)
        monkeypatch.setattr(TauFrac, "__sub__", refuse)
        calls = []
        real = TauRing.sum

        def counted(ring, terms):
            calls.append(ring)
            return real(ring, terms)

        monkeypatch.setattr(TauRing, "sum", counted)
        return calls

    def test_each_operation(self, sums):
        # over tau = t1: f = t2 / t1, g = t1 t3 + 1 and h = t1^2 t2
        t1, t2, t3 = (MPoly.variable(D, i) for i in (1, 2, 3))
        f, g, h = R.frac(t2, 1), R.frac(t1 * t3 + 1), R.frac(t1 * t1 * t2)
        one = R.one
        cases = [
            # (d + f)(d + g) = d^2 + (f + g) d + g' + f g
            (lambda: PsiDO(R, {1: one, 0: f}, FL) * PsiDO(R, {1: one, 0: g}, FL),
             {2: one, 1: R.frac(t2 + t1 * (t1 * t3 + 1), 1),
              0: R.frac(t1 * t3 + t2 * (t1 * t3 + 1), 1)}),
            # (d^2 + f d)* = d^2 - f d - f', f' = -t2 / t1^2
            (lambda: PsiDO(R, {2: one, 1: f}, FL).adjoint(),
             {2: one, 1: R.frac(-t2, 1), 0: R.frac(t2, 2)}),
            (lambda: PsiDO(R, {1: f, 0: g}, FL) + PsiDO(R, {0: f, -1: g}, FL),
             {1: f, 0: R.frac(t1 * (t1 * t3 + 1) + t2, 1), -1: g}),
            (lambda: PsiDO(R, {1: f, 0: g}, FL) - PsiDO(R, {0: f, -1: g}, FL),
             {1: f, 0: R.frac(t1 * (t1 * t3 + 1) - t2, 1), -1: R.frac(-(t1 * t3 + 1))}),
        ]
        for op, expected in cases:
            sums.clear()
            got = op()
            assert got == PsiDO(R, expected, FL)
            assert len(sums) == len(expected) == len(got.coeffs)
        # (f d + g) h = f h' + g h, one sum for the one function
        sums.clear()
        got = PsiDO(R, {1: f, 0: g}, FL).apply_to(h)
        assert got.equals(R.frac(2 * t2 * t2 + (t1 * t3 + 1) * t1 * t1 * t2))
        assert len(sums) == 1


class TestSplit:
    """op = op_+ + op_-: plus_part keeps the orders >= 0, and op - op_+
    (the defect verify_lax checks) holds only negative orders."""

    def test_examples(self):
        u = mult(var(2))
        op = d + u * dinv
        plus = op.plus_part()
        assert plus == d and op - plus == u * dinv
        plus = (d * d).plus_part()
        assert plus == d * d and (d * d - plus).is_zero
        op = mult(var(1)) * dinv * dinv + PsiDO(R, {0: R.const(3)}, FL)
        assert op.plus_part() == PsiDO(R, {0: R.const(3)}, FL)

    def test_direct_sum(self):
        rng = random.Random(11)
        for _ in range(15):
            op = PsiDO(R, {rng.randint(-3, 3): R.frac(random_poly(rng, D))
                           for _ in range(3)}, FL)
            plus = op.plus_part()
            minus = op - plus
            assert all(o >= 0 for o in plus.coeffs)
            assert all(o < 0 for o in minus.coeffs)
            assert plus + minus == op
            assert plus.plus_part() == plus and (plus - plus.plus_part()).is_zero


class TestDressing:
    def test_trivial_tau(self):
        pair = dress_from_tau(ONE, 5)
        assert pair.P == PsiDO.identity(pair.P.ring, pair.P.floor)
        assert pair.L == PsiDO.d(pair.L.ring, pair.L.floor)

    def test_linear_tau(self):
        pair = dress_from_tau(ChargedPoly(MPoly.variable(1, 1), 0), 5)
        vars = pair.P.ring.vars
        t1 = MPoly.variable(vars, 1)
        T1 = TauRing(t1)
        assert pair.P.coeff(-1).equals(T1.frac(MPoly.const(vars, -1), 1))
        assert pair.L.coeff(-1).equals(T1.frac(MPoly.const(vars, -1), 2))

    def test_s2_tau(self):
        S2 = elementary_schur(2, 2)
        pair = dress_from_tau(ChargedPoly(S2, 0), 5)
        t1 = MPoly.variable(2, 1)
        assert pair.P.coeff(-1).equals(TauRing(S2).frac(-t1, 1))
        assert pair.P.coeff(-2).is_zero
        assert pair.P.coeff(-5).is_zero

    @pytest.mark.parametrize("shape", [(1,), (2,), (2, 1)])
    def test_u1_is_second_log_derivative(self, shape):
        tau = schur_of_partition(Partition(shape), max(sum(shape), 1))
        pair = dress_from_tau(ChargedPoly(tau, 0), 4)
        vars = pair.L.ring.vars
        base = tau.embed(vars)
        log_slope = TauRing(base).frac(base.differentiate(1), 1)
        assert pair.L.coeff(-1).equals(log_slope.differentiate(1))

    def test_adjoint_wave_function_inverts_P(self, monkeypatch):
        # P^-1 = B*, B = 1 + sum (-1)^i b_i d^-i from tau(t+[z^-1])/tau(t),
        # exactly when tau is a KP tau function
        compositions = []
        compose = PsiDO.__mul__
        monkeypatch.setattr(PsiDO, "__mul__",
                            lambda a, b: compositions.append(1) or compose(a, b))
        t1 = MPoly.variable(2, 1)
        S2 = elementary_schur(2, 2)
        for poly, kp in [(S2 + t1 * 3, True), (S2 * S2, False), (t1 * t1, False)]:
            compositions.clear()
            _, Pinv = _dressing(ChargedPoly(poly, 0), 2, FL, kp)
            # the KP identity settles P B* = 1 with no composition; only a
            # tau that fails it composes, for the Newton steps
            assert (len(compositions) == 0) is kp
            *_, Bstar = adjoint_wave_dressing(poly, 2, FL)
            assert (Bstar == Pinv) is kp, poly

    def test_zero_tau_rejected(self):
        with pytest.raises(ValueError):
            dress_from_tau(ChargedPoly(MPoly.zero(1), 0), 4)


def adjoint_wave_dressing(poly, D, floor):
    """The Miwa shifts tau(t -/+ [z^-1]) of the ring's tau, P and B* of
    poly in D variables, before any Newton step."""
    ring = TauRing(poly.embed(D))
    w = ring.tau.wdeg()
    minus, plus = miwa_shift(ring.tau, -1, w), miwa_shift(ring.tau, +1, w)
    top = w + 1
    P = PsiDO(ring, {-i: TauFrac(ring, minus.coeff(-i), 1) for i in range(top)}, floor)
    B = PsiDO(ring, {-i: TauFrac(ring, plus.coeff(-i) * (-1) ** i, 1)
                     for i in range(top)}, floor)
    return minus, plus, P, B.adjoint()


def kp_holds(poly):
    """The KP verdict of tau = poly, from its bilinear residue."""
    return kp_residue(ChargedPoly(poly, 0)).is_zero


class TestBilinearCertificate:
    """The KP identity certifies P B* = 1: a tau that passes it needs no
    Newton step, and one that fails it takes them."""

    @staticmethod
    def seeded_taus():
        rng = random.Random(7)
        polys = [poly for poly in (random_poly(rng, rng.randint(1, 4), max_terms=3)
                                   for _ in range(10)) if not poly.is_zero]
        return [MPoly.const(1, 1), MPoly.const(2, -3), *polys,
                *TestIndependentOracle.taus()]

    def test_kp_implies_the_product_is_one(self):
        verdicts = set()
        for poly in self.seeded_taus():
            _, _, P, Bstar = adjoint_wave_dressing(poly, max(poly.max_var_used(), 1), -12)
            error = P * Bstar - PsiDO.identity(P.ring, -12)
            kp = kp_holds(poly)
            if kp:
                assert all(error.coeff(o).is_zero for o in range(-12, 0)), poly
            verdicts.add(kp)
        assert verdicts == {True, False}

    def test_non_kp_taus_reach_newton(self, monkeypatch):
        # dress and lax hand the KP verdict to _dressing, which takes Newton
        # steps when it is False
        t1 = MPoly.variable(2, 1)
        S2 = elementary_schur(2, 2)
        verdicts = []
        dressing = psdo._dressing
        monkeypatch.setattr(psdo, "_dressing",
                            lambda *args: verdicts.append(args[3]) or dressing(*args))
        compositions = []
        compose = PsiDO.__mul__
        for poly in (t1 * t1, S2 * S2, t1 * t1 * t1):
            assert not kp_holds(poly), poly
            verdicts.clear()
            dress_from_tau(ChargedPoly(poly, 0), 5)
            verify_lax(ChargedPoly(poly, 0), [], [], 2, 3)
            assert verdicts == [False, False], poly
            monkeypatch.setattr(PsiDO, "__mul__",
                                lambda a, b: compositions.append(1) or compose(a, b))
            compositions.clear()
            P, Pinv = dressing(ChargedPoly(poly, 0), 2, FL, False)
            assert compositions, poly  # the Newton loop ran
            monkeypatch.setattr(PsiDO, "__mul__", compose)
            assert P * Pinv == PsiDO.identity(P.ring, FL), poly


class TestConstraint:
    def test_vacuum(self):
        report = constraint(ONE, [], [], 1, 5)
        assert report.all_pass

    def test_golden_to_depth_five(self, golden_point):
        tau, rhos, sigmas = companions(golden_point, 1)
        report = constraint(tau, rhos, sigmas, 1, 5)
        assert report.all_pass
        orders = [c.order for c in report.checks]
        assert orders == [-1, -2, -3, -4, -5]
        assert all(c["method"] == "cross-multiplication"
                   for c in report.to_json()["orders"])

    def test_golden_without_pairs_fails_at_minus_one(self, golden_point):
        tau, _, _ = companions(golden_point, 1)
        report = constraint(tau, [], [], 1, 3)
        failing = [c.order for c in report.checks if not c.passed]
        assert -1 in failing

    def test_golden_k2(self, golden_point):
        tau, rhos, sigmas = companions(golden_point, 2)
        assert constraint(tau, rhos, sigmas, 2, 4).all_pass

    def test_minimality(self, golden_point):
        # dropping the only pair breaks the constraint, matching n = 1
        tau, rhos, sigmas = companions(golden_point, 1)
        assert not constraint(tau, [], [], 1, 3).all_pass

    def test_minimality_two_pairs(self):
        point = reduce_point([{-4: F(1)}, {-2: F(1)}], -1)
        tau, rhos, sigmas = companions(point, 1)
        assert len(rhos) == 2
        assert constraint(tau, rhos, sigmas, 1, 3).all_pass
        for drop in range(2):
            subset_r = [r for j, r in enumerate(rhos) if j != drop]
            subset_s = [s for j, s in enumerate(sigmas) if j != drop]
            assert not constraint(tau, subset_r, subset_s, 1, 3).all_pass

    def test_two_pair_flows(self):
        point = reduce_point([{-4: F(1)}, {-2: F(1)}], -1)
        tau, rhos, sigmas = companions(point, 1)
        reports = flows(tau, rhos, sigmas, 1, 3)
        assert [r.label for r in reports] == \
            ["lax-flow-t1", "q_1-flow-t1", "r_1-flow-t1",
             "q_2-flow-t1", "r_2-flow-t1"]
        assert all(r.all_pass for r in reports)

    def test_report_json(self, golden_point):
        tau, rhos, sigmas = companions(golden_point, 1)
        payload = constraint(tau, rhos, sigmas, 1, 3).to_json()
        assert payload["pass"] is True
        assert [c["order"] for c in payload["orders"]] == [-1, -2, -3]


class TestFlows:
    def test_vacuum(self):
        reports = flows(ONE, [], [], 2, 3)
        assert all(r.all_pass for r in reports)

    def test_golden_k1(self, golden_point):
        tau, rhos, sigmas = companions(golden_point, 1)
        reports = flows(tau, rhos, sigmas, 1, 4)
        assert [r.label for r in reports] == \
            ["lax-flow-t1", "q_1-flow-t1", "r_1-flow-t1"]
        assert all(r.all_pass for r in reports)

    def test_golden_k2(self, golden_point):
        tau, rhos, sigmas = companions(golden_point, 2)
        reports = flows(tau, rhos, sigmas, 2, 3)
        assert all(r.all_pass for r in reports)

    # the ids name the constraint and flow checks that verify_lax now joins
    @pytest.mark.parametrize("check", [constraint, flows],
                             ids=["verify_constraint", "verify_flows"])
    def test_unmatched_pairs_rejected(self, golden_point, check):
        tau, rhos, sigmas = companions(golden_point, 1)
        with pytest.raises(ValueError, match="equal length"):
            check(tau, rhos, [], 1, 3)


def commutator_flow(poly, k, T):
    """The lax-flow-t{k} report of a tau without pairs from
    dL/dt_k - [(L^k)_+, L] alone: the reference for both paths."""
    floor = -lax_depth(k, T)
    P, Pinv = _dressing(ChargedPoly(poly, 0), max(k, poly.max_var_used(), 1), floor,
                        False)
    L = P * PsiDO.d(P.ring, floor) * Pinv
    Lk_plus = (P * PsiDO.d(P.ring, floor, k) * Pinv).plus_part()
    lax = L.diff_coeffs(k) - (Lk_plus * L - L * Lk_plus)
    return OperatorReport(f"lax-flow-t{k}", _zero_checks(lax, range(k + 1, -4, -1)))


@pytest.fixture
def holds(monkeypatch):
    """Per verify_lax call, whether every identity held (the pass path),
    and whether KP held."""
    seen = []
    real = psdo.bilinear_defects

    def spy(operands, family, k):
        out = real(operands, family, k)
        seen.append((not any(out[2]), not out[2][0]))
        return out

    monkeypatch.setattr(psdo, "bilinear_defects", spy)
    return seen


class TestLaxFlowPaths:
    """A job whose identities all hold passes every report; otherwise the
    dressing decides, and a KP failure takes the commutator for the flow,
    which gives the witnesses."""

    def test_kp_failure_takes_the_commutator(self, holds):
        # the converse fails: 3 t1 t2 is no KP tau and passes the flow at
        # k = 2; seed 1 gives non-KP taus of either verdict
        rng = random.Random(1)
        cases = [(MPoly.variable(2, 1) * MPoly.variable(2, 2) * 3, 2)]
        polys = [random_poly(rng, 3, max_terms=3) for _ in range(3)]
        cases += [(poly, k) for poly in polys for k in (2, 3)]
        verdicts = []
        for poly, k in cases:
            holds.clear()
            report = flows(ChargedPoly(poly, 0), [], [], k, 3)[0]
            assert holds == [(False, False)], (poly, k)
            assert report.to_json() == commutator_flow(poly, k, 3).to_json()
            verdicts.append(report.all_pass)
        assert verdicts == [True, False, False, True, True, False, False]
        witness = next(c for c in report.checks if not c.passed)
        assert witness.order == -2 and not witness.witness.is_zero

    def test_flow_holds_at_k1_for_every_tau(self, holds):
        # L_+ = d, so the k = 1 flow holds for any P: lax-flow-t1 says
        # nothing about tau, and these taus are no KP taus
        t1, t2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        for poly in (t1 * t1 * t1, t1 * t2 * 3):
            assert commutator_flow(poly, 1, 3).all_pass, poly
            assert flows(ChargedPoly(poly, 0), [], [], 1, 3)[0].all_pass, poly
        assert [kp for _, kp in holds] == [False, False]

    def test_forced_fallback_gives_identical_reports(self, golden_point, holds,
                                                     monkeypatch):
        # the identities imply every report: forcing them false sends each
        # job through the dressing, and no report changes
        cases = []
        for k in (1, 2, 3, 4):
            tau, rhos, sigmas = companions(golden_point, k)
            cases.append((tau, rhos, sigmas, k))
            if rhos:
                cases.append((tau, rhos[:-1], sigmas[:-1], k))
        t1, t2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        taus = {str(poly): poly for poly in
                [t1 * t2 * 3, t1 * t1 * t1, *TestLaxDepth.taus(golden_point)]}
        cases += [(ChargedPoly(poly, 0), [], [], k) for poly in taus.values()
                  for k in (1, 2, 3, 4)]
        want = [[r.to_json() for r in verify_lax(*case, 4)] for case in cases]
        assert {path for path, _ in holds} == {True, False}
        assert {kp for path, kp in holds if not path} == {True, False}
        monkeypatch.setattr(psdo, "bilinear_defects", refute)
        assert [[r.to_json() for r in verify_lax(*case, 4)] for case in cases] == want

    def test_seeded_points_give_identical_reports(self, holds, monkeypatch):
        # the same on the companions of seeded points of weight 2..4, with
        # and without their last pair, and on tau + t1^2, no KP tau
        rng = random.Random(5)
        points = []
        while len(points) < 6:
            point = random_grpoint(rng, 3, 5)
            if 2 <= point.weight <= 4:
                points.append(point)
        cases = []
        for point, k in itertools.product(points, (1, 2, 3)):
            tau, rhos, sigmas = companions(point, k)
            cases += [(tau, rhos, sigmas, k), (tau, rhos[:-1], sigmas[:-1], k),
                      (ChargedPoly(tau.poly + MPoly.variable(tau.poly.vars, 1)**2, 0),
                       [], [], k)]
        want = [[r.to_json() for r in verify_lax(*case, 3)] for case in cases]
        assert {path for path, _ in holds} == {True, False}
        monkeypatch.setattr(psdo, "bilinear_defects", refute)
        assert [[r.to_json() for r in verify_lax(*case, 3)] for case in cases] == want


class TestLaxDepth:
    """lax_depth is the least depth at which every order the witness path
    of verify_lax may read is exact: one order less raises TruncationError."""

    @staticmethod
    def taus(golden_point):
        """The golden tau, two non-KP taus and two Grassmannian taus."""
        t1, t2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        return [companions(golden_point, 1)[0].poly, t1 * t2 * 3, t1 * t1 * t1,
                *TestIndependentOracle.taus()[:2]]

    def test_formula(self):
        assert [lax_depth(k, 5) for k in (1, 2, 3)] == [6, 7, 8]
        assert [lax_depth(2, T) for T in (3, 4, 5)] == [6, 6, 7]

    def test_one_less_is_refused(self, golden_point, monkeypatch):
        real = lax_depth
        monkeypatch.setattr(psdo, "lax_depth", lambda k, T: real(k, T) - 1)
        # only the witness path dresses: two non-KP taus, and the golden
        # KP tau without its pair only with every identity forced false;
        # for T >= 4 the constraint's order -T binds
        t1, t2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        for poly in (t1 * t2 * 3, t1 * t1 * t1):
            for k, T in ((1, 4), (2, 4), (1, 5), (2, 6)):
                with pytest.raises(TruncationError):
                    verify_lax(ChargedPoly(poly, 0), [], [], k, T)
        # at T = 3 the commutator's order -3 binds: 3 t1 t2 fails KP at k = 2
        with pytest.raises(TruncationError):
            verify_lax(ChargedPoly(t1 * t2 * 3, 0), [], [], 2, 3)
        golden = companions(golden_point, 1)[0]
        monkeypatch.setattr(psdo, "bilinear_defects", refute)
        for k, T in ((1, 4), (2, 4), (1, 5), (2, 6)):
            with pytest.raises(TruncationError):
                verify_lax(golden, [], [], k, T)

    def test_enough_on_both_paths(self, golden_point, monkeypatch):
        cases = [(ChargedPoly(poly, 0), k, T) for poly in self.taus(golden_point)
                 for k in (1, 2, 3, 4) for T in range(3, 9)]
        for case in cases:
            verify_lax(case[0], [], [], *case[1:])
        # the witness path on every job, with Newton and the commutator
        monkeypatch.setattr(psdo, "bilinear_defects", refute)
        for case in cases:
            verify_lax(case[0], [], [], *case[1:])


@pytest.fixture
def dressed(monkeypatch):
    """Counts of psdo._dressing and PsiDO.__mul__ calls."""
    calls = {"dressing": 0, "compose": 0}
    dressing, compose = psdo._dressing, PsiDO.__mul__

    def count(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(psdo, "_dressing", count("dressing", dressing))
    monkeypatch.setattr(PsiDO, "__mul__", count("compose", compose))
    return calls


class TestConstraintFromDefect:
    """A KP tau whose rho_j and sigma_j identities hold reads its
    constraint witnesses off the constrained-k defect, with no dressing;
    the reports equal the dressing's, witnesses included."""

    @staticmethod
    def bent_cases():
        """Companions of seeded points of weight 2..4 at k = 1..3 and
        T = 3..6: without their last pair, with sigma_1 doubled and, for
        n >= 2, with rho_1 + rho_2 in place of rho_1."""
        rng = random.Random(3)
        points = []
        while len(points) < 11:
            point = random_grpoint(rng, 3, 5)
            if 2 <= point.weight <= 4:
                points.append(point)
        cases = []
        for i, (point, k) in enumerate(itertools.product(points, (1, 2, 3))):
            tau, rhos, sigmas = companions(point, k)
            T = 3 + i % 4
            if rhos:
                doubled = ChargedPoly(sigmas[0].poly * 2, sigmas[0].charge)
                cases += [(tau, rhos[:-1], sigmas[:-1], k, T),
                          (tau, rhos, [doubled, *sigmas[1:]], k, T)]
            if len(rhos) > 1:
                summed = ChargedPoly(rhos[0].poly + rhos[1].poly, rhos[0].charge)
                cases.append((tau, [summed, *rhos[1:]], sigmas, k, T))
        return cases

    def test_equals_the_dressing(self, dressed, monkeypatch):
        cases = self.bent_cases()
        assert len(cases) >= 55
        assert {len(rhos) for _, rhos, *_ in cases} >= {0, 1, 2}
        assert {T for *_, T in cases} == {3, 4, 5, 6}
        got = [[r.to_json() for r in verify_lax(*case)] for case in cases]
        assert dressed == {"dressing": 0, "compose": 0}
        assert all(not report[0]["pass"] and all(r["pass"] for r in report[1:])
                   for report in got)
        monkeypatch.setattr(psdo, "bilinear_defects", refute)
        assert [[r.to_json() for r in verify_lax(*case)] for case in cases] == got
        assert dressed["dressing"] == len(cases)

    def test_lax_corpus_neither_dresses_nor_composes(self, dressed):
        # every triple of the committed lax bench corpus, with and without
        # its last pair, at the bench's --order 5
        path = Path(__file__).resolve().parents[1] / "bench" / "corpus" / "lax.jsonl"
        jobs = 0
        with open(path) as fh:
            for line in fh:
                entry = json.loads(line)
                k = entry["sig"][0]
                tau = ChargedPoly.from_json(entry["tau"])
                rhos = [ChargedPoly.from_json(r) for r in entry["rho"]]
                sigmas = [ChargedPoly.from_json(s) for s in entry["sigma"]]
                for n in {len(rhos), max(len(rhos) - 1, 0)}:
                    reports = verify_lax(tau, rhos[:n], sigmas[:n], k, 5)
                    assert reports[0].all_pass == (n == len(rhos)), line
                    assert all(r.all_pass for r in reports[1:]), line
                    jobs += 1
        assert jobs > 1000
        assert dressed == {"dressing": 0, "compose": 0}


def test_each_weight_is_scanned_once(monkeypatch, golden_point):
    # verify, lax (both paths) and dress read each operand's weighted
    # degree as its ChargedPoly holds it, scanned once before the jobs
    tau, rhos, sigmas = companions(golden_point, 2)
    not_kp = ChargedPoly(MPoly.variable(2, 1) ** 2, 0)
    for cp in (tau, *rhos, *sigmas, not_kp):
        assert cp.weight >= 0

    def scan(self):
        raise AssertionError("weighted degree scanned again")

    monkeypatch.setattr(MPoly, "wdeg", scan)
    assert verify_suite(tau, rhos, sigmas, 2).all_pass
    assert all(r.all_pass for r in verify_lax(tau, rhos, sigmas, 2, 4))
    assert not verify_lax(not_kp, [], [], 2, 3)[0].all_pass
    dress_from_tau(not_kp, 4)


def test_json_emits_only_the_exact_range():
    op = dinv * mult(inv_t1)  # infinite tail, exact down to FL
    cut = PsiDO(R, op.coeffs, FL - 2, op.exact_to + 1)
    payload = cut.to_json()
    assert payload["truncation"] == FL + 1
    assert min(int(o) for o in payload["coefs"]) == FL + 1
    assert payload["coefs"] == {str(o): f.to_json() for o, f in cut.coeffs.items()
                                if o >= FL + 1}


class TestIndependentOracle:
    """The rebuilt Lax side against identities checked with MPoly alone."""

    @staticmethod
    def taus():
        rng = random.Random(2024)
        found = []
        while len(found) < 6:
            poly = tau_of(random_grpoint(rng)).poly
            if 1 <= poly.wdeg() <= 4:
                found.append(poly)
        return found

    def test_residue_of_Lk_is_second_log_derivative(self):
        # Res L^k = d_1 d_k log tau = (tau tau_1k - tau_1 tau_k) / tau^2
        for poly in self.taus():
            for k in (1, 2, 3):
                P, Pinv = _dressing(ChargedPoly(poly, 0), max(poly.max_var_used(), k),
                                    -(3 + k + 1), True)
                Lk = P * PsiDO.d(P.ring, P.floor, k) * Pinv
                tau = Lk.ring.tau  # log tau' = log tau + const
                t1, tk = tau.differentiate(1), tau.differentiate(k)
                want = tau * t1.differentiate(k) - t1 * tk
                got = Lk.coeff(-1)
                assert (got.num * tau**2 - want * tau**got.power).is_zero, (poly, k)

    @staticmethod
    def sympy_minus_log_derivative(sp, poly, got, k):
        """SymPy's got - d/dt_1 d/dt_k log tau, canceled; got is over its
        ring's tau."""
        t = sp.symbols(f"t1:{got.num.vars + 1}")

        def expr(p):
            return sum((sp.Rational(c.numerator, c.denominator)
                        * sp.Mul(*(x**e for x, e in zip(t, exp)))
                        for exp, c in p.terms.items()), sp.Integer(0))

        tau = expr(poly.embed(got.num.vars))
        want = sp.cancel(sp.diff(sp.log(tau), t[0], t[k - 1]))
        return sp.cancel(expr(got.num) / expr(got.ring.tau)**got.power - want)

    def test_residue_of_L_matches_sympy(self):
        # the d^-1 coefficient of L is u_1 = d^2/dt_1^2 log tau
        sp = pytest.importorskip("sympy")
        for poly in self.taus():
            got = dress_from_tau(ChargedPoly(poly, 0), 5).L.coeff(-1)
            assert self.sympy_minus_log_derivative(sp, poly, got, 1) == 0, poly

    def test_residue_of_Lk_matches_sympy(self):
        # res L^k = d/dt_1 d/dt_k log tau
        sp = pytest.importorskip("sympy")
        for poly in self.taus():
            for k in (1, 2, 3):
                P, Pinv = _dressing(ChargedPoly(poly, 0), max(poly.max_var_used(), k),
                                    -(3 + k + 1), True)
                got = (P * PsiDO.d(P.ring, P.floor, k) * Pinv).coeff(-1)
                assert self.sympy_minus_log_derivative(sp, poly, got, k) == 0, (poly, k)

    def test_dressing_inverse_is_two_sided(self):
        t1, t2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        not_kp = [t1 * t1, t1 * t2 + 1, t1 + t2 * t2]  # P B* != 1 for these
        for poly, kp in [(poly, True) for poly in self.taus()] + \
                [(poly, False) for poly in not_kp]:
            floor = -6
            P, Pinv = _dressing(ChargedPoly(poly, 0), max(poly.max_var_used(), 1), floor, kp)
            tau = P.ring.tau
            for prod in (P * Pinv, Pinv * P):
                assert prod.exact_to == floor
                for order in range(floor, 1):
                    c = prod.coeff(order)
                    one = tau**c.power if order == 0 else MPoly.zero(tau.vars)
                    assert (c.num - one).is_zero, (poly, order)
