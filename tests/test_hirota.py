import json
import math
import random
from fractions import Fraction as F

import pytest

import tauforge.hirota as hirota
from tauforge.mpoly import Echelon, MPoly
from tauforge.schur import (ChargedPoly, DomainError, Partition, bilinear_window,
                            elementary_schur, embed_t, embed_tprime, miwa_shift,
                            schur_of_partition, xi_series)
from tauforge.fock import FockVector, MayaState, fermionic_pairing, sigma_map
from tauforge.grassmann import companions, reduce_point, tau_of
from tauforge.zseries import ExactnessError, ZSeries
from tauforge.hirota import (bilinear_defects, fermionic_bilinear_check,
                             identity_family, kp_residue, tensor_to_poly,
                             verify_suite)

from conftest import (flip_signs, half, one_state, partitions_up_to,
                      product_coeff, random_grpoint, random_poly, random_state)


ONE = ChargedPoly(MPoly.const(1, 1), 0)


def charged(poly, charge=0):
    return ChargedPoly(poly, charge)


def check_of(report, label):
    """The one check of a suite report that carries ``label``."""
    [check] = [c for c in report.checks if c.identity == label]
    return check


def swap_and_flip(p: MPoly, D: int) -> MPoly:
    """Exchange the two variable blocks and negate even-indexed times."""
    out = {}
    for exp, c in p.terms.items():
        out[tuple(list(exp[D:]) + list(exp[:D]))] = c
    signs = [(-1) ** i for i in range(D)] * 2
    return flip_signs(MPoly(2 * D, out), signs)


def flip_times(p: MPoly) -> MPoly:
    return flip_signs(p, [(-1) ** i for i in range(p.vars)])


def residue(u: ChargedPoly, v: ChargedPoly) -> MPoly:
    """The residue of (u, v) as the one identity of ``bilinear_defects``
    with no pairs, expanded over its doubled space of ``vars // 2`` times.

    bilinear_defects sizes D for the weights of ``identity_family``, all
    at least -1; its k only raises D, so k = the pair's kernel order keeps
    a residue of lower weight (charge u - charge v < -1) exact too."""
    k = bilinear_window(u.weight, v.weight, u.charge - v.charge)
    D, echelon, [combos] = bilinear_defects([u, u, v], [("uv", 0, 2, ())], k)
    return echelon.expand(combos, D)


class TestKpResidue:
    def test_constant(self):
        assert kp_residue(ONE).is_zero

    def test_linear(self):
        assert kp_residue(charged(MPoly.variable(1, 1))).is_zero

    def test_square_witness(self):
        cp = charged(MPoly.variable(1, 1) ** 2)
        got = kp_residue(cp)
        D = got.vars // 2
        x = lambda i: MPoly.variable(2 * D, i) - MPoly.variable(2 * D, D + i)
        assert got == x(1) ** 3 / 6 - x(1) * x(2) + x(3)

    def test_zero_tau_rejected(self):
        # the zero tau solves nothing: kp_residue rejects it as verify does
        with pytest.raises(ValueError, match="nonzero"):
            kp_residue(charged(MPoly.zero(2)))
        with pytest.raises(ValueError, match="nonzero"):
            verify_suite(charged(MPoly.zero(2)), [], [], 1)

    def test_one_route_with_verify(self):
        # kp_residue is the KP witness verify prints, and zero on a pass
        rng = random.Random(2024)
        taus = [charged(3 * MPoly.variable(2, 1) * MPoly.variable(2, 2))]
        taus += [charged(seeded_operand(rng, case % 2 == 0)) for case in range(20)]
        verdicts = set()
        for tau in taus:
            got = kp_residue(tau)
            check = verify_suite(tau, [], [], 1).checks[0]
            assert check.identity == "KP"
            assert got.is_zero if check.passed else got == check.witness
            verdicts.add(check.passed)
        assert verdicts == {True, False}

    def test_schur_functions_pass(self):
        for lam in partitions_up_to(4):
            cp = charged(schur_of_partition(lam, max(sum(lam.parts), 1)))
            assert kp_residue(cp).is_zero, lam

    def test_exchange_antisymmetry(self):
        # exchanging the argument blocks composed with the alternating
        # sign flip of the times negates the residue (m = 0 cases)
        polys = [MPoly.variable(1, 1) ** 2,
                 MPoly.variable(1, 1) ** 3,
                 MPoly.variable(2, 1) * MPoly.variable(2, 2)]
        for poly in polys:
            direct = kp_residue(charged(poly))
            flipped = kp_residue(charged(flip_times(poly)))
            D = flipped.vars // 2
            assert swap_and_flip(flipped, D) == -direct


class TestEchelon:
    """The right-hand factors' echelon rows, an ``mpoly.Echelon``:
    coords(p) writes p in the rows, keyed by lead, whose leads stay
    distinct, and each factor is reduced once."""

    def test_coordinates_rebuild_each_polynomial(self):
        rng = random.Random(31)
        echelon = hirota._Factors()
        assert isinstance(echelon, Echelon)
        polys = []
        for case in range(60):
            if case % 3 == 2:
                # a combination of earlier inputs lies in the rows' span
                p = sum((q * F(rng.randint(-3, 3), rng.randint(1, 4))
                         for q in rng.sample(polys, 2)), MPoly.zero(3))
            else:
                p = random_poly(rng, 3, max_terms=5)
            rows = len(echelon.rows)
            coords = echelon.coords(p)
            assert len(echelon.rows) <= rows + (case % 3 != 2)
            assert echelon.coords(p) is coords
            polys.append(p)
        # each row is keyed by its own lead, so the leads are distinct
        assert [max(row.num) for row in echelon.rows.values()] == list(echelon.rows)
        assert len(echelon.rows) > 10
        # rows never change once made, so every coordinate vector still holds
        for p in polys:
            assert sum((echelon.rows[lead] * c
                        for lead, c in echelon.coords(p).items()),
                       MPoly.zero(3)) == p


class TestKpResidueOracle:
    """kp_residue against SymPy: the z**-1 coefficient of
    tau(t - [1/z]) tau(t' + [1/z]) exp(sum_{i <= kmax} (t_i - t'_i) z**i)."""

    @staticmethod
    def expected(sp, tau: MPoly, D: int, kmax: int) -> dict:
        """The residue as {exponent over (t, t'): coefficient}, expanded in a
        SymPy ring over (t, t', z), every factor scaled by z**wdeg to clear 1/z."""
        ring, *gens = sp.ring([f"t{i}" for i in range(1, D + 1)]
                              + [f"s{i}" for i in range(1, D + 1)] + ["z"], sp.QQ)
        t, tp, z = gens[:D], gens[D:-1], gens[-1]
        w = tau.wdeg()

        def shifted(times, sign):  # z**w tau(times + sign [1/z])
            out = ring(0)
            for exp, c in tau.embed(D).terms.items():
                term = ring(c) * z**(w - sum(i * e for i, e in enumerate(exp, start=1)))
                for i, (g, e) in enumerate(zip(times, exp), start=1):
                    term *= (g * z**i + sp.Rational(sign, i)) ** e
                out += term
            return out

        def cut(p):  # drop the powers of z above kmax
            return ring({m: c for m, c in p.items() if m[-1] <= kmax})

        x = sum(((t[i - 1] - tp[i - 1]) * z**i for i in range(1, kmax + 1)), ring(0))
        kernel, power = ring(1), ring(1)
        for n in range(1, kmax + 1):
            power = cut(power * x)
            kernel += power * sp.Rational(1, math.factorial(n))
        product = shifted(t, -1) * shifted(tp, 1) * kernel
        return {m[:-1]: F(int(c.numerator), int(c.denominator))
                for m, c in product.items() if m[-1] == 2 * w - 1}

    @pytest.mark.parametrize("tau", [
        *[schur_of_partition(lam, 4) for lam in partitions_up_to(3)],
        MPoly.variable(4, 1) ** 2,
        MPoly.variable(4, 1) * MPoly.variable(4, 2) + 1,
    ], ids=str)
    def test_matches_sympy(self, tau):
        sp = pytest.importorskip("sympy")
        got = kp_residue(charged(tau))
        D = got.vars // 2
        kmax = bilinear_window(tau.wdeg(), tau.wdeg(), 0)
        assert dict(got.terms) == self.expected(sp, tau, D, kmax)


class TestWindowGuard:
    def test_short_kernel_raises(self, short_window):
        # t_1^2 shifts down to z^-2 on both sides, so a kernel one order
        # short of the window leaves the residue order unproved
        cp = charged(MPoly.variable(1, 1) ** 2)
        with pytest.raises(ExactnessError):
            kp_residue(cp)

    @pytest.mark.parametrize("shape", [(2,), (2, 1)], ids=str)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_short_kernel_raises_on_kp_taus(self, short_window, shape, k):
        # S_(2) (the golden tau) and S_(2,1) pass every identity, so only
        # the reads of the wave factors, cut at the window, can fault; a
        # shift of each stops above z**-wdeg, so its actual support would
        # leave a short kernel room, and the window's claim must bind
        cp = charged(schur_of_partition(Partition(shape), sum(shape) + 1))
        with pytest.raises(ExactnessError):
            kp_residue(cp)
        with pytest.raises(ExactnessError):
            verify_suite(cp, [], [], k)

    def test_each_identity_reads_to_its_own_window(self, monkeypatch):
        # only the KP window (weight 0) is short; the rho_1 and sigma_1
        # windows read tau's factors further, so only a read cut at the
        # KP window itself can fault
        real = hirota.bilinear_window

        def short_kp(w_left, w_right, weight):
            return real(w_left, w_right, weight) - (weight == 0)

        monkeypatch.setattr(hirota, "bilinear_window", short_kp)
        t1, t2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
        with pytest.raises(ExactnessError, match="order 0 above .* bound -1"):
            verify_suite(charged(t1), [charged(t1 * t1, 1)], [charged(t2, -2)], 1)

    def test_short_kernel_raises_with_pairs(self, short_window, golden_point):
        tau, rhos, sigmas = companions(golden_point, 1)
        with pytest.raises(ExactnessError):
            verify_suite(tau, rhos, sigmas, 1)


def doubled_residue(u: ChargedPoly, v: ChargedPoly, D: int) -> MPoly:
    """The residue expanded over the doubled space: the z**(-1 - weight)
    coefficient of u(t - [z^-1]) v(t' + [z^-1]) sum_i S_i(t - t') z**i, the
    kernel built from elementary_schur by S_i(t - t') = sum_j S_j(t) S_{i-j}(-t')."""
    weight = u.charge - v.charge
    kmax = bilinear_window(u.poly.wdeg(), v.poly.wdeg(), weight)
    flip = [-1] * D
    kernel = ZSeries(2 * D, {
        i: sum((embed_t(elementary_schur(j, D), D)
                * embed_tprime(flip_signs(elementary_schur(i - j, D), flip), D)
                for j in range(i + 1)), MPoly.zero(2 * D))
        for i in range(kmax + 1)}, kmax)
    left, right = (ZSeries(2 * D, {o: embed(c, D) for o, c in miwa_shift(
                               cp.poly.embed(D), sign, cp.weight).coeffs.items()})
                   for cp, sign, embed in ((u, -1, embed_t), (v, 1, embed_tprime)))
    return product_coeff(left, right, kernel, order=-1 - weight)


def seeded_operand(rng: random.Random, kp: bool) -> MPoly:
    """The tau of a random point (kp) or a random polynomial, of weight 1..4."""
    while True:
        if kp:
            poly = tau_of(random_grpoint(rng, max_extras=2, span=3)).poly
        else:
            poly = random_poly(rng, 3, max_terms=4, max_exp=2)
        if 1 <= poly.wdeg() <= 4:
            return poly


class TestDoubledSpaceOracle:
    """The wave-factor route against the doubled-space expansion."""

    def test_residues_match(self):
        # weights -1, 0 and k, KP taus and others, u = v and u != v
        rng = random.Random(2024)
        kinds = set()
        for case in range(60):
            u = seeded_operand(rng, case % 2 == 0)
            v = u if case % 3 == 1 else seeded_operand(rng, case % 4 < 2)
            weight = [-1, 0, 1 + case // 3 % 3][case % 3]
            cu, cv = charged(u, weight), charged(v, 0)
            got = residue(cu, cv)
            assert got == doubled_residue(cu, cv, got.vars // 2), (u, v, weight)
            kinds.add((weight, got.is_zero))
        assert {(0, True), (0, False), (-1, False)} <= kinds

    def test_suite_matches(self):
        # seeded companion triples, with and without their last pair, and
        # random taus with random companions: each bosonic verdict and
        # witness is the oracle residue minus sum a(t) b(t')
        rng = random.Random(77)
        verdicts = set()
        for case in range(24):
            k = 1 + case % 3
            if case % 4 == 3:
                tau = charged(seeded_operand(rng, False))
                rhos = [charged(seeded_operand(rng, False), 1)]
                sigmas = [charged(seeded_operand(rng, False), -k - 1)]
            else:
                point = random_grpoint(rng, max_extras=3, span=4)
                tau, rhos, sigmas = companions(point, k)
                if tau.poly.wdeg() > 4:
                    continue
            lists = [(rhos, sigmas)]
            if rhos:
                lists.append((rhos[:-1], sigmas[:-1]))
            for sub_r, sub_s in lists:
                report = verify_suite(tau, sub_r, sub_s, k)
                operands, family = identity_family(tau, sub_r, sub_s, k)
                top = max(cp.poly.wdeg() for cp in operands)
                D = max(2 * top, k, 1)
                for (label, left, right, pairs), check in zip(family, report.checks):
                    want = doubled_residue(operands[left], operands[right], D)
                    for a, b in pairs:
                        want = want - (embed_t(operands[a].poly.embed(D), D)
                                       * embed_tprime(operands[b].poly.embed(D), D))
                    assert check.identity == label
                    assert check.passed == want.is_zero
                    assert check.witness == (None if want.is_zero else want)
                    verdicts.add((label.split("_")[0], check.passed))
        assert {("KP", True), ("KP", False), ("constrained-k", True),
                ("constrained-k", False), ("rho", True), ("sigma", True)} <= verdicts


def record_waves(monkeypatch) -> list:
    """(p, sign, factor) for every wave factor ``_wave`` builds."""
    built, real = [], hirota._wave

    def wave(p, sign, kmax, weight):
        built.append((p, sign, real(p, sign, kmax, weight)))
        return built[-1][2]

    monkeypatch.setattr(hirota, "_wave", wave)
    return built


class TestLazyWave:
    """The wave factors of ``_wave``, each order formed on first read."""

    def test_orders_match_the_product(self):
        # every order up to hi is that order of the ZSeries product of the
        # Miwa shift and the kernel cut at hi - lo, the lowest order lo of
        # the shift: zero, constant, KP and other operands, both signs
        rng = random.Random(39)
        D = 9
        polys = [MPoly.zero(3), MPoly.const(3, 2)]
        polys += [seeded_operand(rng, case % 2 == 0) for case in range(16)]
        for p in polys:
            p, w = p.embed(D), p.wdeg()
            for sign in (1, -1):
                shift = miwa_shift(p, sign, w)
                lo = shift.min_order if shift.coeffs else 0
                for kmax in {0, w, 2 * w}:
                    factor = hirota._wave(p, sign, kmax, w)
                    hi = kmax - w
                    assert (factor.lo, factor.hi) == (lo, hi)
                    product = shift * xi_series(D, hi - lo, -sign)
                    for m in range(-w - 2, hi + 1):
                        assert factor.coeff(m) == product.coeff(m), (p, sign, kmax, m)

    def test_kernel_past_the_variables_is_a_domain_error(self):
        # t_1 shifts down to z^-1, so a factor exact to z^hi reads the
        # kernel to hi + 1, which two variables carry up to hi = 1; the
        # factor refuses it when built, with xi_series' error
        t1 = MPoly.variable(2, 1)
        assert hirota._wave(t1, -1, 2, 1).hi == 1
        for p, kmax, weight in ((t1, 3, 1), (MPoly.zero(2), 3, 0)):
            with pytest.raises(DomainError, match="kernel order 3 exceeds variable count 2"):
                hirota._wave(p, -1, kmax, weight)
        with pytest.raises(DomainError, match="kernel order 3 exceeds variable count 2"):
            xi_series(2, 3, 1)

    def test_window_is_claimed_before_any_skip(self, monkeypatch):
        # S_(2)(t - [z^-1]) has no z^-2 term, so KP's left factor A_-2 is
        # zero and its partner B_1 is never formed; a window one order
        # short proves B up to z^0 only, and the read of B_1 still faults
        tau = charged(schur_of_partition(Partition((2,)), 3))
        assert miwa_shift(tau.poly, -1, 2).coeff(-2).is_zero
        built = record_waves(monkeypatch)
        kp_residue(tau)
        [(_, _, right)] = [entry for entry in built if entry[1] == +1]
        assert 1 not in right._orders
        real = hirota.bilinear_window
        monkeypatch.setattr(hirota, "bilinear_window", lambda *args: real(*args) - 1)
        with pytest.raises(ExactnessError, match="order 1 above guaranteed-exact bound 0"):
            kp_residue(tau)

    def test_orders_whose_partner_vanishes_are_never_formed(self, monkeypatch):
        # a heavy KP triple: of each term A_m (x) B_{N-m}, the factor nearer
        # its lowest order is formed, and the other only if that is nonzero
        rng = random.Random(5)
        while True:
            tau, rhos, sigmas = companions(random_grpoint(rng, max_extras=3, span=4), 2)
            if tau.weight >= 4 and rhos:
                break
        built = record_waves(monkeypatch)
        assert verify_suite(tau, rhos, sigmas, 2).all_pass
        operands, family = identity_family(tau, rhos, sigmas, 2)
        source = [0, 0, *range(2, len(operands))]
        factor = {}
        for p, sign, f in built:
            [i] = [i for i in set(source) if operands[i].poly.embed(p.vars) == p]
            factor[i, sign] = f
        formed, skipped = {f: set() for *_, f in built}, set()
        for _, left, right, _ in family:
            A, B = factor[source[left], -1], factor[source[right], +1]
            N = -1 - (operands[left].charge - operands[right].charge)
            for m in range(-operands[left].weight, N + operands[right].weight + 1):
                near, far = sorted([(A, m), (B, N - m)], key=lambda r: r[1] - r[0].lo)
                formed[near[0]].add(near[1])
                if near[0].coeff(near[1]).num:
                    formed[far[0]].add(far[1])
                else:
                    skipped.add(far)
        assert {f: set(f._orders) for f in formed} == formed
        assert {(f, o) for f, o in skipped if o not in formed[f]}


class TestConstrainedResidue:
    def test_trivial_tau(self):
        assert check_of(verify_suite(ONE, [], [], 1), "constrained-k").passed

    def test_golden_pair(self, golden_point):
        tau, rhos, sigmas = companions(golden_point, 1)
        check = check_of(verify_suite(tau, rhos, sigmas, 1), "constrained-k")
        assert check.passed

    def test_missing_pairs_leave_witness(self, golden_point):
        tau, _, _ = companions(golden_point, 1)
        check = check_of(verify_suite(tau, [], [], 1), "constrained-k")
        assert not check.passed
        D = 4  # verify_suite's rule: max(2 * wdeg(tau), k, 1), tau = S_2
        S11 = schur_of_partition(Partition((1, 1)), D).embed(2 * D)
        assert check.witness == -S11

    def test_charge_guard(self, golden_point):
        tau, rhos, sigmas = companions(golden_point, 1)
        wrong = [ChargedPoly(rhos[0].poly, 5)]
        with pytest.raises(ValueError, match="rho_1 has charge 5, expected 1"):
            verify_suite(tau, wrong, sigmas, 1)
        with pytest.raises(ValueError, match="rho_1 has charge 5, expected 1"):
            identity_family(tau, wrong, sigmas, 1)


class TestEigenfunctionIdentities:
    # sigma = 1 at charge m - k - 1 completes the companion lists; only
    # the rho_1 identity is read
    SIGMA = ChargedPoly(MPoly.const(1, 1), -2)

    def test_monomial_rho_over_vacuum(self):
        rho = charged(MPoly.variable(1, 1), 1)
        assert check_of(verify_suite(ONE, [rho], [self.SIGMA], 1), "rho_1").passed

    def test_square_is_rejected(self):
        rho = charged(MPoly.variable(1, 1) ** 2, 1)
        check = check_of(verify_suite(ONE, [rho], [self.SIGMA], 1), "rho_1")
        assert not check.passed and check.witness is not None

    def test_golden_sigma(self, golden_point):
        tau, rhos, sigmas = companions(golden_point, 1)
        report = verify_suite(tau, rhos, sigmas, 1)
        assert check_of(report, "sigma_1").passed
        assert check_of(report, "rho_1").passed


class TestIdentityFamily:
    def test_operands_and_table(self):
        point = reduce_point([{-4: F(1)}, {-2: F(1)}], -1)
        tau, rhos, sigmas = companions(point, 1)
        operands, family = identity_family(tau, rhos, sigmas, 1)
        assert operands == [tau, ChargedPoly(tau.poly, tau.charge - 1),
                            *rhos, *sigmas]
        assert family == [("KP", 0, 0, ()),
                          ("constrained-k", 0, 1, ((2, 4), (3, 5))),
                          ("rho_1", 0, 2, ((2, 0),)), ("rho_2", 0, 3, ((3, 0),)),
                          ("sigma_1", 4, 1, ((1, 4),)), ("sigma_2", 5, 1, ((1, 5),))]
        report = verify_suite(tau, rhos, sigmas, 1)
        assert [c.identity for c in report.checks] == (
            [label for label, *_ in family]
            + [f"fermionic-{label}" for label, *_ in family])

    def test_unequal_lists(self, golden_point):
        tau, rhos, _ = companions(golden_point, 1)
        with pytest.raises(ValueError, match="companion lists must have equal length"):
            identity_family(tau, rhos, [], 1)

    def test_representations_agree_per_identity(self):
        # seeded companion triples, with the full pair lists, every
        # (n-1)-subset, and each companion multiplied by t_1: every bosonic
        # identity and its fermionic mirror pair up and give one verdict
        rng = random.Random(909)
        cases, failed = 0, set()
        while cases < 12:
            point = random_grpoint(rng, max_extras=3, span=4)
            if not point.rows or tau_of(point).poly.wdeg() > 4:
                continue
            k = 1 + cases % 3
            tau, rhos, sigmas = companions(point, k)
            if not rhos:
                continue
            t1 = lambda cp: ChargedPoly(cp.poly * MPoly.variable(cp.poly.vars, 1),
                                        cp.charge)
            lists = [(rhos, sigmas), ([*map(t1, rhos)], sigmas),
                     (rhos, [*map(t1, sigmas)])]
            lists += [([r for j, r in enumerate(rhos) if j != drop],
                       [s for j, s in enumerate(sigmas) if j != drop])
                      for drop in range(len(rhos))]
            for sub_r, sub_s in lists:
                checks = verify_suite(tau, sub_r, sub_s, k).checks
                half = len(checks) // 2
                bosonic, fermionic = checks[:half], checks[half:]
                assert [f"fermionic-{c.identity}" for c in bosonic] == \
                    [c.identity for c in fermionic]
                assert [c.passed for c in bosonic] == [c.passed for c in fermionic]
                failed |= {c.identity for c in bosonic if not c.passed}
            cases += 1
        assert {"constrained-k", "rho_1", "sigma_1"} <= failed


class TestFermionicCheck:
    def test_vacuum(self):
        vac = one_state(MayaState(0))
        assert fermionic_bilinear_check(vac, vac, ()).passed

    def test_random_wedges_pass(self):
        rng = random.Random(3)
        from tauforge.fock import WindowMatrix, apply_window_matrix
        done = 0
        while done < 10:
            N = 4
            entries = {}
            m = rng.randint(-2, 2)
            for _ in range(rng.randint(1, 3)):
                col = half(rng.choice(range(-2 * N + 1, 2 * m, 2)))
                row = half(rng.choice(range(-2 * N + 1, 2 * N, 2)))
                entries[(row, col)] = F(rng.randint(-2, 2))
            try:
                wedge = apply_window_matrix(WindowMatrix(N, entries), m)
            except Exception:
                continue
            assert fermionic_bilinear_check(wedge, wedge, ()).passed
            done += 1

    def test_non_decomposable_fails(self):
        bad = one_state(MayaState(0, (2,))) + one_state(MayaState(0, (1, 1)))
        check = fermionic_bilinear_check(bad, bad, ())
        assert not check.passed and check.tensor_witness is not None


class TestOracleEquivalence:
    def test_residue_equals_tensor_image(self):
        # the bosonic residue is the Schur image of the fermionic pairing,
        # coefficient by coefficient, on 50 random window vectors
        rng = random.Random(31)
        done = 0
        while done < 50:
            u = FockVector({random_state(rng, max_part=3, max_len=2):
                            F(rng.randint(-3, 3)) for _ in range(2)})
            v = FockVector({random_state(rng, max_part=3, max_len=2):
                            F(rng.randint(-3, 3)) for _ in range(2)})
            if u.is_zero or v.is_zero:
                continue
            su, sv = sigma_map(u, 8), sigma_map(v, 8)
            if len(su) != 1 or len(sv) != 1:
                continue
            lhs = residue(su[0], sv[0])
            rhs = tensor_to_poly(fermionic_pairing(u, v), lhs.vars // 2)
            assert lhs == rhs
            done += 1


class TestVerifySuite:
    def test_vacuum(self):
        report = verify_suite(ONE, [], [], 1)
        assert report.all_pass
        ids = [c.identity for c in report.checks]
        assert ids == ["KP", "constrained-k", "fermionic-KP",
                       "fermionic-constrained-k"]

    def test_golden(self, golden_point):
        tau, rhos, sigmas = companions(golden_point, 1)
        report = verify_suite(tau, rhos, sigmas, 1)
        assert report.all_pass
        assert len(report.checks) == 8

    def test_fermionic_side_reads_no_bosonic_result(self, monkeypatch):
        # with every bosonic defect forced to zero, the fermionic mirror
        # still refutes the triple with its last pair dropped
        point = reduce_point([{-4: F(1)}, {-2: F(1)}], -1)
        tau, rhos, sigmas = companions(point, 1)
        monkeypatch.setattr(hirota, "bilinear_defects",
                            lambda operands, family, k: (1, None, [{}] * len(family)))
        report = verify_suite(tau, rhos[:-1], sigmas[:-1], 1)
        passed = {c.identity: c.passed for c in report.checks}
        assert passed["constrained-k"]
        assert not passed["fermionic-constrained-k"]

    def test_golden_without_pairs_fails(self, golden_point):
        tau, _, _ = companions(golden_point, 1)
        report = verify_suite(tau, [], [], 1)
        failed = {c.identity for c in report.checks if not c.passed}
        assert failed == {"constrained-k", "fermionic-constrained-k"}

    def test_scaling_invariance(self, golden_point):
        tau, rhos, sigmas = companions(golden_point, 1)
        c = F(7, 3)
        scaled = verify_suite(
            ChargedPoly(tau.poly * c, tau.charge),
            [ChargedPoly(r.poly * c, r.charge) for r in rhos],
            [ChargedPoly(s.poly * c, s.charge) for s in sigmas], 1)
        assert scaled.all_pass

    def test_pair_basis_invariance(self):
        # rho -> C rho, sigma -> (C^-1)^T sigma preserves the pairing sum
        point = reduce_point([{-4: F(1)}, {-2: F(1)}], -1)
        tau, rhos, sigmas = companions(point, 1)
        assert len(rhos) == 2
        assert verify_suite(tau, rhos, sigmas, 1).all_pass
        # C = [[1, 2], [0, 1]], inverse transpose [[1, 0], [-2, 1]]
        r2 = [ChargedPoly(rhos[0].poly + rhos[1].poly * 2, rhos[0].charge),
              rhos[1]]
        s2 = [sigmas[0],
              ChargedPoly(sigmas[1].poly - sigmas[0].poly * 2, sigmas[1].charge)]
        assert verify_suite(tau, r2, s2, 1).all_pass

    def test_report_json_deterministic(self, golden_point):
        tau, rhos, sigmas = companions(golden_point, 1)
        a = json.dumps(verify_suite(tau, rhos, sigmas, 1).to_json(), sort_keys=True)
        b = json.dumps(verify_suite(tau, rhos, sigmas, 1).to_json(), sort_keys=True)
        assert a == b

    def test_witness_in_json(self, golden_point):
        tau, _, _ = companions(golden_point, 1)
        payload = verify_suite(tau, [], [], 1).to_json()
        failing = [c for c in payload["checks"] if not c["pass"]]
        assert failing and all("witness" in c for c in failing)
