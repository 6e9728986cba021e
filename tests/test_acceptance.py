"""Acceptance criteria, one test per criterion.

Every identity here is exact (tolerance zero): checks compare
polynomials or rational functions coefficient by coefficient over exact
rationals.  Each test prints a single PASS line when it completes; a
failure raises with the offending object in the message.
"""

import random
from fractions import Fraction as F

from tauforge.mpoly import MPoly
from tauforge.ratfun import TauRing
from tauforge.schur import ChargedPoly, Partition, elementary_schur, schur_of_partition
from tauforge.fock import (FockVector, WindowMatrix, alpha,
                           apply_window_matrix, poly_to_fock, psi_minus,
                           psi_plus, shift_charge, sigma_map, sigma_single)
from tauforge.grassmann import (companions, dtk_decomposition,
                                generate_from_matrix, grpoint_from_window_matrix,
                                reduce_point, stable_subspace, tau_of)
from tauforge.hirota import fermionic_bilinear_check, kp_residue, verify_suite
from tauforge.psdo import PsiDO, dress_from_tau, verify_lax

from conftest import (flip_signs, half, one_state, partitions_up_to,
                      product_coeff, random_grpoint, random_poly, random_state,
                      vectors)


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def random_sparse_window_matrix(rng: random.Random, window: int,
                                charge: int) -> WindowMatrix:
    """Sparse shear of the identity with columns below the charge line."""
    entries = {}
    for _ in range(rng.randint(1, 3)):
        col = half(rng.choice(range(-2 * window + 1, 2 * charge, 2)))
        lo = max(-2 * window + 1, int(2 * col) - 8)
        hi = min(2 * window - 1, int(2 * col) + 8)
        row = half(rng.choice(range(lo, hi + 1, 2)))
        if row == col:
            continue
        entries[(row, col)] = F(rng.choice([1, 2, -1, -2]))
    return WindowMatrix(window, entries)


def test_acceptance_1_schur_kp_suite():
    shapes = partitions_up_to(6)
    for lam in shapes:
        cp = ChargedPoly(schur_of_partition(lam, max(sum(lam.parts), 1)), 0)
        residue = kp_residue(cp)
        assert residue.is_zero, f"S_{lam} failed the hierarchy residue"
    square = ChargedPoly(MPoly.variable(1, 1) ** 2, 0)
    got = kp_residue(square)
    D = got.vars // 2
    x = lambda i: MPoly.variable(2 * D, i) - MPoly.variable(2 * D, D + i)
    assert got == x(1) ** 3 / 6 - x(1) * x(2) + x(3)
    report(1, f"{len(shapes)} Schur residues vanish exactly; "
              "the non-solution witness matches exactly")


def test_acceptance_2_cross_representation_oracle():
    rng = random.Random(2024)
    wedges = []
    nontrivial = 0
    while len(wedges) < 50:
        m = rng.randint(-2, 2)
        matrix = random_sparse_window_matrix(rng, 8, m)
        try:
            wedge = apply_window_matrix(matrix, m)
        except Exception:
            continue
        weight = max(sum(s.parts) for s in wedge.terms)
        if weight > 7:
            continue  # keep the exact residue window affordable
        if weight == 0 and nontrivial < len(wedges) - 8:
            continue  # plain vacua are allowed but should not dominate
        nontrivial += weight > 0
        wedges.append((wedge, m))
    assert nontrivial >= 40
    for wedge, m in wedges:
        assert fermionic_bilinear_check(wedge, wedge, ()).passed
        image = sigma_single(wedge, 8)
        assert kp_residue(image).is_zero

    failures = 0
    attempts = 0
    while failures < 20:
        attempts += 1
        assert attempts < 500
        a = random_state(rng, max_charge=1, max_part=3, max_len=2)
        b = random_state(rng, max_charge=1, max_part=3, max_len=2)
        if a.charge != b.charge or a == b:
            continue
        vec = FockVector({a: F(rng.randint(1, 3)), b: F(rng.randint(1, 3))})
        ferm = fermionic_bilinear_check(vec, vec, ())
        if ferm.passed:
            continue  # accidentally decomposable; not part of this batch
        image = sigma_single(vec, 8)
        residue = kp_residue(image)
        assert not residue.is_zero  # both representations reject it
        failures += 1
    report(2, "50 perfect wedges pass both representations; "
              "20 non-decomposable vectors fail both together")


def test_acceptance_3_filtration_end_to_end():
    rng = random.Random(777)
    points = []
    while len(points) < 20:
        p = random_grpoint(rng, max_extras=2, span=4)
        if not p.rows:
            continue
        tau = tau_of(p)
        if tau.poly.wdeg() > 4 or len(tau.poly.terms) > 5:
            continue  # window <= 8 still, but keep Lax compositions quick
        points.append(p)
    for trial, point in enumerate(points):
        for k in (1, 2, 3):
            _, n = stable_subspace(point, k)
            tau, rhos, sigmas = companions(point, k)
            assert len(rhos) == n
            assert verify_suite(tau, rhos, sigmas, k).all_pass, (trial, k)
            for drop in range(n):
                subset_r = [r for j, r in enumerate(rhos) if j != drop]
                subset_s = [s for j, s in enumerate(sigmas) if j != drop]
                partial = verify_suite(tau, subset_r, subset_s, k)
                failed = {c.identity for c in partial.checks if not c.passed}
                assert {"constrained-k", "fermionic-constrained-k"} <= failed, \
                    (trial, k, drop)
            constraint = verify_lax(tau, rhos, sigmas, k, 5)[0]
            assert constraint.all_pass, (trial, k)
            assert [c.order for c in constraint.checks] == [-1, -2, -3, -4, -5]
    report(3, "20 points x k in {1,2,3}: suite passes at n, fails on every "
              "(n-1)-subset, constraint exact to order -5")


def test_acceptance_4_worked_example_chain(golden_point):
    D = 6
    S2 = elementary_schur(2, D)
    S11 = schur_of_partition(Partition((1, 1)), D)
    _, n = stable_subspace(golden_point, 1)
    assert n == 1
    tau, rhos, sigmas = companions(golden_point, 1)
    assert tau.poly.embed(D) == S2 and tau.charge == 0
    assert rhos[0].poly.embed(D) == -S11 and rhos[0].charge == 1  # fixed sign: minus
    assert sigmas[0].poly.embed(D) == MPoly.const(D, 1) and sigmas[0].charge == -2
    assert verify_suite(tau, rhos, sigmas, 1).all_pass

    pair = dress_from_tau(tau, 5)
    vars = pair.P.ring.vars
    base = S2.embed(vars)
    t1 = MPoly.variable(vars, 1)
    ring = TauRing(base)
    assert pair.P.coeff(-1).equals(ring.frac(-t1, 1))
    assert all(pair.P.coeff(-i).is_zero for i in range(2, 6))
    log_slope = ring.frac(base.differentiate(1), 1)
    assert pair.L.coeff(-1).equals(log_slope.differentiate(1))

    parts_k1 = dtk_decomposition(golden_point, 1)
    assert [cp.poly.embed(D) for cp in parts_k1] == [MPoly.variable(D, 1)]
    parts_k2 = dtk_decomposition(golden_point, 2)
    assert [cp.poly.embed(D) for cp in parts_k2] == [MPoly.const(D, 1)]
    for cp in parts_k1 + parts_k2:
        assert kp_residue(cp).is_zero
    report(4, "golden chain: tau = S_2, n = 1, companions, dressing and "
              "derivative split all exact")


def test_acceptance_5_generator_consistency():
    rng = random.Random(555)
    done = 0
    nontrivial = 0
    while done < 25:
        m = rng.randint(-2, 2)
        matrix = random_sparse_window_matrix(rng, 6, m)
        try:
            wedge = apply_window_matrix(matrix, m)
        except Exception:
            continue
        if max(sum(s.parts) for s in wedge.terms) == 0 and nontrivial < done - 4:
            continue
        nontrivial += max(sum(s.parts) for s in wedge.terms) > 0
        point = grpoint_from_window_matrix(matrix, m)
        assert point.charge == m
        direct = sigma_single(wedge, 12)
        via_point = tau_of(point)
        ratio = None
        normalized = poly_to_fock(via_point)
        for state, coef in wedge.terms.items():
            other = normalized.terms.get(state)
            assert other is not None, state
            r = coef / other
            ratio = r if ratio is None else ratio
            assert r == ratio, "wedge and point disagree beyond one scalar"
        assert (direct.poly - via_point.poly.embed(12) * ratio).is_zero
        done += 1
    assert nontrivial >= 20

    documented = [
        ([[F(1)], [F(0)], [F(0)]], MPoly.const(2, 1), 0),
        ([[F(0)], [F(0)], [F(1)]], elementary_schur(2, 2), 1),
        ([[F(0), F(0)], [F(0), F(1)], [F(1), F(0)]],
         elementary_schur(2, 2) - MPoly.variable(2, 1) ** 2, 1),
    ]
    for entries, expected, violations in documented:
        point, tau, rep = generate_from_matrix(entries, 1, violations)
        assert tau.poly == expected
        assert len(rep.violating_columns) == violations
        _, n = stable_subspace(point, 1)
        assert n == violations
        suite = verify_suite(*companions(point, 1), 1)
        assert suite.all_pass
    report(5, "25 wedge/point pairs agree up to one scalar; the three "
              "documented matrices reproduce their tau functions")


def test_acceptance_6_algebraic_relation_suites():
    rng = random.Random(99)
    ops = {"+": psi_plus, "-": psi_minus}

    for _ in range(50):  # Clifford anticommutators
        st = one_state(random_state(rng), F(rng.randint(1, 4), rng.randint(1, 3)))
        i = half(rng.choice(range(-7, 8, 2)))
        j = half(rng.choice(range(-7, 8, 2)))
        la, mu = rng.choice("+-"), rng.choice("+-")
        lhs = ops[la](i, ops[mu](j, st)) + ops[mu](j, ops[la](i, st))
        expect = st if (la != mu and i == -j) else FockVector()
        assert lhs == expect

    modes = [-4, -3, -2, -1, 1, 2, 3, 4]
    for _ in range(50):  # oscillator commutators
        st = one_state(random_state(rng))
        k, l = rng.choice(modes), rng.choice(modes)
        lhs = alpha(k, alpha(l, st)) - alpha(l, alpha(k, st))
        expect = st * k if k == -l else FockVector()
        assert lhs == expect

    for _ in range(50):  # charge-shift commutation
        st = one_state(random_state(rng))
        k = half(rng.choice(range(-7, 8, 2)))
        assert shift_charge(1, psi_plus(k, st)) == psi_plus(k - 1, shift_charge(1, st))
        assert shift_charge(1, psi_minus(k, st)) == psi_minus(k + 1, shift_charge(1, st))

    D = 16
    for _ in range(50):  # boson dictionary intertwining
        st = one_state(random_state(rng, max_part=3, max_len=3))
        img = sigma_single(st, D)
        m = rng.randint(1, 3)
        made = sigma_map(alpha(-m, st), D)
        got = made[0].poly if made else MPoly.zero(D)
        assert got == img.poly * MPoly.variable(D, m) * m
        lowered = sigma_map(alpha(m, st), D)
        got = lowered[0].poly if lowered else MPoly.zero(D)
        assert got == img.poly.differentiate(m)
        assert sigma_single(shift_charge(1, st), D).charge == img.charge + 1

    from tauforge.schur import miwa_shift
    from tauforge.zseries import ZSeries
    DV = 26

    def xi_exp(sign):
        coeffs = {}
        for i in range(23):
            s = elementary_schur(i, DV)
            if sign < 0:
                s = flip_signs(s, [-1] * DV)
            coeffs[i] = s
        return ZSeries(DV, coeffs, 22)

    plus_kernel, minus_kernel = xi_exp(+1), xi_exp(-1)
    for _ in range(50):  # vertex operator coefficients to order 8
        st = one_state(random_state(rng, max_part=4, max_len=2))
        a = next(iter(st.terms)).charge
        f = sigma_single(st, DV)
        n = rng.randint(-3, 8)
        k = F(2 * n - 1, 2)
        zpow = int(-k - F(1, 2))
        ferm = sigma_map(psi_plus(k, st), DV)
        got = ferm[0].poly if ferm else MPoly.zero(DV)
        assert got == product_coeff(plus_kernel, miwa_shift(f.poly, -1, f.weight),
                                            order=zpow - a)
        ferm = sigma_map(psi_minus(k, st), DV)
        got = ferm[0].poly if ferm else MPoly.zero(DV)
        assert got == product_coeff(minus_kernel, miwa_shift(f.poly, +1, f.weight),
                                            order=zpow + a)

    FL = -5
    ring = TauRing(MPoly.variable(3, 1))
    for _ in range(50):  # adjoint anti-homomorphism and associativity
        def rand_op():
            return PsiDO(ring, {rng.randint(-2, 2): ring.frac(random_poly(rng, 3))
                                for _ in range(2)}, FL)
        A, B, C = rand_op(), rand_op(), rand_op()
        assert (A * B).adjoint() == B.adjoint() * A.adjoint()
        assert (A * B) * C == A * (B * C)
    report(6, "Clifford, oscillator, shift, dictionary, vertex, adjoint and "
              "associativity suites all exact on 50+ seeded instances each")


def test_acceptance_7_filtration_bounds():
    rng = random.Random(4242)
    for trial in range(100):
        point = random_grpoint(rng, max_extras=3, span=5)
        k = rng.randint(1, 3)
        _, n = stable_subspace(point, k)
        assert 0 <= n <= len(point.rows) + k, (trial, n)
        # membership is monotone: the same pair data certifies every
        # level above n, and growing the tail never raises the level
        grown = reduce_point(vectors(point), point.tail + 1)
        _, n_grown = stable_subspace(grown, k)
        assert n_grown <= n, trial
    report(7, "100 points: filtration index finite, bounded by extras + k, "
              "monotone under tail growth")
