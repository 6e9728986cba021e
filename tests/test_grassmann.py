import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from tauforge.mpoly import MPoly
from tauforge.schur import (Partition, _det, elementary_schur,
                            schur_of_partition)
from tauforge.fock import (FockVector, MayaState, WindowMatrix,
                           apply_window_matrix, fermionic_pairing,
                           poly_to_fock, sigma_single, wedge_vector)
from tauforge.grassmann import (GeneratorConditionError,
                                GrassmannError, _vacuum, _wedge,
                                companion_wedges,
                                companions, dtk_decomposition,
                                generate_from_matrix, grpoint_from_window_matrix,
                                point_rows, reduce_point, reduce_rows,
                                stable_subspace, tau_of)

from conftest import half, pivots, random_grpoint, shifted, vectors


def contains_vector(p, vec):
    """Whether the point p contains the Laurent vector vec."""
    return reduce_point([*vectors(p), vec], p.tail) == p


def contains_point(p, other):
    """Whether the point p contains the point other."""
    if any(not contains_vector(p, {e: F(1)}) for e in range(-other.tail, -p.tail)):
        return False
    return all(contains_vector(p, v) for v in vectors(other))


S = lambda parts, D=6: schur_of_partition(Partition(parts), D)


def exp_to_index(e: int) -> F:
    """The wedge index -e - 1/2 of the loop vector s**e."""
    return F(-2 * e - 1, 2)


class TestReduce:
    def test_tail_absorption(self):
        p = reduce_point([{-1: F(1), 1: F(1)}, {0: F(1)}], 0)
        assert pivots(p) == [-1]
        assert vectors(p) == [{-1: F(1)}]

    def test_elimination(self):
        p = reduce_point([{-2: F(1)}, {-2: F(1), 1: F(1)}], -1)
        assert pivots(p) == [-2]

    def test_zero_vector(self):
        assert reduce_point([{}], 0) == reduce_point([], 0)

    def test_canonical_across_presentations(self):
        a = reduce_point([{-2: F(2), -1: F(4)}], 0)
        b = reduce_point([{-2: F(1), -1: F(2)}, {-2: F(3), -1: F(6)}], 0)
        assert a == b
        # int coefficients are read as the same integer pairs, never a
        # float from 1/2
        c = reduce_point([{-2: 2, -1: 1}], 0)
        assert c == reduce_point([{-2: F(1), -1: F(1, 2)}], 0)
        assert vectors(c) == [{-2: 1, -1: F(1, 2)}]

    def test_membership(self):
        p = reduce_point([{-2: F(1), -1: F(1)}], 0)
        assert contains_vector(p, {-2: F(2), -1: F(2), 3: F(5)})
        assert not contains_vector(p, {-2: F(1)})

    def test_json_roundtrip(self):
        p = reduce_point([{-3: F(1), -1: F(1, 2)}], -1)
        rows, tail = point_rows(p.to_json())
        assert (rows, tail) == (list(p.rows), -1)
        assert reduce_rows(rows, tail) == p

    def test_parts_past_the_exponent_field(self):
        # a part below the tail at d = -tail - 1 - e >= 2**15, past what a
        # packed exponent holds, reduces exactly in the library; the CLI
        # refuses such a point earlier, by MAX_WEIGHT (test_cli.py's
        # TestPointBudget, at d = 2,000,001)
        deep = -2**16 - 5
        p = reduce_point([{deep: F(2), -3: F(4)}, {deep: F(1), -2: F(1)}], 0)
        assert vectors(p) == [{deep: F(1), -2: F(1)}, {-3: F(1), -2: F(-1, 2)}]
        assert contains_vector(p, {deep: F(1), -3: F(2), 5: F(7)})


class TestCharge:
    @pytest.mark.parametrize("vectors,tail,expected", [
        ([], 0, 0),
        ([{-2: F(1)}], -1, 0),
        ([{-2: F(1)}], 0, 1),
    ])
    def test_examples(self, vectors, tail, expected):
        assert reduce_point(vectors, tail).charge == expected

    def test_codimension_definition(self):
        # dim W/H_j = charge - j for deep tails
        p = reduce_point([{-2: F(1)}], -1)
        for j in (-3, -5):
            dim = len(p.rows) + (p.tail - j)
            assert dim == p.charge - j


class TestStableSubspace:
    def test_full_cone_is_reduced(self):
        p = reduce_point([], 0)
        sub, n = stable_subspace(p, 3)
        assert n == 0 and sub == p

    def test_golden_point(self, golden_point):
        sub, n = stable_subspace(golden_point, 1)
        assert n == 1
        assert sub == reduce_point([], -1)

    def test_invariant_vector(self):
        p = reduce_point([{-1: F(1), 1: F(1)}], 0)
        _, n = stable_subspace(p, 1)
        assert n == 0

    def test_maximality(self):
        rng = random.Random(3)
        for _ in range(25):
            p = random_grpoint(rng)
            for k in (1, 2):
                sub, n = stable_subspace(p, k)
                assert contains_point(p, sub)
                for vec in vectors(sub):
                    assert contains_vector(p, shifted(vec, k))
                assert len(p.rows) - len(sub.rows) == n

    def test_tail_growth_never_raises_n(self):
        rng = random.Random(5)
        for _ in range(30):
            p = random_grpoint(rng)
            k = rng.randint(1, 3)
            _, n = stable_subspace(p, k)
            grown = reduce_point(vectors(p), p.tail + 1)
            _, n2 = stable_subspace(grown, k)
            assert n2 <= n


def sympy_rank(grid):
    """Rank of a list of rational rows, computed by SymPy."""
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                          for c in row] for row in grid]).rank()


class TestSympyOracle:
    """Ranks from SymPy, which shares no code with the elimination here."""

    def test_filtration_level_is_rank_growth(self):
        # n = rank([W; s^k W]) - rank(W) on the coordinates below the tail
        rng = random.Random(41)
        for _ in range(30):
            p = random_grpoint(rng, max_extras=4, span=6)
            W = vectors(p)
            coords = range(min(pivots(p)), -p.tail)
            for k in (1, 2, 3):
                stacked = W + [shifted(v, k) for v in W]
                grid = [[v.get(e, F(0)) for e in coords] for v in stacked]
                _, n = stable_subspace(p, k)
                assert n == sympy_rank(grid) - sympy_rank(grid[:len(W)])

    def test_basis_is_the_reduced_row_echelon_form(self):
        # with the columns in ascending exponent order, the lowest exponent
        # is the leftmost column, so the basis must be the nonzero rows of
        # SymPy's rref: pivots leftmost, rows monic and fully reduced
        sympy = pytest.importorskip("sympy")
        rng = random.Random(47)
        for _ in range(40):
            tail = rng.randint(-3, 2)
            lo = -tail - rng.randint(1, 8)
            span = range(lo, -tail + 2)  # the top two columns are in H_tail
            raw = [{e: F(rng.choice([0, 0, 0, 1, -1, 2, -3]), rng.randint(1, 3))
                    for e in span} for _ in range(rng.randint(1, 6))]
            if len(raw) > 1:  # a dependent row
                raw.append({e: raw[0][e] * 2 - raw[-1][e] for e in span})
            coords = range(lo, -tail)
            rref, _ = sympy.Matrix([[sympy.Rational(v[e].numerator, v[e].denominator)
                                     for e in coords] for v in raw]).rref()
            expected = [[F(int(c.p), int(c.q)) for c in row]
                        for row in rref.tolist() if any(row)]
            point = reduce_point(raw, tail)
            assert [[v.get(e, F(0)) for e in coords] for v in vectors(point)] == expected

    def test_generator_rejects_exactly_the_rank_deficient(self):
        rng = random.Random(43)
        seen = set()
        for _ in range(80):
            M = rng.randint(2, 5)
            N = rng.randint(1, M - 1)
            entries = [[F(rng.choice([0, 0, 0, 1, -1, 2])) for _ in range(N)]
                       for _ in range(M)]
            full = sympy_rank(entries) == N
            seen.add(full)
            try:
                generate_from_matrix(entries, rng.randint(1, 2), N)
            except GrassmannError as exc:
                assert ("rank" in str(exc)) != full
            else:
                assert full
        assert seen == {True, False}


def fraction_det(rows) -> F:
    """The determinant of a square Fraction matrix, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    det = F(1)
    for i in range(len(rows)):
        pivot = next((r for r in range(i, len(rows)) if rows[r][i]), None)
        if pivot is None:
            return F(0)
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            det = -det
        det *= rows[i][i]
        for r in range(i + 1, len(rows)):
            f = rows[r][i] / rows[i][i]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[i])]
    return det


class TestWedgeMinors:
    def test_coefficients_are_the_minors(self):
        # f_1 ^ .. ^ f_N over H_tail: the state whose codes above the
        # filled tail are c_1 > .. > c_N has the minor det f_j(c_i), s**e
        # at code -e - 1; entries inside the tail hit filled codes.  Each
        # factor is a row keyed from the top exponent -tail + 1 down, key d
        # at code tail - 2 + d, as the s**k multiple of a row is at tail - k
        rng = random.Random(53)
        for trial in range(80):
            tail, N = rng.randint(-3, 2), rng.randint(1, 4)
            low = -tail - N - rng.randint(0, 3)
            factors = []
            for _ in range(N):
                vec = {}
                for e in range(low, -tail + 2):
                    c = rng.choice([0, 0, 1, -1, 2, -3])
                    if c:
                        vec[e] = F(c, rng.randint(1, 5)) if trial % 2 else F(c)
                factors.append(vec)
            rows = [MPoly(1, {(-tail + 1 - e,): c for e, c in f.items()}) for f in factors]
            got = _wedge([(row, tail - 2) for row in rows], _vacuum(tail)).terms
            free = sorted({-e - 1 for f in factors for e in f if -e - 1 >= tail},
                          reverse=True)
            want = {}
            for codes in combinations(free, N):
                minor = fraction_det([[f.get(-c - 1, F(0)) for f in factors]
                                      for c in codes])
                if minor:
                    parts = (c - tail - N + s for s, c in enumerate(codes, start=1))
                    want[MayaState(tail + N, tuple(lam for lam in parts if lam))] = minor
            assert got == want, (factors, tail)


class TestTau:
    def test_full_cone(self):
        cp = tau_of(reduce_point([], 3))
        assert cp.poly == MPoly.const(1, 1) and cp.charge == 3

    def test_golden(self, golden_point):
        cp = tau_of(golden_point)
        assert cp.poly.embed(6) == elementary_schur(2, 6) and cp.charge == 0

    def test_two_vector_example(self):
        p = reduce_point([{-1: F(1), 1: F(1)}, {0: F(1)}], -2)
        cp = tau_of(p)
        assert cp.poly.embed(6) == S((1, 1)) - MPoly.const(6, 1)
        assert cp.charge == 0

    def test_pivot_minor_normalization(self):
        rng = random.Random(7)
        for _ in range(20):
            p = random_grpoint(rng)
            cp = tau_of(p)
            wedge = poly_to_fock(cp)
            anchor = MayaState(cp.charge, tuple(
                sorted((int(-e - F(1, 2) - p.tail + 0) for e in []), reverse=True)))
            # the anchor coefficient is the pivot-minor and equals one
            indices = sorted((exp_to_index(e) for e in pivots(p)), reverse=True)
            parts = []
            for s, idx in enumerate(indices, start=1):
                parts.append(int(idx - cp.charge + s - F(1, 2)))
            while parts and parts[-1] == 0:
                parts.pop()
            assert wedge.terms.get(MayaState(cp.charge, tuple(parts))) == 1

    def test_annihilator_is_the_point(self):
        rng = random.Random(11)
        for _ in range(15):
            p = random_grpoint(rng)
            wedge = poly_to_fock(tau_of(p))
            for vec in vectors(p):
                column = {exp_to_index(e): c for e, c in vec.items()}
                assert wedge_vector(column, wedge).is_zero
            for e in range(-p.tail, -p.tail + 3):
                assert wedge_vector({exp_to_index(e): F(1)}, wedge).is_zero
            # something outside the point must not annihilate
            outside = {exp_to_index(min(pivots(p)) - 1): F(1)}
            assert not wedge_vector(outside, wedge).is_zero


class TestCompanions:
    def test_full_cone_has_none(self):
        tau, rhos, sigmas = companions(reduce_point([], 0), 1)
        assert tau.poly == MPoly.const(1, 1)
        assert rhos == [] and sigmas == []

    def test_golden_k1(self, golden_point):
        tau, rhos, sigmas = companions(golden_point, 1)
        assert tau.poly.embed(6) == elementary_schur(2, 6)
        assert len(rhos) == 1
        assert rhos[0].poly.embed(6) == -S((1, 1)) and rhos[0].charge == 1
        assert sigmas[0].poly.embed(6) == MPoly.const(6, 1) and sigmas[0].charge == -2

    def test_golden_k2(self, golden_point):
        tau, rhos, sigmas = companions(golden_point, 2)
        assert len(rhos) == 1
        assert sigmas[0].charge == -3

    def test_charges(self):
        rng = random.Random(13)
        for _ in range(15):
            p = random_grpoint(rng)
            k = rng.randint(1, 3)
            tau, rhos, sigmas = companions(p, k)
            m = tau.charge
            assert all(r.charge == m + 1 for r in rhos)
            assert all(s.charge == m - k - 1 for s in sigmas)
            assert len(rhos) == stable_subspace(p, k)[1]

    def test_pairing_telescopes_to_companions(self, golden_point):
        tau_fv, rho_fvs, sigma_fvs = companion_wedges(golden_point, 1)
        shifted = FockVector({MayaState(s.charge - 1, s.parts): c
                              for s, c in tau_fv.terms.items()})
        got = fermionic_pairing(tau_fv, shifted)
        expect = {}
        for rf, sf in zip(rho_fvs, sigma_fvs):
            for (a, ca) in rf.terms.items():
                for (b, cb) in sf.terms.items():
                    key = (a, b)
                    expect[key] = expect.get(key, F(0)) + ca * cb
        assert got == {k: v for k, v in expect.items() if v}

    def test_point_inclusions(self):
        # the tau point sits inside each rho point (every tau basis vector
        # annihilates rho), and each sigma wedge is annihilated by the
        # whole k-shifted tau point
        rng = random.Random(17)
        for _ in range(10):
            p = random_grpoint(rng)
            k = rng.randint(1, 2)
            _, n = stable_subspace(p, k)
            tau_fv, rho_fvs, sigma_fvs = companion_wedges(p, k)
            for rf in rho_fvs:
                for vec in vectors(p):
                    column = {exp_to_index(e): c for e, c in vec.items()}
                    assert wedge_vector(column, rf).is_zero
            shifted_point = reduce_point([shifted(v, k) for v in vectors(p)],
                                         p.tail - k)
            for sf in sigma_fvs:
                # every vector of the shifted tau point annihilates sigma
                # except along one dropped direction, so wedging the whole
                # shifted point onto sigma spans at most one new line
                survivors = []
                for vec in vectors(shifted_point):
                    column = {exp_to_index(e): c for e, c in vec.items()}
                    hit = wedge_vector(column, sf)
                    if not hit.is_zero:
                        survivors.append(hit)
                for a in survivors:
                    for b in survivors:
                        # proportional: a*coef_b == b*coef_a on every state
                        sa, ca = next(iter(a.terms.items()))
                        assert (a * b.terms.get(sa, F(0)) - b * ca).is_zero
            assert n == len(rho_fvs)


class TestDtk:
    def test_full_cone(self):
        assert dtk_decomposition(reduce_point([], 0), 1) == []

    def test_golden(self, golden_point):
        parts = dtk_decomposition(golden_point, 1)
        assert len(parts) == 1 and parts[0].poly.embed(6) == MPoly.variable(6, 1)
        parts = dtk_decomposition(golden_point, 2)
        assert len(parts) == 1 and parts[0].poly.embed(6) == MPoly.const(6, 1)

    def test_sums_to_derivative(self):
        rng = random.Random(19)
        from tauforge.hirota import kp_residue
        for _ in range(10):
            p = random_grpoint(rng)
            k = rng.randint(1, 3)
            tau = tau_of(p)
            D = max(tau.poly.vars, k, 1)
            parts = dtk_decomposition(p, k)
            total = MPoly.zero(D)
            for cp in parts:
                total = total + cp.poly.embed(D)
                assert kp_residue(cp).is_zero
            assert total == tau.poly.embed(D).differentiate(k)


class TestGenerator:
    def test_unit_column(self):
        entries = [[F(1)], [F(0)], [F(0)]]
        point, tau, report = generate_from_matrix(entries, 1, 0)
        assert tau.poly == MPoly.const(tau.poly.vars, 1)
        assert report.violating_columns == ()

    def test_top_column(self):
        entries = [[F(0)], [F(0)], [F(1)]]
        point, tau, report = generate_from_matrix(entries, 1, 1)
        assert tau.poly == elementary_schur(2, tau.poly.vars)
        assert report.violating_columns == (1,)
        # tau_of reproduces tau up to a nonzero scalar (exactly here)
        assert tau_of(point).poly.embed(tau.poly.vars) == tau.poly

    def test_two_columns(self):
        entries = [[F(0), F(0)], [F(0), F(1)], [F(1), F(0)]]
        point, tau, report = generate_from_matrix(entries, 1, 1)
        D = tau.poly.vars
        assert tau.poly == elementary_schur(2, D) - MPoly.variable(D, 1)**2
        assert report.violating_columns == (2,)
        other = tau_of(point)
        assert other.poly.embed(D) == -tau.poly  # the pivot normalization flips it

    def test_rank_deficiency(self):
        entries = [[F(0), F(0)], [F(0), F(0)], [F(1), F(1)]]
        with pytest.raises(GrassmannError):
            generate_from_matrix(entries, 1, 2)

    def test_duplicate_shift_rejected(self):
        # columns (e_2, e_3): R A_2 = e_2 = A_1, which the chain data forbids
        entries = [[F(0), F(0)], [F(1), F(0)], [F(0), F(1)]]
        with pytest.raises(GrassmannError):
            generate_from_matrix(entries, 1, 2)

    def test_violation_budget(self):
        entries = [[F(0)], [F(0)], [F(1)]]
        with pytest.raises(GeneratorConditionError) as err:
            generate_from_matrix(entries, 1, 0)
        assert err.value.report.violating_columns == (1,)

    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_k_rejected(self, k):
        entries = [[F(0), F(1)], [F(1), F(0)], [F(0), F(0)]]
        with pytest.raises(GrassmannError, match="must be positive"):
            generate_from_matrix(entries, k, 2)

    def test_violation_count_is_filtration_level(self):
        entries = [[F(0), F(0)], [F(0), F(1)], [F(1), F(0)]]
        point, tau, report = generate_from_matrix(entries, 1, 1)
        _, n = stable_subspace(point, 1)
        assert n == len(report.violating_columns) == 1

    @staticmethod
    def determinant(entries):
        """Oracle: det(sum_l S_{l-i} A_{lj}) over i, j = 1..N in M - 1
        variables, expanded by Laplace."""
        M, N = len(entries), len(entries[0])
        D = max(M - 1, 1)
        grid = [[sum((elementary_schur(l - i, D) * entries[l - 1][j]
                      for l in range(i, M + 1) if entries[l - 1][j]), MPoly.zero(D))
                 for j in range(N)] for i in range(1, N + 1)]
        return _det(grid, D)

    @pytest.mark.parametrize("rational", [False, True])
    def test_wedge_is_the_determinant(self, rational):
        # Sato's formula on the raw columns equals the determinant exactly,
        # not up to a scalar: the reversed wedge cancels the column reversal
        rng = random.Random(41 + rational)

        def entry():
            if rational:
                return F(rng.randint(-9, 9), rng.randint(1, 9))
            return F(rng.randint(-2, 2))

        shapes = [(8, 6), (8, 5), (7, 6), (8, 1)]
        while len(shapes) < 24:
            M = rng.randint(2, 6)
            shapes.append((M, rng.randint(1, M - 1)))
        for M, N in shapes:
            for _ in range(20):
                entries = [[entry() for _ in range(N)] for _ in range(M)]
                try:
                    _, tau, _ = generate_from_matrix(entries, rng.randint(1, 2), N)
                except GrassmannError:  # rank below N or a duplicated shift
                    continue
                assert tau.charge == 0
                assert tau.poly == self.determinant(entries), (M, N)
                break
            else:
                raise AssertionError(f"no admissible {M} x {N} matrix drawn")

    def test_random_matrices_match_their_points(self):
        # tau (the wedge of the raw columns) and tau_of(point) (the wedge of
        # the echelon basis, scaled to pivot minor 1) agree up to one scalar
        # for arbitrary shapes and powers, and the violation count bounds
        # the true filtration level
        rng = random.Random(37)
        done = 0
        while done < 15:
            M = rng.randint(2, 5)
            N = rng.randint(1, M - 1)
            k = rng.randint(1, 2)
            entries = [[F(rng.randint(-2, 2)) for _ in range(N)]
                       for _ in range(M)]
            try:
                point, tau, report = generate_from_matrix(entries, k, N)
            except GrassmannError:
                continue
            via_point = tau_of(point)  # may need more slots than M - 1
            assert via_point.charge == tau.charge
            D = via_point.poly.vars
            lifted = tau.poly.embed(D)
            ratio = None
            for exp, coef in lifted.terms.items():
                other = via_point.poly.terms.get(exp)
                assert other is not None
                r = coef / other
                ratio = r if ratio is None else ratio
                assert r == ratio
            assert (lifted - via_point.poly * ratio).is_zero
            _, n_min = stable_subspace(point, k)
            assert n_min <= len(report.violating_columns)
            done += 1


class TestPhiConsistency:
    def test_window_matrix_matches_point(self):
        rng = random.Random(23)
        done = 0
        while done < 12:
            N = 4
            entries = {}
            m = rng.randint(-2, 2)
            for _ in range(rng.randint(1, 3)):
                col = half(rng.choice(range(-2 * N + 1, 2 * m, 2)))
                row = half(rng.choice(range(-2 * N + 1, 2 * N, 2)))
                entries[(row, col)] = F(rng.randint(-2, 2))
            wm = WindowMatrix(N, entries)
            try:
                wedge = apply_window_matrix(wm, m)
            except Exception:
                continue
            point = grpoint_from_window_matrix(wm, m)
            assert point.charge == m
            direct = sigma_single(wedge, 12)
            via_point = tau_of(point)
            # equal up to one global nonzero rational
            ratio = None
            for state, coef in wedge.terms.items():
                other = poly_to_fock(via_point).terms.get(state)
                assert other is not None
                r = coef / other
                if ratio is None:
                    ratio = r
                assert r == ratio
            assert (direct.poly - via_point.poly.embed(12) * ratio).is_zero
            done += 1


class TestFiltrationBounds:
    def test_n_bounded_by_extras_plus_k(self):
        rng = random.Random(29)
        for _ in range(40):
            p = random_grpoint(rng)
            for k in (1, 2, 3):
                _, n = stable_subspace(p, k)
                assert n <= len(p.rows) + k
                assert n >= 0
