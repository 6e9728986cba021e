import random
from fractions import Fraction as F

import pytest

from tauforge.mpoly import MPoly
from tauforge.zseries import ZSeries
from tauforge.schur import DomainError, elementary_schur, miwa_shift
from tauforge.fock import (FockVector, MayaState, WindowError, WindowMatrix,
                           alpha, apply_window_matrix, fermionic_pairing, half,
                           poly_to_fock, psi_minus, psi_plus, r_matrix_unit,
                           shift_charge, sigma_map, sigma_single, tensor_of)

from conftest import random_state


VAC = FockVector.vacuum


class TestMayaState:
    def test_vacuum_indices(self):
        v = MayaState(0)
        assert [v.index(s) for s in (1, 2, 3)] == [half(-1), half(-3), half(-5)]

    def test_partition_indices(self):
        v = MayaState(0, (2,))
        assert v.index(1) == half(3)
        assert v.index(2) == half(-3)

    def test_occupied(self):
        v = MayaState(0, (2,))
        assert v.occupied(half(3)) and v.occupied(half(-3))
        assert not v.occupied(half(1)) and not v.occupied(half(-1))
        assert v.occupied(half(-101))

    def test_json(self):
        v = MayaState(-2, (3, 1))
        assert MayaState.from_json(v.to_json()) == v


class TestFermionOps:
    def test_annihilation_above_vacuum(self):
        assert psi_plus(half(1), VAC(0)).is_zero
        assert psi_minus(half(1), VAC(0)).is_zero

    def test_wedge_below(self):
        assert psi_plus(half(-1), VAC(0)) == VAC(1)
        assert psi_plus(half(-1), VAC(1)).is_zero

    def test_contract(self):
        assert psi_minus(half(1), VAC(1)) == VAC(0)
        # removing the top of the charge-0 vacuum leaves the shifted vacuum
        assert psi_minus(half(-1), VAC(0)) == VAC(-1)
        assert psi_minus(half(-3), VAC(0)) == \
            FockVector.of(MayaState(-1, (1,)), -1)

    def test_charge_steps(self):
        rng = random.Random(2)
        for _ in range(60):
            st = FockVector.of(random_state(rng))
            j = half(rng.choice(range(-7, 8, 2)))
            up = psi_plus(j, st)
            down = psi_minus(j, st)
            m = next(iter(st.terms)).charge
            assert up.charges() <= {m + 1}
            assert down.charges() <= {m - 1}

    def test_clifford_relations(self):
        rng = random.Random(7)
        ops = {"+": psi_plus, "-": psi_minus}
        for _ in range(120):
            st = FockVector.of(random_state(rng), F(rng.randint(1, 5), rng.randint(1, 3)))
            i = half(rng.choice(range(-7, 8, 2)))
            j = half(rng.choice(range(-7, 8, 2)))
            la, mu = rng.choice("+-"), rng.choice("+-")
            lhs = ops[la](i, ops[mu](j, st)) + ops[mu](j, ops[la](i, st))
            expect = st if (la != mu and i == -j) else FockVector()
            assert lhs == expect, (la, i, mu, j)


class TestMatrixUnits:
    def test_highest_weight_diagonal(self):
        assert r_matrix_unit(half(-1), half(-1), VAC(0)) == VAC(0)
        assert r_matrix_unit(half(1), half(1), VAC(0)).is_zero

    def test_raising(self):
        assert r_matrix_unit(half(1), half(-1), VAC(0)) == \
            FockVector.of(MayaState(0, (1,)))

    def test_annihilates_for_upper_units(self):
        rng = random.Random(5)
        for _ in range(30):
            m = rng.randint(-2, 2)
            i = half(rng.choice(range(-5, 6, 2)))
            j = i + rng.randint(1, 3)
            assert r_matrix_unit(i, j, VAC(m)).is_zero  # i < j on the vacuum


class TestBosons:
    def test_positive_modes_kill_vacuum(self):
        assert alpha(1, VAC(0)).is_zero
        assert alpha(3, VAC(-2)).is_zero

    def test_alpha_minus_one(self):
        assert alpha(-1, VAC(0)) == FockVector.of(MayaState(0, (1,)))

    def test_sigma_of_alpha_action(self):
        img = sigma_single(alpha(-1, VAC(0)), 4)
        assert img.poly == MPoly.variable(4, 1)
        assert img.charge == 0

    def test_oscillator_relations(self):
        rng = random.Random(11)
        modes = [-4, -3, -2, -1, 1, 2, 3, 4]
        for _ in range(60):
            st = FockVector.of(random_state(rng))
            k, l = rng.choice(modes), rng.choice(modes)
            lhs = alpha(k, alpha(l, st)) - alpha(l, alpha(k, st))
            expect = st * k if k == -l else FockVector()
            assert lhs == expect, (k, l)

    def test_alpha_zero_is_charge(self):
        st = FockVector.of(MayaState(3, (2, 1)))
        assert alpha(0, st) == st * 3


class TestChargeShift:
    def test_vacuum_shifts(self):
        assert shift_charge(1, VAC(0)) == VAC(1)
        assert shift_charge(-1, VAC(1)) == VAC(0)

    def test_partition_preserved(self):
        st = FockVector.of(MayaState(0, (2,)))
        assert shift_charge(-1, st) == FockVector.of(MayaState(-1, (2,)))

    def test_commutation_with_fermions(self):
        rng = random.Random(13)
        for _ in range(60):
            st = FockVector.of(random_state(rng))
            k = half(rng.choice(range(-7, 8, 2)))
            assert shift_charge(1, psi_plus(k, st)) == \
                psi_plus(k - 1, shift_charge(1, st))
            assert shift_charge(1, psi_minus(k, st)) == \
                psi_minus(k + 1, shift_charge(1, st))


class TestWindowMatrix:
    def test_identity(self):
        for m in (-2, 0, 2):
            assert apply_window_matrix(WindowMatrix(3), m) == VAC(m)

    def test_single_column_swap(self):
        wm = WindowMatrix(3, {(half(3), half(-1)): F(1),
                              (half(-1), half(-1)): F(0)})
        assert apply_window_matrix(wm, 0) == FockVector.of(MayaState(0, (2,)))

    def test_two_term_column(self):
        wm = WindowMatrix(3, {(half(1), half(-1)): F(1),
                              (half(-3), half(-1)): F(1),
                              (half(-1), half(-1)): F(0),
                              (half(-1), half(-3)): F(1),
                              (half(-3), half(-3)): F(0)})
        expect = FockVector.of(MayaState(0, (1, 1))) - VAC(0)
        assert apply_window_matrix(wm, 0) == expect

    def test_dependent_columns_rejected(self):
        wm = WindowMatrix(2, {(half(-3), half(-1)): F(1),
                              (half(-1), half(-1)): F(0)})
        with pytest.raises(WindowError):
            apply_window_matrix(wm, 0)

    def test_target_window_overflow(self):
        wm = WindowMatrix(3, {(half(5), half(-1)): F(1)})
        with pytest.raises(WindowError):
            apply_window_matrix(wm, 0, target_window=2)

    def test_entry_outside_window_rejected(self):
        with pytest.raises(WindowError):
            WindowMatrix(2, {(half(5), half(-1)): F(1)})


class TestSigmaMap:
    def test_vacuum(self):
        for m in (-2, 0, 3):
            out = sigma_map(VAC(m), 1)
            assert len(out) == 1
            assert out[0].charge == m
            assert out[0].poly == MPoly.const(1, 1)

    def test_single_row_state(self):
        img = sigma_single(FockVector.of(MayaState(0, (2,))), 3)
        assert img.poly == elementary_schur(2, 3)

    def test_var_count_guard(self):
        with pytest.raises(DomainError):
            sigma_map(FockVector.of(MayaState(0, (3,))), 2)

    def test_poly_to_fock_roundtrip(self):
        rng = random.Random(17)
        for _ in range(20):
            st = random_state(rng)
            vec = FockVector.of(st, F(rng.randint(1, 4), rng.randint(1, 3)))
            cp = sigma_single(vec, 10)
            assert poly_to_fock(cp) == vec

    def test_vertex_operator_coefficients(self):
        # the fermion field action matches the charge-shifted exponential
        # kernel acting on the image polynomial, order by order to z^8
        D = 26
        rng = random.Random(19)

        def xi_exp(sign):
            coeffs = {}
            for i in range(23):
                s = elementary_schur(i, D)
                if sign < 0:
                    s = s.scale_vars([F(-1)] * D)
                coeffs[i] = s
            return ZSeries(D, coeffs, 22)

        plus_kernel = xi_exp(+1)
        minus_kernel = xi_exp(-1)
        for _ in range(12):
            st = FockVector.of(random_state(rng, max_part=4, max_len=2))
            a = next(iter(st.terms)).charge
            f = sigma_single(st, D)
            lowered = miwa_shift(f.poly, -1)
            raised = miwa_shift(f.poly, +1)
            for n in range(-4, 9):
                k = F(2 * n - 1, 2)
                zpow = int(-k - F(1, 2))
                ferm = sigma_map(psi_plus(k, st), D)
                got = ferm[0].poly if ferm else MPoly.zero(D)
                assert got == ZSeries.product_coeff(plus_kernel, lowered,
                                                    order=zpow - a)
                ferm = sigma_map(psi_minus(k, st), D)
                got = ferm[0].poly if ferm else MPoly.zero(D)
                assert got == ZSeries.product_coeff(minus_kernel, raised,
                                                    order=zpow + a)

    def test_sigma_intertwining(self):
        rng = random.Random(23)
        D = 16
        for _ in range(50):
            st = FockVector.of(random_state(rng, max_part=3, max_len=3))
            img = sigma_single(st, D)
            m = rng.randint(1, 3)
            creation = sigma_map(alpha(-m, st), D)
            got = creation[0].poly if creation else MPoly.zero(D)
            assert got == img.poly * MPoly.variable(D, m) * m
            annihilation = sigma_map(alpha(m, st), D)
            got = annihilation[0].poly if annihilation else MPoly.zero(D)
            assert got == img.poly.differentiate(m)
            shifted = sigma_single(shift_charge(1, st), D)
            assert shifted.charge == img.charge + 1
            assert shifted.poly == img.poly


class TestPairing:
    def test_vacuum_pairs_to_zero(self):
        assert fermionic_pairing(VAC(0), VAC(0)) == {}

    def test_perfect_wedge_pairs_to_zero(self):
        wm = WindowMatrix(3, {(half(1), half(-1)): F(1),
                              (half(-3), half(-1)): F(1),
                              (half(-1), half(-1)): F(0),
                              (half(-1), half(-3)): F(1),
                              (half(-3), half(-3)): F(0)})
        wedge = apply_window_matrix(wm, 0)
        assert fermionic_pairing(wedge, wedge) == {}

    def test_non_decomposable_fails(self):
        bad = FockVector.of(MayaState(0, (2,))) + FockVector.of(MayaState(0, (1, 1)))
        assert fermionic_pairing(bad, bad)

    def test_window_guard(self):
        big = FockVector.of(MayaState(0, (9,)))
        with pytest.raises(WindowError):
            fermionic_pairing(big, big, window=4)

    def test_tensor_of(self):
        u = FockVector.of(MayaState(1), 2)
        v = FockVector.of(MayaState(0, (1,)), F(1, 2))
        assert tensor_of(u, v) == {(MayaState(1), MayaState(0, (1,))): F(1)}


def test_fock_vector_json_roundtrip():
    vec = FockVector({MayaState(0, (2,)): F(3, 2), MayaState(-1): F(-1)})
    assert FockVector.from_json(vec.to_json()) == vec
