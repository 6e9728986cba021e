import ast
import inspect
import math
import random
from fractions import Fraction as F

import pytest

import tauforge.fock as fock
from tauforge.mpoly import MPoly
from tauforge.zseries import ZSeries
from tauforge.schur import (DomainError, Partition, elementary_schur, miwa_shift,
                            schur_of_partition)
from tauforge.fock import (FockVector, MayaState, WindowError, WindowMatrix,
                           _code, _codes, _contracted, _wedged, alpha,
                           apply_window_matrix, fermionic_pairing, pairing_defect,
                           poly_to_fock, psi_minus, psi_plus, r_matrix_unit,
                           shift_charge, sigma_map, sigma_single, wedge_columns,
                           wedge_ints, wedge_vector)
from tauforge.hirota import fermionic_bilinear_check

from conftest import (flip_signs, half, one_state, partitions_up_to,
                      product_coeff, random_state)


def index(state, s):
    """s-th wedge index (1-based), lambda_s + m - s + 1/2."""
    lam = state.parts[s - 1] if s <= len(state.parts) else 0
    return F(2 * (lam + state.charge - s) + 1, 2)


def position(state, p):
    """The position s holding the half-integer index p, or None when p is
    free: at or below the top of the filled tail the code m - s."""
    c, m = _code(p), state.charge
    codes = _codes(m, state.parts)
    if c <= codes[-1]:
        return m - c
    return codes.index(c) + 1 if c in codes else None


def occupied(state, p):
    """Whether the half-integer index p is filled in state."""
    return position(state, p) is not None


def insert_index(state, p):
    """Wedge v_p in front and sort; None when p is already occupied."""
    m, parts = state.charge, state.parts
    hit = _wedged(_codes(m, parts), m, parts, _code(p))
    return None if hit is None else (hit[0], MayaState(m + 1, hit[1]))


def remove_index(state, p):
    """Contract index p with sign (-1)**(s+1); None when p is absent."""
    s = position(state, p)
    if s is None:
        return None
    sign, parts = _contracted(state.parts, s)
    return sign, MayaState(state.charge - 1, parts)


def VAC(m):
    return one_state(MayaState(m))


class TestMayaState:
    def test_vacuum_indices(self):
        v = MayaState(0)
        assert [index(v, s) for s in (1, 2, 3)] == [half(-1), half(-3), half(-5)]

    def test_partition_indices(self):
        v = MayaState(0, (2,))
        assert index(v, 1) == half(3)
        assert index(v, 2) == half(-3)

    def test_occupied(self):
        v = MayaState(0, (2,))
        assert occupied(v, half(3)) and occupied(v, half(-3))
        assert not occupied(v, half(1)) and not occupied(v, half(-1))
        assert occupied(v, half(-101))

    def test_json(self):
        v = MayaState(-2, (3, 1))
        assert MayaState.from_json(v.to_json()) == v

    @pytest.mark.parametrize("parts", [[1, 2], [2, 0], [-1]])
    def test_json_parts_must_form_a_partition(self, parts):
        with pytest.raises(ValueError):
            MayaState.from_json({"charge": 0, "partition": parts})


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
            one_state(MayaState(-1, (1,)), -1)

    def test_charge_steps(self):
        rng = random.Random(2)
        for _ in range(60):
            st = one_state(random_state(rng))
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
            st = one_state(random_state(rng), F(rng.randint(1, 5), rng.randint(1, 3)))
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
            one_state(MayaState(0, (1,)))

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
        assert alpha(-1, VAC(0)) == one_state(MayaState(0, (1,)))

    def test_sigma_of_alpha_action(self):
        img = sigma_single(alpha(-1, VAC(0)), 4)
        assert img.poly == MPoly.variable(4, 1)
        assert img.charge == 0

    def test_oscillator_relations(self):
        rng = random.Random(11)
        modes = [-4, -3, -2, -1, 1, 2, 3, 4]
        for _ in range(60):
            st = one_state(random_state(rng))
            k, l = rng.choice(modes), rng.choice(modes)
            lhs = alpha(k, alpha(l, st)) - alpha(l, alpha(k, st))
            expect = st * k if k == -l else FockVector()
            assert lhs == expect, (k, l)

    def test_alpha_zero_is_charge(self):
        st = one_state(MayaState(3, (2, 1)))
        assert alpha(0, st) == st * 3


class TestChargeShift:
    def test_vacuum_shifts(self):
        assert shift_charge(1, VAC(0)) == VAC(1)
        assert shift_charge(-1, VAC(1)) == VAC(0)

    def test_partition_preserved(self):
        st = one_state(MayaState(0, (2,)))
        assert shift_charge(-1, st) == one_state(MayaState(-1, (2,)))

    def test_commutation_with_fermions(self):
        rng = random.Random(13)
        for _ in range(60):
            st = one_state(random_state(rng))
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
        assert apply_window_matrix(wm, 0) == one_state(MayaState(0, (2,)))

    def test_two_term_column(self):
        wm = WindowMatrix(3, {(half(1), half(-1)): F(1),
                              (half(-3), half(-1)): F(1),
                              (half(-1), half(-1)): F(0),
                              (half(-1), half(-3)): F(1),
                              (half(-3), half(-3)): F(0)})
        expect = one_state(MayaState(0, (1, 1))) - VAC(0)
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
        img = sigma_single(one_state(MayaState(0, (2,))), 3)
        assert img.poly == elementary_schur(2, 3)

    def test_var_count_guard(self):
        with pytest.raises(DomainError):
            sigma_map(one_state(MayaState(0, (3,))), 2)

    def test_weight_above_D_when_every_hook_fits(self):
        # (2,2) has weight 4 and hook 3, (3) and (1,1,1) hook 3
        vec = FockVector({MayaState(1, (2, 2)): F(1, 2), MayaState(1, (3,)): F(-3),
                          MayaState(1, (1, 1, 1)): F(1)})
        img = sigma_single(vec, 3)
        want = sum((schur_of_partition(Partition(s.parts), 4) * c
                    for s, c in vec.terms.items()), MPoly.zero(4))
        assert img.charge == 1 and img.poly.vars == 3
        assert img.poly.embed(4) == want

    def test_poly_to_fock_roundtrip(self):
        rng = random.Random(17)
        for _ in range(20):
            st = random_state(rng)
            vec = one_state(st, F(rng.randint(1, 4), rng.randint(1, 3)))
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
                    s = flip_signs(s, [-1] * D)
                coeffs[i] = s
            return ZSeries(D, coeffs, 22)

        plus_kernel = xi_exp(+1)
        minus_kernel = xi_exp(-1)
        for _ in range(12):
            st = one_state(random_state(rng, max_part=4, max_len=2))
            a = next(iter(st.terms)).charge
            f = sigma_single(st, D)
            lowered = miwa_shift(f.poly, -1, f.weight)
            raised = miwa_shift(f.poly, +1, f.weight)
            for n in range(-4, 9):
                k = F(2 * n - 1, 2)
                zpow = int(-k - F(1, 2))
                ferm = sigma_map(psi_plus(k, st), D)
                got = ferm[0].poly if ferm else MPoly.zero(D)
                assert got == product_coeff(plus_kernel, lowered,
                                                    order=zpow - a)
                ferm = sigma_map(psi_minus(k, st), D)
                got = ferm[0].poly if ferm else MPoly.zero(D)
                assert got == product_coeff(minus_kernel, raised,
                                                    order=zpow + a)

    def test_sigma_intertwining(self):
        rng = random.Random(23)
        D = 16
        for _ in range(50):
            st = one_state(random_state(rng, max_part=3, max_len=3))
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

    def test_matches_the_sum_per_charge(self):
        # against sum c * S_lambda per charge; every charge of the vector
        # keeps its image, since the S_lambda whose hook fits in D are
        # linearly independent
        rng = random.Random(41)
        for _ in range(60):
            v = _random_vector(rng, size=6)
            D = max([s.parts[0] + len(s.parts) - 1 for s in v.terms if s.parts] + [1])
            want = {}
            for state, coef in v.terms.items():
                term = schur_of_partition(state.partition, D) * coef
                want[state.charge] = want.get(state.charge, MPoly.zero(D)) + term
            images = sigma_map(v, D)
            assert [cp.charge for cp in images] == sorted(v.charges())
            assert all(cp.poly == want[cp.charge] and not cp.poly.is_zero
                       for cp in images)

    def test_one_lincomb_per_charge(self, monkeypatch):
        # Sato's formula sums each charge's Schur images with one lincomb,
        # so a running polynomial sum cannot come back
        tree = ast.parse(inspect.getsource(sigma_map))
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.Add)]
        vec = FockVector({MayaState(0, (2, 1)): F(-3, 4), MayaState(0, (3,)): F(5),
                          MayaState(0, ()): F(1, 6), MayaState(1, ()): F(2, 9),
                          MayaState(-2, (1, 1, 1)): F(-1, 6), MayaState(-2, (2,)): F(7)})
        want = sigma_map(vec, 3)  # fills the Schur cache first
        calls = []
        real = fock.lincomb

        def counted(vars, pairs):
            calls.append(pairs)
            return real(vars, pairs)

        def refuse(self, other):
            raise AssertionError("a running MPoly sum")

        monkeypatch.setattr(fock, "lincomb", counted)
        monkeypatch.setattr(MPoly, "__add__", refuse)
        monkeypatch.setattr(MPoly, "__radd__", refuse)
        assert sigma_map(vec, 3) == want
        assert [len(pairs) for pairs in calls] == [2, 3, 1]  # charges -2, 0, 1


class TestWedgeKernel:
    def test_wedge_vector_matches_the_per_term_loop(self):
        # integer and rational columns against vectors over several charges
        rng = random.Random(43)
        for trial in range(150):
            column = {}
            for _ in range(rng.randint(1, 5)):
                c = F(rng.randint(-3, 3), rng.randint(1, 4) if trial % 2 else 1)
                column[half(2 * rng.randint(-5, 5) + 1)] = c
            v = _random_vector(rng, size=5)
            assert wedge_vector(column, v) == _ref_wedge_vector(column, v), (column, v)

    def test_kernel_on_integer_form(self):
        rng = random.Random(47)
        for _ in range(100):
            v = _random_vector(rng, size=5)
            column = {rng.randint(-5, 5): rng.randint(-4, 4) for _ in range(4)}
            column = {c: a for c, a in column.items() if a}
            got = wedge_ints(column, v.num)
            want = _ref_wedge_vector({half(2 * c + 1): F(a) for c, a in column.items()}, v)
            assert FockVector({MayaState(*key): F(n, v.den) for key, n in got.items()}) == want
            assert wedge_columns([(column, 1)], v) == want
            assert wedge_columns([(column, 3)], v) == want * F(1, 3)


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
        bad = one_state(MayaState(0, (2,))) + one_state(MayaState(0, (1, 1)))
        assert fermionic_pairing(bad, bad)

    def test_tensor_of(self):
        u = one_state(MayaState(1), 2)
        v = one_state(MayaState(0, (1,)), F(1, 2))
        assert tensor_of(u, v) == {(MayaState(1), MayaState(0, (1,))): F(1)}


def tensor_of(u, v):
    """The decomposable tensor u (x) v in the Maya basis, over Fractions."""
    out = {}
    for su, cu in u.terms.items():
        for sv, cv in v.terms.items():
            _accumulate(out, (su, sv), cu * cv)
    return out


def tensor_sum(parts):
    out = {}
    for tensor in parts:
        for key, coef in tensor.items():
            _accumulate(out, key, coef)
    return out


# -- reference on explicit index lists ------------------------------------------
#
# A state is written out as its first `depth` half-integer indices, a
# strictly decreasing list cut below the filled tail; the depth is chosen
# so that the cut lies below every index in play.  Signs are counted from
# the indices above.

def _ref_indices(state, depth):
    parts = state.parts + (0,) * depth
    return [F(2 * (parts[s - 1] + state.charge - s) + 1, 2)
            for s in range(1, depth + 1)]


def _ref_depth(state, p):
    return len(state.parts) + abs(state.charge) + abs(int(p)) + 3


def _ref_state(indices, charge):
    parts = [int(p - charge + s - F(1, 2)) for s, p in enumerate(indices, start=1)]
    while parts and parts[-1] == 0:
        parts.pop()
    return MayaState(charge, tuple(parts))


def _ref_insert(state, p):
    idx = _ref_indices(state, _ref_depth(state, p))
    assert p > idx[-1]  # the cut lies below p
    if p in idx:
        return None
    above = sum(1 for q in idx if q > p)
    idx.insert(above, p)
    return (-1) ** above, _ref_state(idx, state.charge + 1)


def _ref_remove(state, p):
    idx = _ref_indices(state, _ref_depth(state, p))
    assert p > idx[-1]
    if p not in idx:
        return None
    above = idx.index(p)
    del idx[above]
    return (-1) ** above, _ref_state(idx, state.charge - 1)


def _accumulate(out, key, value):
    out[key] = out.get(key, 0) + value
    if not out[key]:
        del out[key]


def _ref_wedge_vector(column, v):
    """wedge_vector by the per-term loop it used to run: the column and v
    over one denominator each, and every state wedged by ``insert_index``."""
    col = {p: F(coef) for p, coef in column.items() if coef}
    den_col = math.lcm(*(a.denominator for a in col.values()))
    den_v = math.lcm(*(c.denominator for c in v.terms.values()))
    vec = [(s, c.numerator * (den_v // c.denominator)) for s, c in v.terms.items()]
    out = {}
    for p, a in col.items():
        a = a.numerator * (den_col // a.denominator)
        for state, b in vec:
            hit = insert_index(state, p)
            if hit is not None:
                out[hit[1]] = out.get(hit[1], 0) + hit[0] * a * b
    den = den_col * den_v
    return FockVector({s: F(n, den) for s, n in out.items() if n})


def _ref_pairing(u, v):
    out = {}
    for su, cu in u.terms.items():
        for sv, cv in v.terms.items():
            depth = (len(su.parts) + len(sv.parts) + abs(su.charge)
                     + abs(sv.charge) + 3)  # below the filled tail of su
            for p in _ref_indices(sv, depth):
                wedged = _ref_insert(su, p)
                if wedged is None:
                    continue
                sign_r, right = _ref_remove(sv, p)
                _accumulate(out, (wedged[1], right), cu * cv * wedged[0] * sign_r)
    return out


def _ref_alpha(k, v):
    out = {}
    for state, coef in v.terms.items():
        depth = len(state.parts) + abs(state.charge) + abs(k) + 3
        for p in _ref_indices(state, depth):
            sign_r, mid = _ref_remove(state, p)
            moved = _ref_insert(mid, p - k)
            if moved is not None:
                _accumulate(out, moved[1], coef * sign_r * moved[0])
    return FockVector(out)


SHAPES = [shape.parts for shape in partitions_up_to(6)]


def _random_vector(rng, size=3):
    terms = {MayaState(rng.randint(-3, 3), rng.choice(SHAPES)):
             F(rng.randint(-4, 4), rng.randint(1, 3))
             for _ in range(rng.randint(1, size))}
    return FockVector(terms) if any(terms.values()) else VAC(0)


def _tail_top(state):
    return index(state, len(state.parts) + 1)


class TestAgainstIndexLists:
    """The integer-code routines against the explicit index-list reference."""

    def test_insert_and_remove(self):
        rng = random.Random(29)
        for _ in range(150):
            state = MayaState(rng.randint(-3, 3), rng.choice(SHAPES))
            indices = [half(n) for n in range(-13, 14, 2)] + [_tail_top(state)]
            for p in indices:
                assert insert_index(state, p) == _ref_insert(state, p), (state, p)
                assert remove_index(state, p) == _ref_remove(state, p), (state, p)
                assert occupied(state, p) == (p in _ref_indices(state, _ref_depth(state, p)))
                # the operators find the position themselves
                for op, ref in ((psi_plus, _ref_insert(state, -p)),
                                (psi_minus, _ref_remove(state, p))):
                    want = FockVector() if ref is None else one_state(ref[1], ref[0])
                    assert op(p, one_state(state)) == want, (op, state, p)

    def test_filled_tail_top(self):
        for state in [MayaState(0), MayaState(2, (3, 1)), MayaState(-3, (1, 1, 1))]:
            top = _tail_top(state)
            assert insert_index(state, top) is None
            assert remove_index(state, top) == _ref_remove(state, top)
            assert insert_index(state, top + 1) == _ref_insert(state, top + 1)

    def test_pairing(self):
        rng = random.Random(31)
        cases = [(VAC(0), VAC(0)), (VAC(2), VAC(-1)), (VAC(-1), VAC(2))]
        cases += [(_random_vector(rng), _random_vector(rng)) for _ in range(60)]
        for u, v in cases:
            assert fermionic_pairing(u, v) == _ref_pairing(u, v), (u, v)

    def test_pairing_through_filled_tail_top(self):
        # v holds the top of u's filled tail (occupied in u, so skipped) and
        # a free index of u above it (one term)
        for su in [MayaState(0), MayaState(0, (2,)), MayaState(1, (3, 3)),
                   MayaState(-2, (2, 1))]:
            top = _tail_top(su)
            u = one_state(su, F(3, 2))
            m = int(top + F(5, 2))  # charge whose vacuum holds top + 1 and top
            v = FockVector({MayaState(m): -2, MayaState(m, (1,)): 1})
            assert all(occupied(sv, top) for sv in v.terms)
            assert not occupied(su, top + 1)
            got = fermionic_pairing(u, v)
            assert got and got == _ref_pairing(u, v), su

    def test_pairing_defect(self):
        # the integer defect against the pairing minus sum a (x) b summed
        # one Fraction at a time, with the witness taken by sort_key
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        states = st.builds(MayaState, st.integers(-2, 2), st.sampled_from(SHAPES))
        coefs = st.builds(F, st.integers(-4, 4), st.integers(1, 6))
        vectors = st.dictionaries(states, coefs, max_size=3).map(FockVector)
        pair_lists = st.lists(st.tuples(vectors, vectors), max_size=3)
        one = one_state(MayaState(0, (1,)), F(2, 3))

        @hyp.settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @hyp.example(FockVector(), one, [(one, one)], False)
        @hyp.example(one, FockVector(), [], False)
        @hyp.example(one, one, [], True)
        @hyp.given(vectors, vectors, pair_lists, st.booleans())
        def check(u, v, pairs, cancel):
            if cancel:
                # the pairing term by term, and each drawn pair with its negative
                pairs = [(one_state(left, c), one_state(right))
                         for (left, right), c in _ref_pairing(u, v).items()
                         ] + pairs + [(-a, b) for a, b in pairs]
            ref = tensor_sum([_ref_pairing(u, v),
                              *({key: -c for key, c in tensor_of(a, b).items()}
                                for a, b in pairs)])
            defect, den = pairing_defect(u, v, pairs)
            assert all(type(n) is int and n for n in defect.values())
            assert {(MayaState(m, lam), MayaState(n, mu)): F(c, den)
                    for (m, lam, n, mu), c in defect.items()} == ref
            assert not cancel or not ref
            got = fermionic_bilinear_check(u, v, pairs)
            assert got.passed == (not ref)
            if ref:
                key = sorted(ref, key=lambda st: (st[0].sort_key(), st[1].sort_key()))[0]
                assert got.tensor_witness == (*key, ref[key])

        check()

    def test_alpha(self):
        rng = random.Random(37)
        modes = [-4, -3, -2, -1, 1, 2, 3, 4]
        for _ in range(60):
            v = _random_vector(rng)
            for k in modes:
                assert alpha(k, v) == _ref_alpha(k, v), (v, k)


def test_fock_vector_canonical_form():
    # as MPoly's: equal vectors have equal num and den, zero is {} over 1,
    # a negative den is normalized, and the constructor, from_json and
    # the wedge kernel agree
    a = FockVector({MayaState(0, (1,)): F(2, 4), MayaState(1): F(-3, 6)})
    b = one_state(MayaState(0, (1,)), F(1, 2)) - one_state(MayaState(1), F(1, 2))
    assert (a.num, a.den) == (b.num, b.den) == ({(0, (1,)): 1, (1, ()): -1}, 2)
    for zero in (FockVector(), FockVector({MayaState(0): F(0)}), a - b, a * 0,
                 psi_minus(half(1), VAC(0))):
        assert (zero.num, zero.den) == ({}, 1)
    neg = FockVector._canonical({(0, ()): 3, (1, (2,)): -9}, -6)
    assert (neg.num, neg.den) == ({(0, ()): -1, (1, (2,)): 3}, 2)
    quarter = {"state": {"charge": 1, "partition": []}, "coef": "1/4"}
    for w in (FockVector({MayaState(1): F(1, 2)}), FockVector.from_json([quarter] * 2),
              wedge_vector({half(1): F(3, 6)}, VAC(0))):
        assert (w.num, w.den) == ({(1, ()): 1}, 2)
    rng = random.Random(59)
    for _ in range(100):
        u, v = _random_vector(rng), _random_vector(rng)
        for w in (u + v, u * F(-3, 4), wedge_vector({half(1): F(2, 3), half(-3): F(5, 2)}, u),
                  psi_minus(half(-1), u), alpha(-2, u), alpha(0, u), shift_charge(2, u)):
            assert w.den > 0 and math.gcd(w.den, *w.num.values()) == 1
            assert all(w.num.values())
            rebuilt = FockVector(w.terms)
            assert (rebuilt.num, rebuilt.den) == (w.num, w.den)


def test_fock_vector_json_roundtrip():
    vec = FockVector({MayaState(0, (2,)): F(3, 2), MayaState(-1): F(-1)})
    assert FockVector.from_json(vec.to_json()) == vec
