import dataclasses
import decimal
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aeqslab import aeqs
from aeqslab.aeqs import (
    AeqsError,
    AeqsInstance,
    KroneckerSum,
    ProjectorComplement,
    adiabatic_time_bound,
    as_dense,
    commutator_check,
    commutator_negligible,
    complement,
    decide,
    from_oracle,
    ground_state,
    inverse_image,
    lowest_pairs,
    minimum_interpolation_gap,
    spectral_gap,
    xor_product,
)
from aeqslab import compilers, evolve, gallery
from aeqslab.linalg import (
    DEGENERACY_TOL,
    EVOLVE_DIM_MAX,
    SPARSE_EIG_MIN_DIM,
    CapacityError,
    SparseHermitian,
    hermitian_eig,
    lowest_eigenpairs,
    spectral_norm,
)
from aeqslab.qqa import generate_moqqaf

RNG = np.random.default_rng(23)
ALL_BITSTRINGS_4 = [""] + [
    "".join(b) for n in range(1, 5) for b in itertools.product("01", repeat=n)
]


def diag_instance(ini, fin, s_acc=(), s_rej=(), epsilon=0.999):
    return AeqsInstance(
        size_bits=int(np.ceil(np.log2(len(fin)))) if len(fin) > 1 else 0,
        epsilon=epsilon,
        h_ini=np.diag(ini).astype(complex),
        h_fin=np.diag(fin).astype(complex),
        s_acc=frozenset(s_acc),
        s_rej=frozenset(s_rej),
    )


class TestGroundState:
    def test_diagonal(self):
        energy, vec, unique = ground_state(np.diag([0.0, 1.0]).astype(complex))
        assert energy == pytest.approx(0.0)
        assert abs(vec[0]) == pytest.approx(1.0)
        assert unique

    def test_degenerate_flagged(self):
        _, _, unique = ground_state(np.diag([0.0, 0.0, 1.0]).astype(complex))
        assert not unique

    def test_sym_coin_accept_energy(self):
        # Witness pair (1, 2) on "aa": energy i/(n+1) = 1/3 (dense cross-check
        # against the gallery's sparse instance).
        inst = gallery.build("sym_coin").family.build("aa")
        energy, _, unique = ground_state(inst.h_fin.to_dense())
        assert energy == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert unique

    def test_projector_complement(self):
        g = np.zeros(5, dtype=complex)
        g[2] = 1.0
        h = ProjectorComplement(g)
        energy, vec, unique = ground_state(h)
        assert energy == 0.0 and unique
        assert abs(vec[2]) == pytest.approx(1.0)
        assert np.allclose(h.to_dense(), np.diag([1, 1, 0, 1, 1]))


class TestSpectralGap:
    def test_diag(self):
        assert spectral_gap(np.diag([0.0, 1.0, 1.0]).astype(complex)) == pytest.approx(1.0)

    def test_prefix_instance(self):
        inst = gallery.build("l_prefix_0").family.build("01")
        assert spectral_gap(inst.h_fin) == pytest.approx(1.0, abs=1e-9)

    def test_sym_coin_gap_bound(self):
        inst = gallery.build("sym_coin").family.build("aa")
        assert spectral_gap(inst.h_fin) >= 1.0 / 3.0 - 1e-9

    def test_dim_one_rejected(self):
        with pytest.raises(AeqsError):
            spectral_gap(np.array([[1.0]], dtype=complex))


def pairs_route(h):
    """(ground energy, ground state, gap, unique) read off lowest_pairs(h, 2),
    the general route that a ProjectorComplement's closed form skips."""
    pairs = lowest_pairs(h, min(2, h.dim))
    if len(pairs) == 1:
        return pairs[0][0], pairs[0][1], math.inf, True
    gap = max(0.0, pairs[1][0] - pairs[0][0])
    return pairs[0][0], pairs[0][1], gap, gap > DEGENERACY_TOL


def projector_instance(dim, h_fin):
    cut = (dim + 1) // 3
    return AeqsInstance(size_bits=max(1, (dim - 1).bit_length()), epsilon=0.5,
                        h_ini=aeqs.deflation_hamiltonian(dim, 0), h_fin=h_fin,
                        s_acc=frozenset(range(cut)), s_rej=frozenset(range(cut, 2 * cut)))


class TestProjectorClosedForm:
    """The verdict of I - |g><g| in closed form against lowest_pairs(h, 2)
    and a dense eigh of to_dense()."""

    @pytest.mark.parametrize("dim", [1, 2, 256])
    def test_ground_state_and_gap(self, dim):
        h = ProjectorComplement(random_unit(np.random.default_rng(dim), dim))
        energy, psi, gap, unique = aeqs._lowest_two(h)
        want = pairs_route(h)
        assert (energy, gap, unique) == (want[0], want[2], want[3])
        assert np.array_equal(psi, want[1])
        assert ground_state(h)[0] == energy and ground_state(h)[2]
        assert np.array_equal(ground_state(h)[1], h.vector)
        values, vectors = np.linalg.eigh(h.to_dense())
        assert abs(energy - values[0]) <= 1e-12
        assert abs(np.vdot(vectors[:, 0], psi)) == pytest.approx(1.0, abs=1e-12)
        if dim == 1:
            assert gap == math.inf
            with pytest.raises(AeqsError):
                spectral_gap(h)
        else:
            assert spectral_gap(h) == gap == 1.0
            assert abs(gap - (values[1] - values[0])) <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 256])
    def test_decide_fields(self, dim, monkeypatch):
        h = ProjectorComplement(random_unit(np.random.default_rng(dim + 1), dim))
        closed = decide(projector_instance(dim, h)).as_dict()
        dense = decide(projector_instance(dim, h.to_dense())).as_dict()
        monkeypatch.setattr(aeqs, "_lowest_two", pairs_route)
        assert decide(projector_instance(dim, h)).as_dict() == closed
        for key in ("outcome", "unique_ground"):
            assert dense[key] == closed[key]
        for key in ("ground_energy", "accuracy", "acc_overlap", "rej_overlap"):
            assert dense[key] == pytest.approx(closed[key], abs=1e-12)
        assert dense["spectral_gap"] == pytest.approx(closed["spectral_gap"], abs=1e-12)

    def test_vector_is_a_read_only_copy(self):
        g = random_unit(np.random.default_rng(3), 4)
        h = ProjectorComplement(g)
        with pytest.raises(ValueError):
            h.vector[0] = 1.0
        with pytest.raises(ValueError):
            ground_state(h)[1][0] = 1.0
        g[0] = 2.0          # the caller's array stays writable and its own
        assert h.vector[0] != 2.0 and np.linalg.norm(h.vector) == pytest.approx(1.0)

    @pytest.mark.parametrize("g", [[1.0, 1e-4], [0.6, 0.8j + 2e-10j], [np.nan, 1.0],
                                   [np.inf, 0.0], [0.0, 0.0]])
    def test_vector_must_be_normalized(self, g):
        with pytest.raises(AeqsError, match="not normalized"):
            ProjectorComplement(np.array(g))

    def test_norm_check_within_tolerance(self):
        ProjectorComplement(np.array([0.6, 0.8j + 1e-11j]))
        ProjectorComplement(random_unit(np.random.default_rng(5), 1000))


class TestCriteriaArrays:
    """criteria_arrays, the one place where criteria are formed and checked
    for overlap."""

    def test_sorted_unique_read_only(self):
        acc, rej = aeqs.criteria_arrays({9, 3, 7}, [5, 1, 5])
        assert acc.tolist() == [3, 7, 9] and rej.tolist() == [1, 5]
        for s in (acc, rej):
            assert s.dtype == np.int64 and not s.flags.writeable
        empty, rest = aeqs.criteria_arrays(frozenset(), np.array([2, 0], dtype=np.int32))
        assert empty.dtype == rest.dtype == np.int64
        assert empty.size == 0 and rest.tolist() == [0, 2]

    def test_formed_pair_returned_as_is(self):
        acc, rej = aeqs.criteria_arrays([4, 0], [2])
        same = aeqs.criteria_arrays(acc, rej)
        assert same[0] is acc and same[1] is rej
        # A writeable array is formed anew and leaves the caller's alone.
        given = np.array([3, 1])
        formed, _ = aeqs.criteria_arrays(given, [])
        assert formed is not given and given.flags.writeable and given.tolist() == [3, 1]

    def test_overlap_raises(self):
        with pytest.raises(AeqsError, match="overlap"):
            aeqs.criteria_arrays([0, 1], np.array([1, 2]))

    def test_hand_built_instance_with_overlap_raises(self):
        with pytest.raises(AeqsError, match="overlap"):
            diag_instance([0, 1], [0, 1], s_acc=(0, 1), s_rej=(1,))

    @pytest.mark.parametrize("s_acc, s_rej, bad", [([5], [0], 5), ([-1], [1], -1)])
    def test_index_outside_the_space_raises(self, s_acc, s_rej, bad):
        # 5 lies past dim 2, where decide would index out of range; -1 names
        # basis state 1, the rejecting one, by its negative index.
        with pytest.raises(AeqsError, match=f"criteria index {bad} out of range for dimension 2"):
            diag_instance([0, 1], [0, 1], s_acc=s_acc, s_rej=s_rej)

    def test_instance_holds_the_formed_arrays(self):
        inst = diag_instance([0, 1, 1], [1, 0, 1], s_acc=(2, 0), s_rej=(1,))
        assert inst.s_acc.tolist() == [0, 2] and not inst.s_acc.flags.writeable
        swapped = complement(gallery.build("l_prefix_0").family).build("01")
        direct = gallery.build("l_prefix_0").family.build("01")
        assert np.array_equal(swapped.s_acc, direct.s_rej)
        assert np.array_equal(swapped.s_rej, direct.s_acc)


class TestDecide:
    def test_full_accepting_space(self):
        inst = diag_instance([0, 1], [0, 1], s_acc=(0, 1))
        v = decide(inst)
        assert v.outcome == "accept"
        assert v.accuracy == pytest.approx(1.0)

    def test_oracle_family_lemma(self):
        fam = from_oracle(lambda x: x == "ab", alphabet=("a", "b"))
        assert fam.decide("ab").outcome == "accept"
        assert fam.decide("ba").outcome == "reject"
        assert fam.decide("ab").accuracy == pytest.approx(1.0)

    def test_oracle_initial_ground_state_is_plus(self):
        fam = from_oracle(lambda x: True)
        inst = fam.build("x") if False else fam.build("0")
        _, vec, _ = ground_state(inst.h_ini)
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        assert abs(np.vdot(plus, vec)) == pytest.approx(1.0, abs=1e-12)

    def test_indeterminate_on_degenerate_ground(self):
        inst = diag_instance([0, 1, 1], [0, 0, 1], s_acc=(0,), s_rej=(1,))
        assert decide(inst).outcome == "indeterminate"

    def test_tie_is_indeterminate(self):
        h = np.full((2, 2), 0.5, dtype=complex)
        h = np.eye(2) - h  # ground state (1,1)/sqrt2: equal overlaps
        inst = AeqsInstance(size_bits=1, epsilon=0.5, h_ini=np.diag([0.0, 1.0]).astype(complex),
                            h_fin=h, s_acc=frozenset({0}), s_rej=frozenset({1}))
        assert decide(inst).outcome == "indeterminate"

    @pytest.mark.parametrize("weight_off", [1e-30, 1e-17, 1e-12, 1e-6, 0.25])
    def test_accuracy_keeps_its_digits_next_to_one(self, weight_off):
        # Ground state sqrt(1 - w) e_0 + sqrt(w) e_1 with S_acc = {0}: the
        # accuracy 1 - sqrt(1 - c) for c = sqrt(1 - w), evaluated in 50
        # digits from the state's stored weights, is the reference.
        g = np.array([math.sqrt(1.0 - weight_off), math.sqrt(weight_off)], dtype=complex)
        inst = AeqsInstance(size_bits=1, epsilon=0.5, h_ini=np.diag([0.0, 1.0]).astype(complex),
                            h_fin=ProjectorComplement(g), s_acc=frozenset({0}),
                            s_rej=frozenset({1}))
        on, off = (decimal.Decimal(float(abs(a) ** 2)) for a in g)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            c = (on / (on + off)).sqrt()
            want = float(1 - (1 - c).sqrt())
        assert abs(decide(inst).accuracy - want) <= 2.3e-16

    def test_overlap_invariant(self):
        inst = gallery.build("equal").family.build("ab")
        v = decide(inst)
        assert v.acc_overlap**2 + v.rej_overlap**2 <= 1.0 + 1e-9

    def test_scale_invariance(self):
        inst = gallery.build("sym_coin").family.build("aa")
        scaled = AeqsInstance(
            size_bits=inst.size_bits, epsilon=inst.epsilon, h_ini=inst.h_ini,
            h_fin=3.0 * inst.h_fin.to_dense(), s_acc=inst.s_acc, s_rej=inst.s_rej,
            schema=inst.schema,
        )
        a, b = decide(inst), decide(scaled)
        assert a.outcome == b.outcome
        assert a.acc_overlap == pytest.approx(b.acc_overlap, abs=1e-9)
        assert b.ground_energy == pytest.approx(3.0 * a.ground_energy, abs=1e-9)
        assert b.spectral_gap == pytest.approx(3.0 * a.spectral_gap, abs=1e-9)

    @given(st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_scale_invariance_property(self, c):
        inst = gallery.build("sym_coin").family.build("abba")
        scaled = AeqsInstance(
            size_bits=inst.size_bits, epsilon=inst.epsilon, h_ini=inst.h_ini,
            h_fin=c * inst.h_fin.to_dense(), s_acc=inst.s_acc, s_rej=inst.s_rej,
            schema=inst.schema,
        )
        a, b = decide(inst), decide(scaled)
        assert a.outcome == b.outcome
        assert b.ground_energy == pytest.approx(c * a.ground_energy, rel=1e-8, abs=1e-10)


def formula_verdict(amps, energy, gap, unique, acc_idx, rej_idx, epsilon):
    """One input's decision written out on a 1-D row of squared amplitudes:
    the sums of the one-input rule, for the row kernel to match bit for
    bit."""
    acc, rej = math.sqrt(amps[acc_idx].sum()), math.sqrt(amps[rej_idx].sum())
    outcome, accuracy = "indeterminate", 0.0
    if unique and abs(acc - rej) > aeqs.TIE_TOL:
        side, overlap, idx = ("accept", acc, acc_idx) if acc > rej else ("reject", rej, rej_idx)
        outside = amps.copy()
        outside[idx] = 0.0
        achieved = 1.0 - math.sqrt(min(1.0, float(outside.sum()) / (1.0 + overlap)))
        if achieved >= epsilon:
            outcome, accuracy = side, achieved
    return aeqs.Verdict(outcome, float(energy), float(gap), float(accuracy), acc, rej,
                        bool(unique))


@st.composite
def kernel_rows(draw):
    """(amps, energies, gaps, unique, acc_idx, rej_idx, epsilon) for the row
    kernel: dims 1-600, criteria of any size (empty included) in any order,
    rows spread out, peaked near accuracy 1, or with the two overlaps within
    a few TIE_TOL of each other, and epsilon often one ulp from a row's
    accuracy."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, dim = draw(st.integers(1, 6)), draw(st.integers(1, 600))
    n_acc = draw(st.integers(0, dim))
    n_rej = draw(st.integers(0, dim - n_acc))
    order = rng.permutation(dim)
    acc_idx, rej_idx = order[:n_acc], order[n_acc:n_acc + n_rej]
    amps = np.zeros((m, dim))
    for row in amps:
        kind = draw(st.sampled_from(["spread", "peaked", "tie"]))
        if kind == "tie" and n_acc and n_rej:
            row[acc_idx[0]] = 0.5
            row[rej_idx[0]] = 0.5 * (1.0 + draw(st.floats(-4e-9, 4e-9)))
            row += rng.random(dim) * 1e-12
        elif kind == "peaked":
            row[:] = rng.random(dim) * 10.0 ** -draw(st.integers(2, 17))
            row[rng.integers(dim)] = 1.0
        else:
            psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            row[:] = np.abs(psi) ** 2
        row /= row.sum()
    unique = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    energies, gaps = rng.standard_normal(m), rng.random(m)
    achieved = [formula_verdict(row, 0.0, 0.0, True, acc_idx, rej_idx, 0.0).accuracy
                for row in amps]
    target = achieved[draw(st.integers(0, m - 1))]
    epsilon = draw(st.sampled_from([
        float(rng.random()), target, float(np.nextafter(target, 0.0)),
        min(1.0, float(np.nextafter(target, 2.0)))]))
    return amps, energies, gaps, unique, acc_idx, rej_idx, epsilon


class TestDecideRows:
    """aeqs.decide_rows, the one decision kernel: m rows at once give the
    bits of m one-row calls and of the one-input formula."""

    @given(kernel_rows())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_one_row_calls_and_formula(self, case):
        amps, energies, gaps, unique, acc_idx, rej_idx, epsilon = case
        rows = aeqs.decide_rows(amps, energies, gaps, unique, acc_idx, rej_idx, epsilon)
        assert len(rows) == len(amps)
        for r, verdict in enumerate(rows):
            one = aeqs.decide_rows(amps[r:r + 1], energies[r:r + 1], gaps[r:r + 1],
                                   unique[r:r + 1], acc_idx, rej_idx, epsilon)
            want = formula_verdict(amps[r], energies[r], gaps[r], unique[r], acc_idx,
                                   rej_idx, epsilon)
            assert repr(verdict.as_dict()) == repr(one[0].as_dict()) == repr(want.as_dict())

    def test_outcomes_at_the_boundaries(self):
        amps = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.9, 0.1, 0.0]])
        got = aeqs.decide_rows(amps, [0.0] * 4, [1.0] * 4, [True, True, True, False],
                               np.array([0]), np.array([1]), 0.5)
        assert [v.outcome for v in got] == ["indeterminate", "accept", "indeterminate",
                                             "indeterminate"]
        assert got[1].accuracy == 1.0 and got[2].acc_overlap == got[2].rej_overlap == 0.0

    def test_decide_is_the_one_row_call(self):
        inst = gallery.build("equal").family.build("abab")
        energy, psi, gap, unique = aeqs._lowest_two(inst.h_fin)
        want = formula_verdict(np.abs(psi) ** 2, energy, gap, unique, inst.s_acc, inst.s_rej,
                               inst.epsilon)
        assert repr(decide(inst).as_dict()) == repr(want.as_dict())


class TestDiagonalLowestTwo:
    """diagonal_lowest_two, which the track entries' verify rows read: a
    stable argsort, against the pairs lowest_pairs gives, _lowest_two and a
    dense eigensolve."""

    @pytest.mark.parametrize("values", [[0.5], [1.0, 0.0, 0.0, 2.0], [0.0, 1.0, 1e-10],
                                        [3.0, -1.0, 2.0, -1.0 + 2e-9]])
    def test_matches_lowest_pairs(self, values):
        h = SparseHermitian.diagonal(values)
        energy, ground, gap, unique = aeqs.diagonal_lowest_two(np.array(values))
        pairs = lowest_pairs(h, min(2, h.dim))
        assert energy == pairs[0][0] and pairs[0][1][ground] == 1.0
        assert gap == (pairs[1][0] - energy if len(pairs) == 2 else math.inf)
        assert unique == (gap > DEGENERACY_TOL)
        e, psi, g, u = aeqs._lowest_two(h)
        assert (e, g, u) == (energy, gap, unique) and np.array_equal(psi, pairs[0][1])
        assert abs(energy - np.linalg.eigvalsh(h.to_dense())[0]) <= 1e-15


class TestInterpolationAndCommutator:
    def test_endpoints_and_midpoint(self):
        inst = gallery.build("l_prefix_0").family.build("0")
        h_ini = inst.h_ini.to_dense()
        h_fin = inst.h_fin.to_dense()
        from aeqslab.aeqs import interpolated_hamiltonian

        assert np.allclose(interpolated_hamiltonian(inst, 0.0), h_ini)
        assert np.allclose(interpolated_hamiltonian(inst, 1.0), h_fin)
        assert np.allclose(interpolated_hamiltonian(inst, 0.5), (h_ini + h_fin) / 2)
        with pytest.raises(AeqsError):
            interpolated_hamiltonian(inst, 1.5)

    def test_commutator_zero_for_equal_pair(self):
        inst = diag_instance([0, 1], [0, 1], s_acc=(0,), s_rej=(1,))
        assert commutator_negligible(commutator_check(inst))

    def test_commutator_positive_on_prefix_instance(self):
        inst = gallery.build("l_prefix_0").family.build("0")
        assert commutator_check(inst) > 1e-3

    def test_diagonal_pair_commutes(self):
        inst = diag_instance([0, 1, 2], [0, 2, 1], s_acc=(0,), s_rej=(1,))
        assert commutator_negligible(commutator_check(inst))

    def test_negligible_at_the_split_resolution(self):
        # |<g|f>| = 1e-11: the split keeps no residual, so the commutator
        # reads 0, while its exact norm |c| sqrt(1 - |c|^2) is 1e-11.  Both
        # readings must get the same answer.
        c = 1e-11
        e = np.eye(16, dtype=complex)
        f = c * e[0] + math.sqrt(1 - c * c) * e[1]
        inst = AeqsInstance(size_bits=4, epsilon=0.9, h_ini=ProjectorComplement(e[0]),
                            h_fin=ProjectorComplement(f), s_acc=frozenset({1}),
                            s_rej=frozenset({2}))
        exact = abs(c) * math.sqrt(1 - c * c)
        a, b = as_dense(inst.h_ini), as_dense(inst.h_fin)
        assert spectral_norm(a @ b - b @ a) == pytest.approx(exact, rel=1e-3)
        assert commutator_check(inst) == 0.0
        assert commutator_negligible(commutator_check(inst)) == commutator_negligible(exact)

    def test_densified_commutator_keeps_the_cap(self):
        # The xor sums are densified to be split, as for the gap scan.
        inst = xor_family().build("0000")
        assert inst.dim == 576 > EVOLVE_DIM_MAX
        for call in (commutator_check, minimum_interpolation_gap):
            with pytest.raises(CapacityError, match="dimension 576 exceeds EVOLVE_DIM_MAX = 512"):
                call(inst)


class TestTimeBound:
    def test_equal_pair_zero_bound(self):
        inst = diag_instance([0, 1], [0, 1], s_acc=(0,), s_rej=(1,))
        assert adiabatic_time_bound(inst, 0.1, 1.0) == 0.0

    def test_prefix_bound_finite_positive(self):
        inst = gallery.build("l_prefix_0").family.build("0")
        bound = adiabatic_time_bound(inst, 0.1, 1.0, c=1.0)
        assert 0.0 < bound < math.inf

    def test_epsilon_homogeneity(self):
        inst = gallery.build("l_prefix_0").family.build("0")
        delta = 1.0
        b1 = adiabatic_time_bound(inst, 0.2, delta)
        b2 = adiabatic_time_bound(inst, 0.1, delta)
        assert b2 == pytest.approx(2.0**delta * b1, rel=1e-9)

    def test_monotone_in_gap(self):
        # Same difference norm, shrinking gap => growing bound.
        def bound_with_gap(g):
            ini = np.diag([0.0, 1.0]).astype(complex)
            w = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
            fin = w @ np.diag([0.0, g]).astype(complex) @ w
            inst = AeqsInstance(size_bits=1, epsilon=0.9, h_ini=ini, h_fin=fin,
                                s_acc=frozenset({0}), s_rej=frozenset({1}))
            return adiabatic_time_bound(inst, 0.1, 1.0)

        bounds = [bound_with_gap(g) for g in (1.0, 0.5, 0.25)]
        assert bounds[0] < bounds[1] < bounds[2]

    def test_degenerate_interpolation_unbounded(self):
        inst = diag_instance([0, 0, 1], [1, 1, 0], s_acc=(0,), s_rej=(2,))
        assert adiabatic_time_bound(inst, 0.1, 1.0) == math.inf


class TestCombinators:
    def test_complement_involution(self):
        fam = from_oracle(lambda x: x.count("1") % 2 == 0)
        double = complement(complement(fam))
        for x in ALL_BITSTRINGS_4:
            assert double.decide(x).outcome == fam.decide(x).outcome

    def test_complement_flips_oracle(self):
        fam = from_oracle(lambda x: x.startswith("0"))
        comp = complement(fam)
        for x in ["", "0", "1", "01", "10"]:
            a, b = fam.decide(x).outcome, comp.decide(x).outcome
            assert {a, b} == {"accept", "reject"}

    def test_complement_of_prefix_family(self):
        entry = gallery.build("l_prefix_0")
        comp = complement(entry.family)
        assert comp.decide("0").outcome == "reject"
        assert comp.decide("1").outcome == "accept"

    def test_xor_truth_table(self):
        p1 = lambda x: x.count("1") % 2 == 0   # noqa: E731
        p2 = lambda x: len(x) % 2 == 0         # noqa: E731
        fx = xor_product(from_oracle(p1), from_oracle(p2))
        for x in ALL_BITSTRINGS_4:
            want = "accept" if p1(x) != p2(x) else "reject"
            assert fx.decide(x).outcome == want

    def test_xor_with_always_false_preserves_verdicts(self):
        f = from_oracle(lambda x: x.startswith("1"))
        fx = xor_product(f, from_oracle(lambda x: False))
        for x in ALL_BITSTRINGS_4:
            assert fx.decide(x).outcome == f.decide(x).outcome

    def test_xor_ground_energy_additivity(self):
        e = gallery.build("l_prefix_0")
        fx = xor_product(e.family, e.family)
        inst = fx.build("01")
        energy, _, _ = ground_state(inst.h_fin)
        parts = ground_state(e.family.build("01").h_fin)[0]
        assert energy == pytest.approx(2 * parts, abs=1e-9)
        # Ground state is the tensor of the component ground states.
        va = ground_state(e.family.build("01").h_fin)[1]
        joint = ground_state(inst.h_fin)[1]
        assert abs(np.vdot(np.kron(va, va), joint)) == pytest.approx(1.0, abs=1e-9)

    def test_inverse_image_identity(self):
        fam = gallery.build("equal").family
        same = inverse_image(fam, lambda s: s, "identity")
        for x in ["", "ab", "aab"]:
            assert same.decide(x).outcome == fam.decide(x).outcome

    def test_inverse_image_reversal_on_equal(self):
        fam = gallery.build("equal").family
        rev = inverse_image(fam, lambda s: s[::-1], "reversal")
        for x in ["", "a", "ab", "ba", "abab", "baab"]:
            assert rev.decide(x).outcome == fam.decide(x[::-1]).outcome
            assert rev.decide(x).outcome == fam.decide(x).outcome  # Equal is reversal-invariant

    def test_inverse_image_letter_swap_on_equal(self):
        fam = gallery.build("equal").family
        swap = inverse_image(
            fam, lambda s: s.translate(str.maketrans("ab", "ba")), "swap"
        )
        for x in ["", "ab", "aab", "abba"]:
            assert swap.decide(x).outcome == fam.decide(x).outcome

    def test_inverse_image_size_violation_reported(self):
        fam = gallery.build("equal").family
        shrink = inverse_image(fam, lambda s: s[:-1] if s else s, "drop-last")
        with pytest.raises(AeqsError, match="drop-last"):
            shrink.build("aab")

    def test_minimum_interpolation_gap_positive(self):
        inst = gallery.build("l_prefix_0").family.build("0")
        assert minimum_interpolation_gap(inst, 32) > 0.1


def random_hermitian(rng, values):
    """A dense Hermitian matrix with the given spectrum in a random basis."""
    n = len(values)
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    h = (u * np.asarray(values, dtype=float)) @ u.conj().T
    return (h + h.conj().T) / 2.0


def random_unit(rng, n):
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return g / np.linalg.norm(g)


def factors_of_every_representation():
    """Seeded factors: dense (generic and with a degenerate ground space),
    sparse with a degenerate second level, a projector complement and a
    nested Kronecker sum."""
    rng = np.random.default_rng(41)
    return {
        "dense": random_hermitian(rng, [0.3, 0.7, 1.1, 1.6, 2.0]),
        "dense_degenerate_ground": random_hermitian(rng, [0.0, 0.0, 1.0, 1.5]),
        "sparse_degenerate_second": SparseHermitian.from_dense(
            random_hermitian(rng, [-0.5, 0.5, 0.5, 1.2, 2.0])),
        "projector_complement": ProjectorComplement(random_unit(rng, 4)),
        "nested": KroneckerSum(random_hermitian(rng, [0.0, 0.25]),
                               ProjectorComplement(random_unit(rng, 3))),
    }


FACTORS = factors_of_every_representation()
FACTOR_PAIRS = list(itertools.product(FACTORS, repeat=2))


def assert_eigenpairs(h, pairs):
    dense = as_dense(h)
    vectors = np.column_stack([v for _, v in pairs])
    gram = vectors.conj().T @ vectors
    assert np.linalg.norm(gram - np.eye(len(pairs))) <= 1e-10
    for value, v in pairs:
        assert np.linalg.norm(dense @ v - value * v) <= 1e-10


class TestLowestPairsContract:
    @pytest.mark.parametrize("name", FACTORS)
    def test_k_outside_range_rejected(self, name):
        h = FACTORS[name]
        dim = aeqs.hamiltonian_dim(h)
        for k in (0, dim + 1):
            with pytest.raises(AeqsError):
                lowest_pairs(h, k)

    @pytest.mark.parametrize("g", [random_unit(np.random.default_rng(5), 7),
                                   np.eye(4, dtype=complex)[3]])
    def test_projector_complement_full_spectrum(self, g):
        h = ProjectorComplement(g)
        pairs = lowest_pairs(h, h.dim)
        assert [value for value, _ in pairs] == [0.0] + [1.0] * (h.dim - 1)
        assert_eigenpairs(h, pairs)


def random_sparse(rng, n, per_row=3):
    """A random sparse Hermitian operator with about per_row entries a row."""
    m = n * per_row
    rows, cols = rng.integers(0, n, m), rng.integers(0, n, m)
    vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return SparseHermitian(n, rows, cols, np.where(rows == cols, vals.real, vals))


def count_eigen_paths(monkeypatch):
    """Count the calls of the two eigen paths that lowest_pairs reaches."""
    calls = {"lanczos": 0, "dense": 0}

    def counted(key, original):
        def call(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(aeqs, "lowest_eigenpairs", counted("lanczos", aeqs.lowest_eigenpairs))
    monkeypatch.setattr(aeqs, "hermitian_eig", counted("dense", aeqs.hermitian_eig))
    return calls


def sweep_inputs():
    """The decide benchmark's gallery sweep: every string up to length 8 of
    the four small languages, usubsum_inputs(4, 3, 3) and multdup_inputs(3, 3)
    for multdup and its complement."""
    languages = ("l_prefix_0", "l_prefix_1", "equal", "sym_coin")
    inputs = [(name, x) for name in languages
              for x in gallery.strings_up_to(gallery.build(name).family.alphabet, 8)]
    inputs += [("usubsum", x) for x in gallery.usubsum_inputs(4, 3, 3, promised_only=False)]
    inputs += [(name, x) for name in ("multdup", "multdup_complement")
               for x in gallery.multdup_inputs(3, 3)]
    return inputs


# Entries whose H_fin is stored as I - |g><g| (qqa.MeasureOnceGrounds).
MEASURE_ONCE_ENTRIES = ("l_prefix_0", "l_prefix_1", "equal")


def moqqaf_route(entry, x, inst):
    """inst with the H_fin that the general generate_moqqaf route builds
    from the entry's level: the same operator, as a SparseHermitian."""
    level = entry.validation_levels(x)[0]
    return dataclasses.replace(inst, h_fin=generate_moqqaf(level, x).operator)


class TestSparseDenseCrossover:
    """A connected SparseHermitian at or below SPARSE_EIG_MIN_DIM is solved
    densely; Lanczos stays the route above it and the oracle below it.  A
    diagonal one takes a stable argsort of its diagonal at every dim.  The
    measure-once entries are decided through their generate_moqqaf
    operators here; tests/test_gallery.py checks their stored I - |g><g|
    against that route."""

    def test_sweep_verdicts_match_lanczos(self, monkeypatch):
        entries = {}
        checked = degenerate = 0
        for name, x in sweep_inputs():
            if name not in entries:
                entries[name] = gallery.build(name)
            inst = entries[name].family.build(x)
            if name in MEASURE_ONCE_ENTRIES:
                inst = moqqaf_route(entries[name], x, inst)
            if not isinstance(inst.h_fin, SparseHermitian) or inst.dim > SPARSE_EIG_MIN_DIM:
                continue
            dense = decide(inst)
            with monkeypatch.context() as m:
                m.setattr(aeqs, "SPARSE_EIG_MIN_DIM", 0)
                lanczos = decide(inst)
            assert (dense.outcome, dense.unique_ground) == (lanczos.outcome, lanczos.unique_ground)
            for field in ("ground_energy", "spectral_gap", "acc_overlap", "rej_overlap",
                          "accuracy"):
                a, b = getattr(dense, field), getattr(lanczos, field)
                assert a == b or abs(a - b) <= 1e-12, (name, x, field)   # dim 1: gap inf
            checked += 1
            degenerate += not dense.unique_ground
        assert (checked, degenerate) == (2244, 47)

    @pytest.mark.parametrize("dim", [SPARSE_EIG_MIN_DIM - 1, SPARSE_EIG_MIN_DIM,
                                     SPARSE_EIG_MIN_DIM + 1])
    def test_eigenvalues_match_lanczos_around_crossover(self, dim):
        h = random_sparse(np.random.default_rng(dim), dim)
        got = [value for value, _ in lowest_pairs(h, 3)]
        want = [value for value, _ in lowest_eigenpairs(h, 3)]
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12

    def test_diagonal_pairs_match_dense_eigensolve(self, monkeypatch):
        # Every diagonal H_fin of the sweep at or below the crossover takes
        # a stable argsort and no eigensolve; the checked dense eigensolve
        # is its oracle, degenerate ground spaces included.
        calls = count_eigen_paths(monkeypatch)
        entries, checked, degenerate = {}, 0, 0
        for name, x in sweep_inputs():
            if name in MEASURE_ONCE_ENTRIES:
                continue
            if name not in entries:
                entries[name] = gallery.build(name)
            h = entries[name].family.build(x).h_fin
            if not (isinstance(h, SparseHermitian) and np.array_equal(h.rows, h.cols)
                    and h.dim <= SPARSE_EIG_MIN_DIM):
                continue
            pairs = lowest_pairs(h, min(2, h.dim))
            oracle = hermitian_eig(h.to_dense())
            for i, (value, vector) in enumerate(pairs):
                assert value == oracle.values[i], (name, x)
                assert np.array_equal(np.abs(vector), np.abs(oracle.vectors[:, i])), (name, x)
            checked += 1
            degenerate += len(pairs) == 2 and pairs[1][0] - pairs[0][0] <= DEGENERACY_TOL
        assert calls == {"lanczos": 0, "dense": 0}
        assert (checked, degenerate) == (1159, 47)

    def test_diagonal_with_ties_and_unstored_zeros(self):
        # Entries 0 are not stored; ties keep index order.
        h = SparseHermitian.diagonal([2.0, 0.0, -1.0, 0.0, -1.0, 3.0])
        pairs = lowest_pairs(h, 6)
        assert [value for value, _ in pairs] == [-1.0, -1.0, 0.0, 0.0, 2.0, 3.0]
        assert [int(np.argmax(np.abs(v))) for _, v in pairs] == [2, 4, 1, 3, 0, 5]
        assert_eigenpairs(h, pairs)

    def test_diagonal_above_crossover_takes_no_lanczos(self, monkeypatch):
        # pal_marked "a#a": a diagonal H_fin of dim 5625 with a degenerate
        # ground space (the documented indeterminate outcome); Lanczos, its
        # route before, is the oracle of the two lowest eigenvalues.
        inst = gallery.build("pal_marked").family.build("a#a")
        h = inst.h_fin
        assert h.dim == 5625 and np.array_equal(h.rows, h.cols)
        want = [value for value, _ in lowest_eigenpairs(h, 2)]
        calls = count_eigen_paths(monkeypatch)
        pairs = lowest_pairs(h, 2)
        verdict = decide(inst)
        assert calls == {"lanczos": 0, "dense": 0}
        assert np.abs(np.subtract([value for value, _ in pairs], want)).max() <= 1e-12
        for value, v in pairs:
            assert np.linalg.norm(h.matvec(v) - value * v) == 0.0
        assert (verdict.outcome, verdict.unique_ground) == ("indeterminate", False)

    @pytest.mark.parametrize("dim,lanczos,dense", [(SPARSE_EIG_MIN_DIM, 0, 1),
                                                   (SPARSE_EIG_MIN_DIM + 1, 1, 0)])
    def test_path_taken(self, monkeypatch, dim, lanczos, dense):
        h = random_sparse(np.random.default_rng(7), dim)
        calls = count_eigen_paths(monkeypatch)
        lowest_pairs(h, 2)
        assert calls == {"lanczos": lanczos, "dense": dense}

    def test_dense_capacity_keeps_lanczos(self, monkeypatch):
        # A non-diagonal operator (a diagonal one takes the argsort at any
        # dim): the tridiagonal diag(0, 1, ..., 23) + 0.01 (shift + shift^T),
        # whose ground state lies on basis state 0.
        dim = 24
        upper = np.arange(dim - 1)
        h_fin = SparseHermitian(dim, np.concatenate([np.arange(dim), upper]),
                                np.concatenate([np.arange(dim), upper + 1]),
                                np.concatenate([np.arange(dim, dtype=float),
                                                np.full(dim - 1, 0.01)]))
        inst = AeqsInstance(size_bits=5, epsilon=0.9, h_ini=np.eye(dim), h_fin=h_fin,
                            s_acc=frozenset({0}), s_rej=frozenset(range(1, dim)))
        monkeypatch.setenv("AEQS_DENSE_MAX", "4")
        calls = count_eigen_paths(monkeypatch)
        assert decide(inst).outcome == "accept"
        assert calls == {"lanczos": 1, "dense": 0}


    def test_connected_operator_is_one_whole_space_call(self):
        # One component over the whole space: the pairs are the bits of the
        # dense or Lanczos call on the operator itself.
        for dim in (SPARSE_EIG_MIN_DIM - 1, SPARSE_EIG_MIN_DIM, SPARSE_EIG_MIN_DIM + 1):
            h = random_sparse(np.random.default_rng(dim), dim)
            singles, _, blocks = h.components()
            assert singles.size == 0 and [block.dim for _, block in blocks] == [dim]
            if dim > SPARSE_EIG_MIN_DIM:
                want = lowest_eigenpairs(h, 3)
            else:
                dec = hermitian_eig(h.to_dense())
                want = [(dec.values[i], dec.vectors[:, i]) for i in range(3)]
            for (a, u), (b, v) in zip(lowest_pairs(h, 3), want, strict=True):
                assert np.float64(a).tobytes() == np.float64(b).tobytes()
                assert u.tobytes() == np.ascontiguousarray(v).tobytes()


def pal_inputs():
    """Every pal_marked input w#v with |w|, |v| <= 2; the benchmark draws
    those with |w| = |v| = 2."""
    words = ["".join(w) for n in range(3) for w in itertools.product("ab", repeat=n)]
    return [w + "#" + v for w in words for v in words]


# Block sizes drawn by block_diagonal: singletons, and blocks below, at and
# above SPARSE_EIG_MIN_DIM.
BLOCK_SIZES = (1, 1, 1, 2, 3, 7, SPARSE_EIG_MIN_DIM, SPARSE_EIG_MIN_DIM + 5)
BLOCK_LEVELS = (-1.0, -0.25, 0.0, 0.5, 2.0)


@st.composite
def block_diagonal(draw):
    """(h, groups, k): a block-diagonal SparseHermitian under a random index
    permutation, the index set of each block, and a pair count.

    Each block is a random-basis matrix whose eigenvalues are drawn from
    BLOCK_LEVELS, so values repeat inside a block and across blocks; with so
    few distinct values Lanczos also ends on an exact Krylov space, which is
    what lets its pairs meet the dense tolerances below.  Every entry of a
    block is stored, so each block is one component."""
    sizes = draw(st.lists(st.sampled_from(BLOCK_SIZES), min_size=1, max_size=7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = sum(sizes)
    perm = rng.permutation(dim)
    groups, rows, cols, vals = [], [], [], []
    for start, size in zip(np.cumsum(sizes) - sizes, sizes):
        idx = perm[start:start + size]
        levels = rng.choice(BLOCK_LEVELS, size)
        block = np.diag(levels) if size == 1 else random_hermitian(rng, levels)
        r, c = np.triu_indices(size)
        groups.append(np.sort(idx))
        rows.append(idx[r])
        cols.append(idx[c])
        vals.append(block[r, c])
    h = SparseHermitian(dim, *map(np.concatenate, (rows, cols, vals)))
    return h, groups, draw(st.integers(1, min(dim, 6)))


def lowest_multiplicity(values) -> int:
    return int(np.count_nonzero(np.asarray(values) - values[0] <= DEGENERACY_TOL))


class TestComponentRoute:
    """lowest_pairs on a SparseHermitian that splits into several components:
    singletons give their diagonal entries, blocks the dense or Lanczos
    pairs of their submatrices, merged by value, then the component's
    lowest index, then the order within the block.  The dense eigensolve of
    the whole operator is the oracle."""

    @given(block_diagonal())
    @settings(max_examples=40, deadline=None)
    def test_pairs_match_dense_eigensolve(self, drawn):
        h, groups, k = drawn
        singles, _, blocks = h.components()
        found = [(i,) for i in singles] + [tuple(members) for members, _ in blocks]
        assert sorted(found) == sorted(map(tuple, groups))
        with pytest.MonkeyPatch.context() as m:
            calls = count_eigen_paths(m)
            pairs = lowest_pairs(h, k)
        sizes = [g.size for g in groups]
        assert calls == {"lanczos": sum(s > SPARSE_EIG_MIN_DIM for s in sizes),
                         "dense": sum(1 < s <= SPARSE_EIG_MIN_DIM for s in sizes)}
        got = [value for value, _ in pairs]
        oracle = hermitian_eig(h.to_dense()).values
        assert np.abs(np.subtract(got, oracle[:k])).max() <= 1e-12
        assert lowest_multiplicity(got) == min(k, lowest_multiplicity(oracle))
        assert_eigenpairs(h, pairs)

    @given(st.lists(st.sampled_from([-1.0, 0.0, 0.5]) | st.floats(-3.0, 3.0),
                    min_size=1, max_size=60),
           st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_diagonal_pairs_are_the_stable_argsort(self, entries, k):
        # The reference is the argsort route that a diagonal operator took
        # on its own before the component route, bit for bit.
        h = SparseHermitian.diagonal(entries)
        k = min(k, h.dim)
        values = np.zeros(h.dim)
        values[h.rows] = h.vals.real
        want = [(float(values[i]), np.eye(1, h.dim, i, dtype=complex)[0])
                for i in np.argsort(values, kind="stable")[:k]]
        for (a, u), (b, v) in zip(lowest_pairs(h, k), want, strict=True):
            assert np.float64(a).tobytes() == np.float64(b).tobytes()
            assert u.tobytes() == v.tobytes()

    def test_ties_merge_in_component_order(self):
        # Singletons at 0 and 3 carry the lowest eigenvalue of the block on
        # {2, 4} exactly.  The tie goes to the component with the lower
        # lowest index, so the order is 0, the block, 3; the block's second
        # pair comes next, below the singleton 3.0 at 1.
        block = np.array([[0.5, 0.25j], [-0.25j, 1.0]])
        low = hermitian_eig(block).values[0]
        h = SparseHermitian(5, [0, 1, 2, 2, 3, 4], [0, 1, 2, 4, 3, 4],
                            [low, 3.0, 0.5, 0.25j, low, 1.0])
        pairs = lowest_pairs(h, 4)
        assert [value for value, _ in pairs][:3] == [low] * 3
        assert [tuple(np.flatnonzero(v)) for _, v in pairs] == [(0,), (2, 4), (3,), (2, 4)]
        assert_eigenpairs(h, pairs)

    def test_pal_marked_verdicts_match_lanczos(self, monkeypatch):
        # A non-palindrome's H_fin is diagonal but for 2 x 2 blocks, and a
        # palindrome's is diagonal: no input reaches Lanczos.  Full-space
        # Lanczos, the route before, is the oracle of the verdict.
        family = gallery.build("pal_marked").family
        for x in pal_inputs():
            inst = family.build(x)
            with monkeypatch.context() as m:
                calls = count_eigen_paths(m)
                verdict = decide(inst)
            with monkeypatch.context() as m:
                m.setattr(aeqs, "lowest_pairs", lowest_eigenpairs)
                oracle = decide(inst)
            assert calls["lanczos"] == 0, x
            assert (verdict.outcome, verdict.unique_ground) \
                == (oracle.outcome, oracle.unique_ground), x
            assert abs(verdict.ground_energy) <= 1e-8, x

class TestKroneckerSum:
    @pytest.mark.parametrize("left,right", FACTOR_PAIRS)
    def test_to_dense_is_the_kron_expression(self, left, right):
        a, b = FACTORS[left], FACTORS[right]
        da, db = aeqs.hamiltonian_dim(a), aeqs.hamiltonian_dim(b)
        want = (np.kron(as_dense(a), np.eye(db, dtype=complex))
                + np.kron(np.eye(da, dtype=complex), as_dense(b)))
        assert np.array_equal(KroneckerSum(a, b).to_dense(), want)

    def test_to_dense_keeps_the_dense_threshold(self, monkeypatch):
        # Each 5 x 5 factor is within the threshold, their 25-dim sum is not.
        monkeypatch.setenv("AEQS_DENSE_MAX", "16")
        h = KroneckerSum(np.diag(np.arange(5.0)), np.diag(np.arange(5.0)))
        with pytest.raises(CapacityError, match="densifying dimension 25 exceeds AEQS_DENSE_MAX = 16"):
            h.to_dense()

    @pytest.mark.parametrize("left,right", FACTOR_PAIRS)
    def test_lowest_pairs_match_dense_route(self, left, right):
        h = KroneckerSum(FACTORS[left], FACTORS[right])
        want = hermitian_eig(h.to_dense()).values
        for k in range(1, 5):
            pairs = lowest_pairs(h, k)
            assert len(pairs) == k
            assert np.max(np.abs([value for value, _ in pairs] - want[:k])) <= 1e-12
            assert_eigenpairs(h, pairs)


def xor_family():
    """The benchmark's XOR family: prefix 1 xor (suffix 0 via reversal)."""
    return xor_product(
        gallery.build("l_prefix_1").family,
        inverse_image(gallery.build("l_prefix_0").family, lambda s: s[::-1], "reversal"),
    )


class TestXorFactored:
    @pytest.mark.parametrize("x", list(gallery.strings_up_to(("0", "1"), 3)) + ["01101", "10010"])
    def test_verdict_matches_dense_product(self, x):
        inst = xor_family().build(x)
        assert isinstance(inst.h_fin, KroneckerSum)
        a, b = decide(inst), decide(dataclasses.replace(inst, h_fin=as_dense(inst.h_fin)))
        assert a.outcome == b.outcome
        assert a.ground_energy == pytest.approx(b.ground_energy, abs=1e-10)
        assert a.spectral_gap == pytest.approx(b.spectral_gap, abs=1e-10)
        if b.unique_ground:
            assert a.acc_overlap == pytest.approx(b.acc_overlap, abs=1e-9)
            assert a.rej_overlap == pytest.approx(b.rej_overlap, abs=1e-9)

    @pytest.mark.parametrize("x", ["", "1", "01"])
    def test_densified_results_are_the_dense_instance_bits(self, x):
        # Densifying both sums must not change a bit of evolution (its start
        # state included), the gap scan or the time bound.
        inst = xor_family().build(x)
        dense = dataclasses.replace(inst, h_ini=as_dense(inst.h_ini), h_fin=as_dense(inst.h_fin))
        schedule = evolve.Schedule(6.0, 64)
        for method in ("midpoint", "trotter"):
            a = evolve.evolve_trace(inst, schedule, method, record_every=16)
            b = evolve.evolve_trace(dense, schedule, method, record_every=16)
            assert np.array_equal(a.final_state, b.final_state)
            assert a.final_overlap_sq == b.final_overlap_sq
            assert [r.overlap_sq for r in a.records] == [r.overlap_sq for r in b.records]
        assert minimum_interpolation_gap(inst, 16) == minimum_interpolation_gap(dense, 16)
        assert (adiabatic_time_bound(inst, 0.1, 1.0, grid=16)
                == adiabatic_time_bound(dense, 0.1, 1.0, grid=16))

    def test_no_dense_eigensolve_at_product_dimension(self, monkeypatch):
        dims = []

        def recording(h):
            dims.append(np.asarray(h).shape[0])
            return hermitian_eig(h)

        monkeypatch.setattr(aeqs, "hermitian_eig", recording)
        x = "011010"
        inst = xor_family().build(x)
        verdict = decide(inst)
        assert verdict.outcome == ("accept" if x.startswith("1") != x.endswith("0") else "reject")
        assert inst.dim not in dims


def block_inputs():
    """Gallery inputs up to dim 256 (sym_coin with subspace dimension up to
    8; usubsum "0#1#1" has a degenerate ground space) and compiled MO-QFAs."""
    gallery_inputs = [
        ("l_prefix_0", "0"), ("l_prefix_0", "01"), ("l_prefix_0", "0110"),
        ("l_prefix_1", "10"), ("equal", ""), ("equal", "ab"), ("equal", "abbabaab"),
        ("sym_coin", ""), ("sym_coin", "ab"), ("sym_coin", "abba"), ("sym_coin", "aabbab"),
        ("usubsum", "0#1#1"), ("usubsum", "0#11#1"), ("multdup", "0#1"),
        ("multdup_complement", "00#10"),
    ]
    cases = [(f"{name}:{x}", gallery.build(name).family.build(x)) for name, x in gallery_inputs]
    rng = np.random.default_rng(5)
    for n_states in (2, 3, 4):
        family = compilers.from_moqfa(compilers.random_moqfa_spec(rng, n_states))
        cases += [(f"moqfa{n_states}:{x}", family.build(x)) for x in ("", "01")]
    return cases


BLOCK_INPUTS = block_inputs()


def rank_one_pair(dim, f):
    """H_ini = I - |g><g| for g = deflation_vector(dim, 0) and
    H_fin = I - |f><f|, both stored as ProjectorComplements."""
    return AeqsInstance(size_bits=max(1, (dim - 1).bit_length()), epsilon=0.9,
                        h_ini=aeqs.deflation_hamiltonian(dim, 0),
                        h_fin=ProjectorComplement(f), s_acc=frozenset({0}), s_rej=frozenset({1}))


def with_overlap(dim, weight, rng):
    """A unit vector f with |<g|f>|^2 = weight for g = deflation_vector(dim, 0),
    random and complex off g."""
    g = aeqs.deflation_vector(dim, 0)
    r = random_unit(rng, dim)
    r -= g * np.vdot(g, r)
    f = math.sqrt(weight) * g + math.sqrt(1.0 - weight) * r / np.linalg.norm(r)
    return f / np.linalg.norm(f)


def rank_one_inputs():
    """Pairs of ProjectorComplements: a random complex f at dims 2, 16 and
    256; f orthogonal to g (k = 1); and |<g|f>|^2 of 1e-12, 9e-10 (below
    DEGENERACY_TOL) and 1e-6."""
    rng = np.random.default_rng(31)
    cases = [(f"random:{dim}", rank_one_pair(dim, random_unit(rng, dim))) for dim in (2, 16, 256)]
    cases.append(("orthogonal:16", rank_one_pair(16, aeqs.deflation_vector(16, 5))))
    cases += [(f"overlap:{weight:g}", rank_one_pair(16, with_overlap(16, weight, rng)))
              for weight in (1e-12, 9e-10, 1e-6)]
    return cases


RANK_ONE_INPUTS = rank_one_inputs()
RANK_ONE_LABELS = {label for label, _ in RANK_ONE_INPUTS}
SPLIT_INPUTS = BLOCK_INPUTS + RANK_ONE_INPUTS
RANK_ONE_FIN_INPUTS = [c for c in SPLIT_INPUTS if isinstance(c[1].h_fin, ProjectorComplement)]


def dense_scan_gap(h_ini: np.ndarray, h_fin: np.ndarray, grid: int) -> float:
    """Smallest gap of the dense H(s) over the gap scan's grid, one full
    eigvalsh per point: the oracle of the block split's scan."""
    gaps = []
    for s in np.arange(grid) / (grid - 1):
        values = np.linalg.eigvalsh((1.0 - s) * h_ini + s * h_fin)
        gaps.append(float(values[1] - values[0]) if len(values) > 1 else math.inf)
    return min(gaps)


def dense_ground_projection(h: np.ndarray, psi: np.ndarray) -> tuple:
    """(lowest eigenvalue of h, weight of psi on the eigenvectors within
    DEGENERACY_TOL of it), from one full eigh: the oracle of the block
    split's records."""
    values, vectors = np.linalg.eigh(h)
    ground = vectors[:, values <= values[0] + DEGENERACY_TOL]
    return float(values[0]), float(np.sum(np.abs(ground.conj().T @ psi) ** 2))


def rounding_tolerance(h: np.ndarray) -> float:
    """How far a block-split value of h may lie from its dense oracle:
    1e-12, or dim eps / separation where the lowest eigenvalues (those
    within DEGENERACY_TOL of the lowest) lie closer than that to the rest of
    the spectrum, since an eigensolve's rounding of about dim eps ||h|| is
    divided by the separation.  A pair with |<g|f>| = 1e-6 has a
    separation of 1e-6 at s = 1/2."""
    values = np.linalg.eigvalsh(h)
    rest = values[values > values[0] + DEGENERACY_TOL]
    if not len(rest):
        return 1e-12
    return max(1e-12, len(h) * np.finfo(float).eps / (rest[0] - values[0]))


def invariance_residual(h: np.ndarray, q: np.ndarray) -> float:
    """||H Q - Q Q^dagger H Q||: how far span(Q) is from invariant under H."""
    return spectral_norm(h @ q - q @ (q.conj().T @ h @ q))


def with_dense_h_ini(inst):
    """The same instance with H_ini stored dense, so that it takes the
    whole-space block split rather than the dynamical subspace of g."""
    return dataclasses.replace(inst, h_ini=as_dense(inst.h_ini))


def with_dense_h_fin(inst):
    """The same instance with H_fin stored dense, so that the block split
    finds H_fin on Q^perp by its eigensolve rather than in closed form."""
    return dataclasses.replace(inst, h_fin=as_dense(inst.h_fin))


def split_routes(inst):
    """The instance as stored, with H_ini dense and with H_fin dense."""
    return inst, with_dense_h_ini(inst), with_dense_h_fin(inst)


def count_eigensolves(monkeypatch):
    """A Counter of np.linalg.eigh and eigvalsh calls from now on, keyed by
    the size of the matrix (a stack of matrices counts once)."""
    sizes = Counter()
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            sizes[np.shape(a)[-1]] += 1
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return sizes


class TestBlockSplit:
    """The gap scan, the time bound and the trace records read off the block
    split of H(s), against dense eigensolves of H(s): on the dynamical
    subspace of g for H_ini = I - |g><g|, and on the whole space for the
    same H_ini stored dense.  Where H_fin = I - |f><f| is stored as a
    ProjectorComplement, H_fin on Q^perp is in closed form; the same H_fin
    stored dense keeps the Q^perp eigensolve covered."""

    @pytest.mark.parametrize("label,inst", SPLIT_INPUTS, ids=[c[0] for c in SPLIT_INPUTS])
    def test_gap_and_bound_match_dense_scan(self, label, inst):
        # Grid 17 contains s = 1/2, where the gap of a rank-one pair is
        # smallest: |<g|f>|, 0 for f orthogonal to g.
        assert isinstance(inst.h_ini, ProjectorComplement)
        h_ini, h_fin = as_dense(inst.h_ini), as_dense(inst.h_fin)
        diff_norm = spectral_norm(h_fin - h_ini)
        for grid in (2, 16, 17):
            gap = dense_scan_gap(h_ini, h_fin, grid)
            bound = diff_norm ** 2.0 / (0.1 * gap ** 3.0) if gap > DEGENERACY_TOL else math.inf
            # The bound goes as gap^-3: it carries the gap's relative
            # rounding, about dim eps / gap, three times over.  That passes
            # 1e-12 only for the small gaps of the rank-one pairs at s = 1/2.
            tol = 1e-12
            if label in RANK_ONE_LABELS:
                tol = max(tol, 3.0 * inst.dim * np.finfo(float).eps / max(gap, DEGENERACY_TOL))
            for route in split_routes(inst):
                got = minimum_interpolation_gap(route, grid)
                assert got == gap or abs(got - gap) <= 1e-12
                got = adiabatic_time_bound(route, 0.1, 1.0, grid=grid)
                assert got == bound or abs(got - bound) <= tol * abs(bound)

    @pytest.mark.parametrize("label,inst", SPLIT_INPUTS, ids=[c[0] for c in SPLIT_INPUTS])
    def test_commutator_matches_dense_product(self, label, inst):
        # [A, B] of the k x k block on every split route against the dense
        # commutator; on a pair, against |<g|f>| sqrt(1 - |<g|f>|^2).
        h_ini, h_fin = as_dense(inst.h_ini), as_dense(inst.h_fin)
        want = spectral_norm(h_ini @ h_fin - h_fin @ h_ini)
        for route in split_routes(inst):
            assert abs(commutator_check(route) - want) <= 1e-12
        if aeqs.is_projector_pair(inst):
            c, r = aeqs._pair_residual(inst.h_ini.vector, inst.h_fin.vector)
            assert abs(commutator_check(inst) - abs(c) * np.linalg.norm(r)) <= 1e-15

    def test_orthogonal_final_vector_closes_the_gap_at_one_half(self):
        # f orthogonal to g: Q = span(g), and the one line that can be ground
        # is f's, mu_0 = 0; the gap closes at s = 1/2, so the bound is inf.
        inst = dict(RANK_ONE_INPUTS)["orthogonal:16"]
        split = aeqs._block_split(inst, vectors=True)
        assert split.q.shape[1] == 1 and split.mu[0] <= 1e-15 and split.lines.shape[1] == 1
        assert abs(abs(np.vdot(inst.h_fin.vector, split.lines[:, 0])) - 1.0) <= 1e-15
        assert minimum_interpolation_gap(inst, 17) == 0.0
        assert adiabatic_time_bound(inst, 0.1, 1.0, grid=17) == math.inf

    @pytest.mark.parametrize("label,inst", RANK_ONE_FIN_INPUTS,
                             ids=[c[0] for c in RANK_ONE_FIN_INPUTS])
    def test_closed_form_lines_match_q_perp_eigensolve(self, label, inst):
        closed = aeqs._block_split(inst, vectors=True)
        dense = aeqs._block_split(with_dense_h_fin(inst), vectors=True)
        assert closed.mu.shape == dense.mu.shape
        assert np.abs(closed.mu - dense.mu).max(initial=0.0) <= 1e-12
        # The closed form keeps at most the f line, and only when it can be
        # ground; the dense rule keeps every line that might be.
        assert closed.lines.shape[1] <= min(1, dense.lines.shape[1])
        if closed.lines.shape[1]:
            overlap = dense.lines.conj().T @ closed.lines[:, 0]
            assert abs(np.vdot(overlap, overlap).real - 1.0) <= 1e-12

    @pytest.mark.parametrize("label,inst", SPLIT_INPUTS, ids=[c[0] for c in SPLIT_INPUTS])
    def test_records_match_dense_ground_projection(self, label, inst, monkeypatch):
        seen = []
        block = aeqs.BlockSplit.ground_projection

        def recording(split, s, psi):
            seen.append((s, psi, block(split, s, psi)))
            return seen[-1][2]

        monkeypatch.setattr(aeqs.BlockSplit, "ground_projection", recording)
        power_of_two = inst.dim & (inst.dim - 1) == 0
        methods = ("midpoint", "trotter", "phase") if power_of_two else ("midpoint", "trotter")
        schedule = evolve.Schedule(6.0, 64)
        records = {}
        for route in split_routes(inst):
            for method in methods:
                seen.clear()
                trace = evolve.evolve_trace(route, schedule, method, record_every=16)
                assert [(s, got) for s, _, got in seen] == [
                    (r.s, (r.ground_energy, r.overlap_sq)) for r in trace.records]
                final = evolve.final_overlap_sq(route, schedule, method)
                assert seen[-1][0] == 1.0 and final == seen[-1][2][1]
                for s, psi, (energy, weight) in seen:
                    h = aeqs.interpolated_hamiltonian(inst, s)
                    expect = dense_ground_projection(h, psi)
                    tol = rounding_tolerance(h) if label in RANK_ONE_LABELS else 1e-12
                    assert abs(energy - expect[0]) <= 1e-12
                    assert abs(weight - expect[1]) <= tol
                records.setdefault(method, []).append(
                    np.array([got for _, _, got in seen] + [(0.0, final)]))
        # The closed-form split against the eigensolve of H_fin on Q^perp:
        # they agree within 1e-12 even where the dense oracle above is
        # ill-conditioned, plus T times the invariance residual of the
        # eigensolve route's Krylov basis, the bound dynamical_basis states.
        # That residual is 8.7e-11 at |<g|f>|^2 = 1e-12, where the Krylov
        # basis takes f from a vector of norm 1e-6.
        q = aeqs._block_split(with_dense_h_fin(inst)).q
        residual = max(invariance_residual(h, q) for h in (as_dense(inst.h_ini),
                                                            as_dense(inst.h_fin)))
        for closed, _, dense_fin in records.values():
            assert np.abs(closed - dense_fin).max() <= 1e-12 + schedule.t_total * residual

    def test_pair_basis_is_invariant_next_to_orthogonal(self):
        # At |<g|f>|^2 = 1e-12 the pair's Q = [g, r/|r|] spans {g, f} to
        # rounding, where the Krylov basis is invariant only to 8.7e-11.
        inst = dict(RANK_ONE_INPUTS)["overlap:1e-12"]
        q = aeqs._block_split(inst).q
        assert q.shape == (16, 2)
        for h in (as_dense(inst.h_ini), as_dense(inst.h_fin)):
            assert invariance_residual(h, q) <= 1e-15

    @pytest.mark.parametrize("name,x", [("usubsum", "0#1#1"), ("equal", "abbabaab"),
                                        ("sym_coin", "abba")])
    def test_weight_of_any_state_matches_dense(self, name, x):
        # usubsum "0#1#1" has a line of Q^perp in its ground space.
        self.check_weight_of_any_state(gallery.build(name).family.build(x), lambda h, q: 1e-12)

    @pytest.mark.parametrize("label", ["orthogonal:16", "overlap:1e-12", "random:256"])
    def test_weight_of_any_state_matches_dense_rank_one(self, label):
        # The orthogonal pair has the line of f in its ground space for
        # s >= 1/2.  Q is invariant only up to its residual
        # ||H Q - Q Q^dagger H Q|| (below SUBSPACE_TOL per unit norm), which
        # a state off Q sees: 8.7e-11 at |<g|f>|^2 = 1e-12 on the route with
        # H_fin dense, whose Krylov Q takes f from H_fin g - g <g|H_fin|g>, a
        # vector of norm 1e-6.
        inst = dict(RANK_ONE_INPUTS)[label]
        hams = as_dense(inst.h_ini), as_dense(inst.h_fin)

        def tolerance(h, q):
            q = np.eye(inst.dim) if q is None else q
            return rounding_tolerance(h) + max(invariance_residual(m, q) for m in hams)

        self.check_weight_of_any_state(inst, tolerance)

    @staticmethod
    def check_weight_of_any_state(inst, tolerance):
        """States with weight off the dynamical subspace, so the lines of
        Q^perp count too; tolerance(H(s), Q) bounds the weight's error."""
        h_ini, h_fin = as_dense(inst.h_ini), as_dense(inst.h_fin)
        rng = np.random.default_rng(3)
        for route in split_routes(inst):
            split = aeqs._block_split(route, vectors=True)
            for s in (0.0, 0.25, 0.5, 0.9, 1.0):
                psi = rng.standard_normal(inst.dim) + 1j * rng.standard_normal(inst.dim)
                psi /= np.linalg.norm(psi)
                got = split.ground_projection(s, psi)
                h = aeqs.interpolated_hamiltonian(inst, s)
                expect = dense_ground_projection(h, psi)
                assert abs(got[0] - expect[0]) <= 1e-12
                assert abs(got[1] - expect[1]) <= tolerance(h, split.q)

    def test_whole_space_split_has_no_lines(self):
        inst = gallery.build("equal").family.build("ab")
        split = aeqs._block_split(with_dense_h_ini(inst), vectors=True)
        assert split.q is None   # the whole space, never built as an identity
        assert split.mu.shape == (0,) and split.lines.shape == (inst.dim, 0)

    def test_whole_space_scan_memory_stays_near_one_matrix(self):
        # xor "01" is a KroneckerSum of dim 256: the scan keeps one dim x dim
        # H(s) at a time, not a (grid, dim, dim) stack (67 MB here).
        inst = xor_family().build("01")
        assert inst.dim == 256 and not isinstance(inst.h_ini, ProjectorComplement)
        tracemalloc.start()
        try:
            minimum_interpolation_gap(inst, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * inst.dim ** 2 * 16

    def test_difference_norm_on_q_perp(self):
        # H_fin = 5 (I - |g><g|): Q = span(g), where both Hamiltonians vanish,
        # so ||H_fin - H_ini|| = 4 comes from Q^perp alone; the gap is 1 at s = 0.
        g = aeqs.deflation_vector(8, 0)
        inst = AeqsInstance(size_bits=3, epsilon=0.9, h_ini=ProjectorComplement(g),
                            h_fin=5.0 * (np.eye(8) - np.outer(g, g.conj())),
                            s_acc=frozenset({0}), s_rej=frozenset({1}))
        assert minimum_interpolation_gap(inst, 8) == pytest.approx(1.0, abs=1e-12)
        assert adiabatic_time_bound(inst, 0.1, 1.0) == pytest.approx(4.0**2 / 0.1, rel=1e-12)

    @pytest.mark.parametrize("name,x,dim", [
        ("l_prefix_0", "0", 12), ("l_prefix_0", "0110", 24), ("equal", "ab", 4),
        ("equal", "abbabaab", 256), ("equal", "ab" * 5, 2**10), ("equal", "ab" * 6, 2**12),
        ("equal", "ab" * 7, 2**14), ("equal", "ab" * 8, 2**16),
    ])
    def test_grid_through_half_gives_search_gap(self, name, x, dim):
        # H(s) restricted to Q is the adiabatic search Hamiltonian, whose gap
        # is smallest at s = 1/2, where it is 1/sqrt(dim) (Roland & Cerf,
        # quant-ph/0107015); grid 65 contains s = 1/2.  A pair of
        # ProjectorComplements is split in closed form above EVOLVE_DIM_MAX.
        inst = gallery.build(name).family.build(x)
        assert inst.dim == dim
        assert abs(minimum_interpolation_gap(inst, 65) - 1.0 / math.sqrt(dim)) <= 1e-12

    def test_full_dimension_solves_do_not_grow_with_records_or_grid(self, monkeypatch):
        # H_fin stored dense, so each split runs its one Q^perp eigensolve.
        inst = with_dense_h_fin(gallery.build("equal").family.build("abbabaab"))
        assert inst.dim == 256
        sizes = count_eigensolves(monkeypatch)

        def solves(run, args):
            counts = []
            for arg in args:
                sizes.clear()
                run(arg)
                counts.append(sum(n for size, n in sizes.items() if size >= 254))
            return counts

        schedule = evolve.Schedule(8.0, 256)
        for method in ("midpoint", "trotter", "phase"):
            counts = solves(lambda every: evolve.evolve_trace(inst, schedule, method, every),
                            (16, 64))
            assert counts[0] == counts[1] <= 3, (method, counts)
        for run in (lambda grid: minimum_interpolation_gap(inst, grid),
                    lambda grid: adiabatic_time_bound(inst, 0.1, 1.0, grid=grid)):
            counts = solves(run, (8, 64))
            assert counts[0] == counts[1] <= 1, counts

    def test_rank_one_pair_makes_no_full_dimension_eigensolve(self, monkeypatch):
        # Both Hamiltonians stored as I - |v><v|: H_fin on Q^perp and the
        # phase method's eigenbasis of H_fin are in closed form, so no
        # eigensolve is larger than the k x k block.
        inst = gallery.build("equal").family.build("abbabaab")
        assert isinstance(inst.h_fin, ProjectorComplement) and inst.dim == 256
        k = aeqs._block_split(inst).q.shape[1]
        sizes = count_eigensolves(monkeypatch)
        schedule = evolve.Schedule(8.0, 256)
        for method in ("midpoint", "trotter", "phase"):
            evolve.evolve_trace(inst, schedule, method, record_every=16)
        minimum_interpolation_gap(inst, 64)
        adiabatic_time_bound(inst, 0.1, 1.0, grid=64)
        assert k == 2 and sizes and max(sizes) <= k, sizes


def _operator_bytes(h) -> bytes:
    """The stored arrays of a Hamiltonian, in any representation."""
    if isinstance(h, ProjectorComplement):
        return h.vector.tobytes()
    if isinstance(h, SparseHermitian):
        return h.rows.tobytes() + h.cols.tobytes() + h.vals.tobytes()
    if isinstance(h, KroneckerSum):
        return _operator_bytes(h.a) + _operator_bytes(h.b)
    return np.asarray(h).tobytes()


def _instance_bytes(inst: AeqsInstance) -> tuple:
    return (_operator_bytes(inst.h_ini), _operator_bytes(inst.h_fin),
            inst.s_acc.tobytes(), inst.s_rej.tobytes(), inst.epsilon, inst.size_bits)


class TestBuildersDeterministic:
    """A family keeps no instance, so two builds of one input are two
    instances, and their operators, criteria and accuracy bound agree bit
    for bit."""

    INPUTS = {"l_prefix_0": "0110", "l_prefix_1": "0110", "equal": "abba",
              "sym_coin": "abba", "pal_marked": "a#a", "usubsum": "00#1#11",
              "multdup": "01#01#11", "multdup_complement": "01#01#11",
              "moqfa": "0110", "garbage": "011", "xor": "0110"}

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_two_builds_agree(self, name):
        if name == "moqfa":
            fam = compilers.from_moqfa(compilers.random_moqfa_spec(np.random.default_rng(5), 3))
        elif name == "garbage":
            fam = compilers.from_garbage_1qfa(
                compilers.random_garbage_spec(np.random.default_rng(5), 2, 2))
        elif name == "xor":
            # The benchmark's dense xor family, on a fixed point of the reversal.
            fam = xor_product(gallery.build("l_prefix_1").family,
                              inverse_image(gallery.build("l_prefix_0").family,
                                            lambda s: s[::-1], "reversal"))
        else:
            fam = gallery.build(name).family
        x = self.INPUTS[name]
        first, second = fam.build(x), fam.build(x)
        assert first is not second
        assert _instance_bytes(first) == _instance_bytes(second)
