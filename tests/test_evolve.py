import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from aeqslab import aeqs, evolve, gallery
from aeqslab.aeqs import (
    AeqsInstance,
    ProjectorComplement,
    _compress,
    as_dense,
    deflation_hamiltonian,
    from_oracle,
    ground_state,
)
from aeqslab.evolve import (
    PAIRWISE_DIM_MAX,
    STEP_BUDGET,
    STEP_PHASE_MAX,
    EvolveError,
    NotHadamardDiagonal,
    Schedule,
    default_r_policy,
    dynamical_basis,
    evolve_trace,
    final_overlap_sq,
    find_sufficient_t,
    midpoint_propagator,
    phase_shift_factors,
    phase_shift_product,
    trotter_error,
    trotter_product,
)
from aeqslab.linalg import CapacityError, hadamard_power, spectral_norm, unitary_exp

RNG = np.random.default_rng(99)


def random_hermitian(n, rng=RNG):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def hadamard_diag_instance(dim, rng=RNG, s_acc=(0,), s_rej=(1,)):
    k = dim.bit_length() - 1
    w = hadamard_power(k)
    h_ini = w @ np.diag(rng.uniform(0.0, 2.0, dim)).astype(complex) @ w
    h_fin = random_hermitian(dim, rng)
    return AeqsInstance(size_bits=k, epsilon=0.9, h_ini=h_ini, h_fin=h_fin,
                        s_acc=frozenset(s_acc), s_rej=frozenset(s_rej))


def random_unitary(n, rng=RNG):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def projector_instance(fin_values, fin_vectors):
    """H_ini = I - |g><g| with g the Hadamard image of e_0 (so the phase
    method applies), H_fin with the given eigenvalues and eigenvectors."""
    dim = len(fin_values)
    h_fin = (fin_vectors * np.asarray(fin_values, dtype=float)) @ fin_vectors.conj().T
    return AeqsInstance(size_bits=dim.bit_length() - 1, epsilon=0.9,
                        h_ini=deflation_hamiltonian(dim, 0),
                        h_fin=(h_fin + h_fin.conj().T) / 2,
                        s_acc=frozenset({0}), s_rej=frozenset({1}))


def start_state(inst):
    return ground_state(inst.h_ini)[1].astype(complex)


def ground_weight(ground_vectors, psi):
    return float(np.sum(np.abs(ground_vectors.conj().T @ psi) ** 2))


class TestSchedule:
    def test_coefficients(self):
        sch = Schedule(8.0, 4)
        # alpha_j + beta_j = T/R; gamma = (T/R)/(2R).
        for j in range(4):
            assert sch.alpha(j) + sch.beta(j) == pytest.approx(2.0)
            assert sch.alpha(j) == pytest.approx((2 * 4 - 2 * j - 1) * sch.gamma)
            assert sch.beta(j) == pytest.approx((2 * j + 1) * sch.gamma)
        assert sch.gamma == pytest.approx(2.0 / 8.0)

    def test_validation(self):
        with pytest.raises(EvolveError):
            Schedule(-1.0, 4)
        with pytest.raises(EvolveError):
            Schedule(1.0, 0)
        with pytest.raises(EvolveError):
            Schedule(1.0, 4, hbar=0.0)
        for t_total, hbar in ((float("nan"), 1.0), (float("inf"), 1.0),
                              (1.0, float("nan")), (1.0, float("inf"))):
            with pytest.raises(EvolveError):
                Schedule(t_total, 4, hbar=hbar)

    @pytest.mark.parametrize("r_steps", [2.5, 64.0, True, False, "64", None])
    def test_refinement_count_must_be_an_integer(self, r_steps):
        # A float R used to fail deep inside the run with a bare TypeError,
        # and True ran as R = 1.
        with pytest.raises(EvolveError, match="refinement count"):
            Schedule(1.0, r_steps)

    def test_refinement_count_is_bounded_where_it_is_formed(self):
        # Past the budget R is refused at once, before gamma forms a float
        # from it; the time search never forms such a schedule.
        assert Schedule(1.0, STEP_BUDGET).r_steps == STEP_BUDGET
        for r_steps in (STEP_BUDGET + 1, 10**400):
            with pytest.raises(CapacityError, match=f"exceeds STEP_BUDGET = {STEP_BUDGET}"):
                Schedule(1.0, r_steps)

    def test_numpy_integer_refinement_count(self):
        assert Schedule(8.0, np.int64(4)).gamma == Schedule(8.0, 4).gamma

    def test_float_policy_rejected(self):
        inst = gallery.build("l_prefix_0").family.build("0")
        with pytest.raises(EvolveError, match="refinement count"):
            find_sufficient_t(inst, 0.9, r_policy=lambda t: t**3)

    def test_hbar_scales_coefficients(self):
        a = Schedule(8.0, 16, hbar=1.0)
        b = Schedule(8.0, 16, hbar=2.0)
        assert b.alpha(3) == pytest.approx(a.alpha(3) / 2.0)


class TestMidpointPropagator:
    def test_constant_hamiltonian_exact(self):
        h = random_hermitian(5)
        inst = AeqsInstance(size_bits=3, epsilon=0.9, h_ini=h, h_fin=h,
                            s_acc=frozenset({0}), s_rej=frozenset({1}))
        u = midpoint_propagator(inst, Schedule(3.0, 64))
        assert spectral_norm(u - unitary_exp(h, 3.0)) <= 1e-9

    def test_r1_single_midpoint_exponential(self):
        inst = hadamard_diag_instance(4)
        u = midpoint_propagator(inst, Schedule(2.0, 1))
        from aeqslab.aeqs import interpolated_hamiltonian

        expect = unitary_exp(interpolated_hamiltonian(inst, 0.5), 2.0)
        assert spectral_norm(u - expect) <= 1e-12

    def test_unitary(self):
        inst = gallery.build("l_prefix_0").family.build("0")
        u = midpoint_propagator(inst, Schedule(5.0, 32))
        assert spectral_norm(u @ u.conj().T - np.eye(inst.dim)) <= 1e-8

    def test_refinement_converges(self):
        inst = gallery.build("l_prefix_0").family.build("0")
        u1 = midpoint_propagator(inst, Schedule(4.0, 64))
        u2 = midpoint_propagator(inst, Schedule(4.0, 128))
        u3 = midpoint_propagator(inst, Schedule(4.0, 256))
        assert spectral_norm(u2 - u3) <= spectral_norm(u1 - u2) + 1e-12


class TestTrotterProduct:
    def test_commuting_pair_exact(self):
        d1 = np.diag(RNG.uniform(0, 1, 4)).astype(complex)
        d2 = np.diag(RNG.uniform(0, 1, 4)).astype(complex)
        inst = AeqsInstance(size_bits=2, epsilon=0.9, h_ini=d1, h_fin=d2,
                            s_acc=frozenset({0}), s_rej=frozenset({1}))
        sch = Schedule(6.0, 32)
        assert spectral_norm(trotter_product(inst, sch)
                             - midpoint_propagator(inst, sch)) <= 1e-9

    def test_t0_identity(self):
        inst = hadamard_diag_instance(4)
        u = trotter_product(inst, Schedule(0.0, 1))
        assert np.allclose(u, np.eye(4), atol=1e-12)

    def test_unitary(self):
        inst = gallery.build("equal").family.build("ab")
        u = trotter_product(inst, Schedule(8.0, 128))
        assert spectral_norm(u @ u.conj().T - np.eye(inst.dim)) <= 1e-8

    def test_error_shrinks_with_r(self):
        inst = gallery.build("l_prefix_0").family.build("0")
        errs = [trotter_error(inst, Schedule(10.0, r)) for r in (16, 32, 64, 128, 256, 512)]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_error_scales_as_t_squared(self):
        # Perturbative regime (T ||H|| small): doubling T quadruples the
        # accumulated step-splitting error at fixed R.
        inst = hadamard_diag_instance(4, rng=np.random.default_rng(5))
        r = 256
        e1 = trotter_error(inst, Schedule(0.25, r))
        e2 = trotter_error(inst, Schedule(0.5, r))
        assert 3.5 <= e2 / e1 <= 4.5


class TestPhaseShift:
    def test_lemma2_instance_factorization(self):
        inst = from_oracle(lambda x: True).build("0")
        sch = Schedule(4.0, 25)
        z = phase_shift_product(inst, sch)
        v = trotter_product(inst, sch)
        assert spectral_norm(z - v) <= 25 * 1e-10

    def test_per_step_equality_random_dims(self):
        for dim in (2, 4):
            inst = hadamard_diag_instance(dim)
            sch = Schedule(3.0, 16)
            factors = phase_shift_factors(inst, sch)
            psi = RNG.standard_normal(dim) + 1j * RNG.standard_normal(dim)
            for j in range(sch.r_steps):
                z = factors.step(j, sch.r_steps)
                v = unitary_exp(np.asarray(inst.h_ini), sch.alpha(j)) @ unitary_exp(
                    np.asarray(inst.h_fin), sch.beta(j)
                )
                assert spectral_norm(z - v) <= 1e-10
                c = factors.basis.conj().T @ psi[:, None]
                assert np.abs(factors.basis @ factors.apply(j, j + 1, c)
                              - (z @ psi)[:, None]).max() <= 1e-12

    def test_computational_diagonal_rejected(self):
        # Diagonal in the computational basis is NOT Hadamard-diagonal.
        inst = AeqsInstance(size_bits=1, epsilon=0.9,
                            h_ini=np.diag([0.0, 1.0]).astype(complex),
                            h_fin=random_hermitian(2),
                            s_acc=frozenset({0}), s_rej=frozenset({1}))
        with pytest.raises(NotHadamardDiagonal):
            phase_shift_product(inst, Schedule(1.0, 4))

    def test_non_power_of_two_rejected(self):
        inst = gallery.build("l_prefix_0").family.build("0")   # dim 12
        with pytest.raises(NotHadamardDiagonal):
            phase_shift_product(inst, Schedule(1.0, 4))

    @pytest.mark.parametrize("dim,distinguished", [(2, 1), (16, 5), (256, 0), (256, 201)])
    def test_projector_check_matches_dense(self, dim, distinguished):
        # H_ini = I - |g><g| is checked from W g alone; the dense conjugation
        # W H_ini W is the oracle.
        h_ini = deflation_hamiltonian(dim, distinguished)
        w = hadamard_power(dim.bit_length() - 1)
        diagonal, off = evolve._hadamard_diagonal(h_ini, w)
        want_diagonal, want_off = evolve._hadamard_diagonal(h_ini.to_dense(), w)
        assert np.abs(diagonal - want_diagonal).max() <= 1e-15
        assert diagonal[distinguished] <= 1e-15 and np.delete(diagonal, distinguished).min() == 1.0
        assert max(off, want_off) <= 1e-14

    @pytest.mark.parametrize("size", [1e-12, 1e-9, 1e-6, 1.0])
    def test_projector_off_norm_is_the_dense_one(self, size):
        # g = W (e_3 + size r) normalized: W H_ini W has an off-diagonal part
        # of norm about size * |r|, which the first-order value reads; far
        # from a basis vector it stays below the dense norm.
        dim, rng = 16, np.random.default_rng(4)
        w = hadamard_power(4)
        v = np.zeros(dim, dtype=complex)
        v[3] = 1.0
        v += size * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        h_ini = ProjectorComplement(w @ (v / np.linalg.norm(v)))
        _, off = evolve._hadamard_diagonal(h_ini, w)
        _, want = evolve._hadamard_diagonal(h_ini.to_dense(), w)
        if size < 1.0:
            assert off == pytest.approx(want, rel=1e-5, abs=1e-15)
        assert off <= want + 1e-15

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_closed_form_fin_basis_matches_trotter_product(self, dim):
        # H_fin = I - |f><f| stored as a ProjectorComplement: the phase
        # method takes rank-one steps above PAIRWISE_DIM_MAX and its
        # eigenbasis in closed form below, never eigh.
        rng = np.random.default_rng(dim)
        f = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        inst = AeqsInstance(size_bits=dim.bit_length() - 1, epsilon=0.9,
                            h_ini=deflation_hamiltonian(dim, 0),
                            h_fin=ProjectorComplement(f / np.linalg.norm(f)),
                            s_acc=frozenset({0}), s_rej=frozenset({1}))
        sch = Schedule(3.0, 8)
        z = phase_shift_product(inst, sch)
        assert spectral_norm(z - trotter_product(inst, sch)) <= 1e-12

    def test_projector_not_hadamard_diagonal_rejected(self):
        inst = projector_instance(np.arange(8.0), random_unitary(8))
        inst.h_ini = ProjectorComplement(random_unitary(8)[:, 0])
        with pytest.raises(NotHadamardDiagonal, match="off-diagonal norm"):
            phase_shift_factors(inst, Schedule(1.0, 4))


def dense_m_factors(inst, sch):
    """The phase method's steps through the whole coupling M = W^dagger V
    of the H_fin eigenbasis V, whatever the type of H_fin."""
    w = hadamard_power(inst.dim.bit_length() - 1)
    ini_values, _ = evolve._hadamard_diagonal(inst.h_ini, w)
    return evolve._SplittingSteps(ini_values, w, *aeqs._eigenbasis(inst.h_fin), sch)


class TestRankOneSteps:
    """Above PAIRWISE_DIM_MAX a ProjectorComplement H_fin takes O(dim) steps
    with no eigenbasis of H_fin; the dense-M steps are the oracle."""

    @pytest.mark.parametrize("length", range(1, 9))
    def test_records_match_dense_coupling(self, length, monkeypatch):
        inst = gallery.build("equal").family.build("abbabaab"[:length])
        sch = Schedule(8.0, 256)
        got = evolve_trace(inst, sch, "phase", record_every=16)
        assert isinstance(phase_shift_factors(inst, sch), evolve._RankOneSteps) == (
            inst.dim > PAIRWISE_DIM_MAX)
        monkeypatch.setattr(evolve, "phase_shift_factors", dense_m_factors)
        want = evolve_trace(inst, sch, "phase", record_every=16)
        assert len(got.records) == len(want.records) == 16
        for a, b in zip(got.records, want.records):
            assert (a.j, a.s) == (b.j, b.s)
            for name in ("ground_energy", "overlap_sq", "norm"):
                assert abs(getattr(a, name) - getattr(b, name)) <= 1e-12, (a.j, name)
        assert np.abs(got.final_state - want.final_state).max() <= 1e-12

    def test_norm_stays_at_rounding(self):
        # A dense M is unitary only to rounding and its error compounds over
        # the steps: it drifts by 3.4e-13 here.
        inst = gallery.build("equal").family.build("abbabaab")
        trace = evolve_trace(inst, Schedule(8.0, 256), "phase", record_every=16)
        assert max(abs(r.norm - 1.0) for r in trace.records) <= 1e-14

    def test_memory_bounded_by_the_table_cap(self):
        # At R = STEP_CHUNK a dim-256 chunk would hold two 256 x 32,768 phase
        # tables, 128 MiB each; capped, the one ratio table of 256 rows holds
        # at most TABLE_ENTRIES_MAX entries, and each step forms its phases
        # from its own column, while trotter runs on k = 2.
        inst = gallery.build("equal").family.build("abbabaab")
        sch = Schedule(8.0, 2**15)
        peaks = {}
        for method in ("trotter", "phase"):
            tracemalloc.start()
            try:
                final_overlap_sq(inst, sch, method)
                peaks[method] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        table = evolve.TABLE_ENTRIES_MAX * np.dtype(complex).itemsize
        assert peaks["phase"] <= peaks["trotter"] + 1.5 * table

    def test_product_memory_is_flat_in_r(self, monkeypatch):
        # The product applies the steps in chunks of TABLE_ENTRIES_MAX / dim,
        # so doubling R past one chunk adds no table.  A cap of 2^16 entries
        # at dim 16 gives the chunks of 4,096 steps that the default cap gives
        # at dim 256, at a sixteenth of the cost per step.
        monkeypatch.setattr(evolve, "TABLE_ENTRIES_MAX", 2**16)
        inst = gallery.build("equal").family.build("abba")
        assert inst.dim == 16
        peaks = []
        for r in (4096, 8192):
            tracemalloc.start()
            try:
                phase_shift_product(inst, Schedule(8.0, r))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        table = evolve.TABLE_ENTRIES_MAX * np.dtype(complex).itemsize
        assert peaks[1] <= peaks[0] + table / 16, peaks

    @pytest.mark.parametrize("length", [3, 4, 7, 8])
    def test_in_place_steps_are_the_expression(self, length):
        # The steps update c in place; they must give the bits of
        # c <- a (e c + f' ((1 - e) f'^dagger c)) from fresh arrays, on the
        # product's dim x dim block at dims 8 to 256.
        inst = gallery.build("equal").family.build("abbabaab"[:length])
        steps = phase_shift_factors(inst, Schedule(8.0, 256))
        assert isinstance(steps, evolve._RankOneSteps)
        d_ini, d_fin, ratio_ini, ratio_fin = steps._phases(0, 48)
        want = u = steps.basis.conj().T
        for n, e in enumerate(d_fin[1] * ratio_fin[1]):
            a = (d_ini * ratio_ini[:, n])[:, None]
            want = a * (e * want + steps.m * ((1 - e) * steps.m_dagger.dot(want)))
        assert np.array_equal(steps.apply(0, 48, u), want)
        assert np.array_equal(u, steps.basis.conj().T)

    def test_no_eigenbasis_of_h_fin(self, monkeypatch):
        def no_eigenbasis(h):
            raise AssertionError("eigenbasis asked for")

        for module in (aeqs, evolve):
            monkeypatch.setattr(module, "_eigenbasis", no_eigenbasis)
        inst = gallery.build("equal").family.build("abbabaab")
        steps = phase_shift_factors(inst, Schedule(8.0, 256))
        assert isinstance(steps, evolve._RankOneSteps)
        dense = AeqsInstance(size_bits=8, epsilon=0.9, h_ini=inst.h_ini,
                             h_fin=as_dense(inst.h_fin), s_acc=inst.s_acc, s_rej=inst.s_rej)
        with pytest.raises(AssertionError, match="eigenbasis asked for"):
            phase_shift_factors(dense, Schedule(8.0, 256))


class TestEvolveTrace:
    def test_stationary_when_ini_equals_fin(self):
        h = random_hermitian(4)
        inst = AeqsInstance(size_bits=2, epsilon=0.9, h_ini=h, h_fin=h,
                            s_acc=frozenset({0}), s_rej=frozenset({1}))
        trace = evolve_trace(inst, Schedule(5.0, 64), "midpoint")
        assert all(r.overlap_sq >= 1.0 - 1e-8 for r in trace.records)
        assert all(abs(r.norm - 1.0) <= 1e-8 for r in trace.records)

    def test_t0_returns_initial_state(self):
        inst = gallery.build("l_prefix_0").family.build("0")
        trace = evolve_trace(inst, Schedule(0.0, 1), "trotter")
        psi = trace.final_state
        from aeqslab.aeqs import ground_state

        _, start, _ = ground_state(inst.h_ini)
        assert abs(np.vdot(start, psi)) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_start_rejected(self):
        inst = AeqsInstance(size_bits=1, epsilon=0.9,
                            h_ini=np.diag([0.0, 0.0]).astype(complex),
                            h_fin=np.diag([0.0, 1.0]).astype(complex),
                            s_acc=frozenset({0}), s_rej=frozenset({1}))
        with pytest.raises(EvolveError):
            evolve_trace(inst, Schedule(1.0, 4), "trotter")

    def test_csv_and_json_round_trip(self):
        inst = gallery.build("equal").family.build("ab")
        trace = evolve_trace(inst, Schedule(4.0, 32), "trotter")
        rows = list(csv.reader(io.StringIO(trace.to_csv())))
        assert rows[0] == ["j", "s", "ground_energy", "overlap_sq", "norm"]
        assert len(rows) == 33
        parsed = json.loads(trace.to_json())
        assert parsed["schema"] == 1
        assert len(parsed["records"]) == 32
        for raw, rec in zip(rows[1:], trace.records):
            assert abs(float(raw[3]) - rec.overlap_sq) <= 1e-10

    @pytest.mark.parametrize("name,x", [
        ("equal", "ab"),        # dim 4
        ("l_prefix_0", "0"),    # dim 12
        ("l_prefix_0", "00"),   # dim 16
        ("equal", "aabb"),      # dim 16
        ("sym_coin", "aa"),     # dim 5
        ("equal", "aabbab"),    # dim 64
    ])
    def test_methods_agree_at_high_refinement(self, name, x):
        inst = gallery.build(name).family.build(x)
        assert inst.dim <= 64
        a = evolve_trace(inst, Schedule(6.0, 4096), "midpoint", record_every=4096)
        b = evolve_trace(inst, Schedule(6.0, 4096), "trotter", record_every=4096)
        assert abs(a.final_overlap_sq - b.final_overlap_sq) <= 5e-3

    @pytest.mark.parametrize("method", ["midpoint", "trotter", "phase"])
    def test_step_phase_bound(self, method):
        # Both Hamiltonians have row sums 1 (to rounding), so the bound on the
        # step phase is T/(R hbar).
        inst = AeqsInstance(size_bits=1, epsilon=0.9,
                            h_ini=deflation_hamiltonian(2, 0),
                            h_fin=np.diag([1.0, 0.0]).astype(complex),
                            s_acc=frozenset({1}), s_rej=frozenset({0}))
        evolve_trace(inst, Schedule(0.5 * STEP_PHASE_MAX, 1), method)
        with pytest.raises(EvolveError, match="STEP_PHASE_MAX"):
            evolve_trace(inst, Schedule(2 * STEP_PHASE_MAX, 1), method)
        with pytest.raises(EvolveError, match="STEP_PHASE_MAX"):
            final_overlap_sq(inst, Schedule(1.0, 1, hbar=0.5 / STEP_PHASE_MAX), method)

    def test_record_every_must_be_positive(self):
        inst = gallery.build("equal").family.build("ab")
        with pytest.raises(EvolveError):
            evolve_trace(inst, Schedule(1.0, 4), "trotter", record_every=0)

    @pytest.mark.parametrize("record_every", [2.5, 2.0, True, False, "2", None, -1])
    def test_record_every_must_be_an_integer(self, record_every):
        # As for R: 2.5 used to fail inside range() with a bare TypeError,
        # and True ran as 1.
        inst = gallery.build("equal").family.build("ab")
        with pytest.raises(EvolveError, match="record_every"):
            evolve_trace(inst, Schedule(1.0, 4), "trotter", record_every=record_every)

    def test_numpy_integer_record_every(self):
        inst = gallery.build("equal").family.build("ab")
        trace = evolve_trace(inst, Schedule(1.0, 4), "trotter", record_every=np.int64(2))
        assert [r.j for r in trace.records] == [1, 3]

    def test_subspace_dim_reported_not_serialized(self):
        inst = gallery.build("l_prefix_0").family.build("00")   # dim 16 = 2^4
        for method, expect in (("midpoint", 2), ("trotter", 2), ("phase", 16)):
            trace = evolve_trace(inst, Schedule(2.0, 8), method)
            assert trace.subspace_dim == expect
            assert "subspace_dim" not in json.loads(trace.to_json())

    def test_phase_method_matches_trotter(self):
        inst = gallery.build("l_prefix_0").family.build("00")   # dim 16 = 2^4
        a = evolve_trace(inst, Schedule(4.0, 128), "trotter", record_every=128)
        b = evolve_trace(inst, Schedule(4.0, 128), "phase", record_every=128)
        assert abs(a.final_overlap_sq - b.final_overlap_sq) <= 1e-6

    def test_trotter_norm_drift_at_largest_search_refinement(self):
        # Criterion 6's T = 128 evaluation: R = 2,097,152 steps, each
        # unitary only to rounding, so the norm drifts linearly in R.
        inst = gallery.build("l_prefix_0").family.build("0")
        r = default_r_policy(128.0)
        trace = evolve_trace(inst, Schedule(128.0, r), "trotter", record_every=r)
        assert abs(trace.records[-1].norm - 1.0) <= 1e-9


def direct_tables(steps, j0, j1):
    """D_ini(j) and D_fin(j) for j0 <= j < j1 by direct exp, one column per step."""
    js = np.arange(j0, j1)
    r, gamma = steps.schedule.r_steps, steps.schedule.gamma
    return (np.exp(-1j * np.outer(steps.ini_values, (2 * r - 2 * js - 1) * gamma)),
            np.exp(-1j * np.outer(steps.fin_values, (2 * js + 1) * gamma)))


def table_error(steps, chunks):
    """Largest distance of the angle-addition phases from direct exp over
    the chunks [j0, j1)."""
    worst = 0.0
    for j0, j1 in chunks:
        d_ini, d_fin, ratio_ini, ratio_fin = steps._phases(j0, j1)
        want_ini, want_fin = direct_tables(steps, j0, j1)
        worst = max(worst, np.abs(d_ini[:, None] * ratio_ini - want_ini).max(),
                    np.abs(d_fin[:, None] * ratio_fin - want_fin).max())
    return worst


def chunks(j1, size):
    return [(a, min(a + size, j1)) for a in range(0, j1, size)]


class TestAngleAdditionTables:
    @pytest.mark.parametrize("t", [128.0, 80.0])
    def test_search_schedules(self, t):
        # The pinned search's largest refinement (R = 2^21, whole chunks)
        # and T = 80 (R = 512,000, whose last chunk has 20,480 steps).
        inst = gallery.build("l_prefix_0").family.build("0")
        r = default_r_policy(t)
        steps, _, _ = evolve._evolution(inst, Schedule(t, r), "trotter")
        assert table_error(steps, chunks(r, evolve.STEP_CHUNK)) <= 1e-15

    @pytest.mark.parametrize("t", [128.0, 80.0])
    def test_su2_pairs_are_the_general_steps(self, t):
        # The SU(2) route builds a step's first column from one two-row table;
        # the general k x k route builds the whole step from two tables.  On
        # T = 128's first chunk and T = 80's last one, of 20,480 steps.
        inst = gallery.build("l_prefix_0").family.build("0")
        r = default_r_policy(t)
        steps, _, _ = evolve._evolution(inst, Schedule(t, r), "trotter")
        assert steps.means is not None
        j0, j1 = chunks(r, evolve.STEP_CHUNK)[0 if t == 128.0 else -1]
        assert j1 - j0 == (32_768 if t == 128.0 else 20_480)
        coupling = steps.pair_couplings([j0])[0]
        pairs = steps.pairs(coupling, np.empty((2, j1 - j0), dtype=complex))
        general = steps.matrices(j0, j1, np.empty((4, j1 - j0), dtype=complex))
        assert np.abs(pairs - general[:, 0]).max() <= 1e-15
        # The pair fixes the step: its second column is (-beta^*, alpha^*).
        assert np.abs(general[:, 1] - [-pairs[1].conj(), pairs[0].conj()]).max() <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 5, 181**2, 181**2 + 1, 32_768])
    @pytest.mark.parametrize("largest", [1.0, 0.9 * STEP_PHASE_MAX])
    def test_unit_phases_are_direct_exp(self, n, largest):
        # Angle addition rounds two arguments and one product where direct
        # exp rounds one argument: a few ulps of the angle, or of 1.
        values = np.array([-1.0, 0.3, 1.0])
        angles = largest / max(n - 1, 1) * np.arange(n)
        arguments = np.multiply.outer(values, angles)
        error = np.abs(evolve._unit_phases(values, angles) - np.exp(1j * arguments))
        assert (error <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(arguments))).all()

    def test_unit_phases_take_two_exps_per_sqrt_column(self, monkeypatch):
        # A 32,768-column table has m = ceil(sqrt(32,768)) = 182: at most
        # 2 * 182 exps per row, where direct exp takes 32,768.
        exp, evaluated = np.exp, []

        def counted_exp(x, *args, **kwargs):
            if np.iscomplexobj(x):
                evaluated.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counted_exp)
        values = np.array([-0.5, 0.25, 2.0])
        table = evolve._unit_phases(values, 1e-4 * np.arange(32_768))
        assert table.shape == (3, 32_768)
        assert 0 < sum(evaluated) <= 2 * 182 * len(values)

    @pytest.mark.parametrize("method", ["trotter", "phase"])
    def test_trace_schedule(self, method):
        # Dim-256 equal at T = 8, R = 256 with a record every 16 steps: 16
        # chunks of 16 steps, on k = 2 (trotter) and k = 256 (phase).
        inst = gallery.build("equal").family.build("abbabaab")
        steps, _, _ = evolve._evolution(inst, Schedule(8.0, 256), method)
        assert table_error(steps, chunks(256, 16)) <= 1e-15

    def test_near_step_phase_max(self):
        # Both routes round an argument near the step phase, so they differ
        # by a few ulps of it.  Both Hamiltonians are I - |v><v|, of norm 1,
        # the bound the run checks.
        inst = gallery.build("l_prefix_0").family.build("0")
        r, step_phase = 2**16, 0.9 * STEP_PHASE_MAX
        steps, _, _ = evolve._evolution(inst, Schedule(step_phase * r, r), "trotter")
        error = table_error(steps, chunks(r, evolve.STEP_CHUNK))
        assert error <= 2 * np.finfo(float).eps * step_phase

    @pytest.mark.parametrize("dim", [4, 8])
    def test_ratio_tables_grow_mid_run(self, dim, monkeypatch):
        # Dim 4 multiplies the steps pairwise, dim 8 applies them one by one;
        # the tables grow from 10 columns to one chunk of 64.
        monkeypatch.setattr(evolve, "STEP_CHUNK", 64)
        inst = hadamard_diag_instance(dim, rng=np.random.default_rng(23))
        sch = Schedule(5.0, 203)
        for method, product in (("trotter", trotter_product), ("phase", phase_shift_product)):
            steps, c, _ = evolve._evolution(inst, sch, method)
            c = evolve._advance(steps, c, 0, 10)
            assert steps._ratio_ini.shape[1] == 10
            c = evolve._advance(steps, c, 10, 203)
            assert steps._ratio_ini.shape[1] == 64
            want = product(inst, sch) @ start_state(inst)
            assert np.abs(steps.basis @ c[:, 0] - want).max() <= 1e-10, method


def reference_steps(inst, sch, method, j0, j1):
    """Product of the full-space steps j0 .. j1-1, one unitary_exp each:
    exp(-i dt H(s_j)) for midpoint, exp(-i a_j H_ini) exp(-i b_j H_fin)
    for trotter and phase."""
    h_ini, h_fin = as_dense(inst.h_ini), as_dense(inst.h_fin)
    u = np.eye(inst.dim, dtype=complex)
    for j in range(j0, j1):
        if method == "midpoint":
            s = sch.midpoint_s(j)
            step = unitary_exp((1 - s) * h_ini + s * h_fin, sch.t_total / sch.r_steps / sch.hbar)
        else:
            step = unitary_exp(h_ini, sch.alpha(j)) @ unitary_exp(h_fin, sch.beta(j))
        u = step @ u
    return u


# Runs on a two-dimensional dynamical subspace: the projector instances
# l_prefix_0 "0" (dim 12) and equal "ab" (dim 4), and at dim 2 a
# Hadamard-diagonal dense H_ini, where the phase method has k = 2 too.
K2_CASES = {
    "l_prefix_0:0": lambda: gallery.build("l_prefix_0").family.build("0"),
    "equal:ab": lambda: gallery.build("equal").family.build("ab"),
    "hadamard2": lambda: hadamard_diag_instance(2, rng=np.random.default_rng(7)),
}
K2_RUNS = [(case, method) for case in K2_CASES for method in ("midpoint", "trotter", "phase")
           if method != "phase" or case == "hadamard2"]
PRODUCTS = {"midpoint": midpoint_propagator, "trotter": trotter_product,
            "phase": phase_shift_product}


class TestCayleyKleinRoute:
    """At k = 2 splitting steps are SU(2) pairs (alpha, beta) multiplied by
    the Cayley-Klein rule, with the trace's phase put back in closed form,
    and midpoint steps keep the k x k route; the states must match
    full-space products, global phase included."""

    @pytest.mark.parametrize("case,method", K2_RUNS)
    def test_records_match_full_space_steps(self, case, method, monkeypatch):
        # Chunks of 64 and R = 203: records after 29, 64 and 203 steps give
        # stretches of 29, 35 and 139 = 64 + 64 + 11 steps, all but one of
        # odd length.
        monkeypatch.setattr(evolve, "STEP_CHUNK", 64)
        inst = K2_CASES[case]()
        sch = Schedule(5.0, 203)
        steps, c, _ = evolve._evolution(inst, sch, method)
        assert c.shape == (2, 1)
        assert (getattr(steps, "means", None) is None) == (method == "midpoint")
        psi, done = start_state(inst), 0
        for end in (29, 64, 203):
            c = evolve._advance(steps, c, done, end)
            psi = reference_steps(inst, sch, method, done, end) @ psi
            assert np.abs(steps.basis @ c[:, 0] - psi).max() <= 1e-12, end
            done = end
        want = PRODUCTS[method](inst, sch) @ start_state(inst)
        assert np.abs(steps.basis @ c[:, 0] - want).max() <= 1e-12
        trace = evolve_trace(inst, sch, method, record_every=29)
        assert np.abs(trace.final_state - want).max() <= 1e-12

    def test_shift_phase_is_the_sum_of_step_phases(self):
        # The pinned search's largest refinement, over a whole run and a
        # stretch in its middle; fsum keeps the direct sum exact to rounding.
        inst = gallery.build("l_prefix_0").family.build("0")
        sch = Schedule(128.0, default_r_policy(128.0))
        steps, _, _ = evolve._evolution(inst, sch, "trotter")
        m_ini, m_fin = steps.means
        for j0, j1 in ((0, sch.r_steps), (1000, 777_777)):
            js = np.arange(j0, j1)
            angle = math.fsum(((2 * sch.r_steps - 2 * js - 1) * sch.gamma * m_ini).tolist()
                              + ((2 * js + 1) * sch.gamma * m_fin).tolist())
            got = evolve._shift_phase(steps, j0, j1)
            assert abs(got - np.exp(-1j * angle)) <= 1e-12 * max(1.0, abs(angle))

    def test_full_chunk_allocates_one_buffer(self):
        # The 2 x 2 x STEP_CHUNK buffer is the one large array a chunk needs:
        # the tree's levels write into its halves; the queue of partial
        # products beside it holds 2 x PARTIAL_QUEUE.  Tables are grown by a
        # first call, outside the measurement.
        inst = gallery.build("l_prefix_0").family.build("0")
        chunk = evolve.STEP_CHUNK
        steps, c, _ = evolve._evolution(inst, Schedule(8.0, 2 * chunk), "trotter")
        c = evolve._advance(steps, c, 0, chunk)
        buffer = 2 * 2 * chunk * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            evolve._advance(steps, c, chunk, 2 * chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert buffer <= peak < 2 * buffer

    # With chunks of 64 steps whose trees stop at 8 partial products and a
    # queue of 32, four whole chunks fill the queue exactly.  Stretches of
    # 5 steps (one chunk shorter than PARTIAL_KEEP), 255, 256 and 257 (the
    # queue one step short of full, full, and flushed before a one-step
    # chunk) and 600 (two flushes) from step 0, and 203 steps from step 397.
    @pytest.mark.parametrize("j0,j1,trees,flushes", [
        (0, 5, [(5, 8)], [5]),
        (0, 255, [(64, 8)] * 3 + [(63, 8)], [31]),
        (0, 256, [(64, 8)] * 4, [32]),
        (0, 257, [(64, 8)] * 4 + [(1, 8)], [32, 1]),
        (0, 600, [(64, 8)] * 9 + [(24, 8)], [32, 32, 14]),
        (397, 600, [(64, 8)] * 3 + [(11, 8)], [29]),
    ])
    @pytest.mark.parametrize("case,method", [run for run in K2_RUNS if run[1] != "midpoint"])
    def test_queue_boundaries_match_full_space_steps(self, case, method, j0, j1, trees,
                                                     flushes, monkeypatch):
        monkeypatch.setattr(evolve, "STEP_CHUNK", 64)
        monkeypatch.setattr(evolve, "PARTIAL_KEEP", 8)
        monkeypatch.setattr(evolve, "PARTIAL_QUEUE", 32)
        product, calls = evolve._cayley_klein_product, []

        def recorded(pairs, halves, keep):
            calls.append((pairs.shape[1], keep))
            return product(pairs, halves, keep)

        monkeypatch.setattr(evolve, "_cayley_klein_product", recorded)
        inst = K2_CASES[case]()
        sch = Schedule(5.0, 600)
        steps, c, _ = evolve._evolution(inst, sch, method)
        if j0:
            c = evolve._advance(steps, c, 0, j0)
            calls.clear()
        got = steps.basis @ evolve._advance(steps, c, j0, j1)[:, 0]
        # Chunk trees, then each flush of the whole queue down to one product.
        assert [call for call in calls if call[1] == 8] == trees
        assert [n for n, keep in calls if keep == 1] == flushes
        want = reference_steps(inst, sch, method, 0, j1) @ start_state(inst)
        assert np.abs(got - want).max() <= 1e-12

    def test_stretch_of_one_chunk_is_one_tree(self, monkeypatch):
        # The chunk's tree stops at PARTIAL_KEEP and the queue's tree goes on
        # from there, so the levels are the ones a single tree takes: the
        # state is the one a tree with no stop gives, bit for bit.
        inst = gallery.build("l_prefix_0").family.build("0")
        sch = Schedule(8.0, 20_000)
        steps, c, _ = evolve._evolution(inst, sch, "trotter")
        got = evolve._advance(steps, c, 0, sch.r_steps)
        monkeypatch.setattr(evolve, "PARTIAL_KEEP", 1)
        assert np.array_equal(evolve._advance(steps, c, 0, sch.r_steps), got)

    def test_vectorized_couplings_are_the_one_start_couplings(self):
        # Criterion 6's largest refinement: 64 chunk starts.  Each start's
        # coupling is the one it gets alone, bit for bit, and that is the
        # formula with its start phases from Python integers.
        inst = gallery.build("l_prefix_0").family.build("0")
        sch = Schedule(128.0, default_r_policy(128.0))
        steps, _, _ = evolve._evolution(inst, sch, "trotter")
        starts = range(0, sch.r_steps, evolve.STEP_CHUNK)
        assert len(starts) == 64
        stacked = steps._coupling(starts)
        factors = steps.pair_couplings(starts)
        for i, j0 in enumerate(starts):
            r, gamma, m = sch.r_steps, sch.gamma, steps.m
            d_ini = np.exp(-1j * ((2 * r - 2 * j0 - 1) * gamma * steps.ini_values))
            d_fin = np.exp(-1j * ((2 * j0 + 1) * gamma * steps.fin_values))
            want = (d_ini[:, None] * m * d_fin)[:, None, :] * m.conj()[None, :, :]
            assert np.array_equal(steps._coupling([j0])[0], want)
            assert np.array_equal(stacked[i], want)
            k = want[:, 0, :]
            assert np.array_equal(factors[i], np.array([k[0].conj(), k[1, ::-1]]))

    def test_search_memory_is_flat_in_r(self):
        # T = 128 makes 64 chunks and T = 64 makes 8; the queue is flushed
        # every 8 chunks, so the longer run holds no more than 64 KiB more.
        inst = gallery.build("l_prefix_0").family.build("0")
        peaks = []
        for t in (64.0, 128.0):
            sch = Schedule(t, default_r_policy(t))
            final_overlap_sq(inst, sch)
            tracemalloc.start()
            try:
                final_overlap_sq(inst, sch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024, peaks


class TestOneDynamicalBasisPerRun:
    @pytest.mark.parametrize("method", ["midpoint", "trotter"])
    @pytest.mark.parametrize("dense_h_ini", [False, True])
    def test_one_call_per_run(self, method, dense_h_ini, monkeypatch):
        # A pair of ProjectorComplements takes its basis from the closed-form
        # split, with no Krylov basis and no dense matrix; a dense H_ini has
        # a whole-space split and builds the basis of its start state.
        inst = gallery.build("l_prefix_0").family.build("0")
        if dense_h_ini:
            inst = AeqsInstance(size_bits=inst.size_bits, epsilon=inst.epsilon,
                                h_ini=as_dense(inst.h_ini), h_fin=inst.h_fin,
                                s_acc=inst.s_acc, s_rej=inst.s_rej)
        else:
            def no_dense(h):
                raise AssertionError("densified")

            monkeypatch.setattr(ProjectorComplement, "to_dense", no_dense)
        calls = []
        original = aeqs.dynamical_basis

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(aeqs, "dynamical_basis", counted)
        monkeypatch.setattr(evolve, "dynamical_basis", counted)
        per_run = 1 if dense_h_ini else 0
        final_overlap_sq(inst, Schedule(4.0, 64), method)
        assert len(calls) == per_run
        evolve_trace(inst, Schedule(4.0, 64), method, record_every=16)
        assert len(calls) == 2 * per_run

    @pytest.mark.parametrize("name,x", [("l_prefix_0", "0"), ("equal", "abbabaab"),
                                        ("sym_coin", "abba"), ("usubsum", "0#1#1")])
    def test_split_basis_is_the_start_state_basis(self, name, x):
        # A dense H_fin: the reused basis and compressions are the bits the
        # run would compute from its start state.  A pair of
        # ProjectorComplements: the closed-form basis has g as its first
        # column, spans an invariant subspace and compresses both
        # Hamiltonians as the dense products do, to rounding.
        inst = gallery.build(name).family.build(x)
        h_ini, h_fin = as_dense(inst.h_ini), as_dense(inst.h_fin)
        split = aeqs._block_split(inst, vectors=True)
        if not aeqs.is_projector_pair(inst):
            q = dynamical_basis(h_ini, h_fin, start_state(inst))
            assert np.array_equal(split.q, q)
            assert np.array_equal(split.ini, _compress(h_ini, q))
            assert np.array_equal(split.fin, _compress(h_fin, q))
            return
        q = split.q
        assert q.shape == (inst.dim, 2) and np.array_equal(q[:, 0], start_state(inst))
        # Each product summed exactly (fsum): a floating-point sum adds the
        # small terms to the one near 1 and rounds by several ulps.
        products = q.T.conj()[:, None, :] * q.T[None, :, :]
        gram = np.array([[complex(math.fsum(p.real), math.fsum(p.imag)) for p in row]
                         for row in products])
        assert np.abs(gram - np.eye(2)).max() <= 1e-15
        # The dense products that measure the rest round by about sqrt(dim)
        # ulps: 1.5e-15 at dim 256, for the Krylov basis too.
        tol = max(1e-15, math.sqrt(inst.dim) * np.finfo(float).eps)
        for h, block in ((h_ini, split.ini), (h_fin, split.fin)):
            assert spectral_norm(h @ q - q @ (q.conj().T @ h @ q)) <= tol
            assert np.abs(block - q.conj().T @ h @ q).max() <= tol


class TestPairReach:
    """A pair of ProjectorComplements is split in closed form, so midpoint
    and trotter runs, the gap scan, the time bound and the commutator build
    no dim x dim matrix and run above EVOLVE_DIM_MAX; the phase method
    builds W and keeps the cap."""

    @pytest.mark.parametrize("length", [10, 12])
    def test_memory_stays_below_one_matrix(self, length):
        inst = gallery.build("equal").family.build("ab" * (length // 2))
        assert inst.dim == 2**length > aeqs.EVOLVE_DIM_MAX
        sch = Schedule(8.0, 64)
        tracemalloc.start()
        try:
            traces = [evolve_trace(inst, sch, method, record_every=16)
                      for method in ("midpoint", "trotter")]
            final = final_overlap_sq(inst, sch, "trotter")
            gap = aeqs.minimum_interpolation_gap(inst, 65)
            bound = aeqs.adiabatic_time_bound(inst, 0.1, 1.0)
            commutator = aeqs.commutator_check(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < inst.dim ** 2 * np.dtype(complex).itemsize
        assert [t.subspace_dim for t in traces] == [2, 2]
        assert abs(final - traces[1].final_overlap_sq) <= 1e-12
        assert abs(gap - 2.0 ** (-length / 2)) <= 1e-12 and math.isfinite(bound)
        # |<g|f>| sqrt(1 - |<g|f>|^2) with |<g|f>|^2 = 1/dim.
        assert abs(commutator - math.sqrt((1.0 - 1.0 / inst.dim) / inst.dim)) <= 1e-15

    def test_phase_method_keeps_the_cap(self):
        inst = gallery.build("equal").family.build("ab" * 5)
        with pytest.raises(CapacityError):
            evolve_trace(inst, Schedule(8.0, 64), "phase")


class TestFindSufficientT:
    def test_trivial_when_stationary(self):
        h = random_hermitian(3)
        inst = AeqsInstance(size_bits=2, epsilon=0.9, h_ini=h, h_fin=h,
                            s_acc=frozenset({0}), s_rej=frozenset({1}))
        res = find_sufficient_t(inst, 0.99, r_policy=lambda t: 8)
        assert res.converged and res.t == 1.0

    def test_monotone_in_target(self):
        inst = gallery.build("equal").family.build("ab")
        pol = lambda t: max(32, int(t) * 32)  # noqa: E731
        t_low = find_sufficient_t(inst, 0.6, r_policy=pol).t
        t_high = find_sufficient_t(inst, 0.95, r_policy=pol).t
        assert t_low <= t_high

    def test_cap_failure_is_explicit(self):
        inst = gallery.build("equal").family.build("ab")
        res = find_sufficient_t(inst, 0.999999, r_policy=lambda t: 16, t_cap=2.0)
        assert not res.converged
        assert 0.0 <= res.overlap_sq < 0.999999

    def test_custom_policy_gets_the_step_phase_bound(self):
        inst = gallery.build("l_prefix_0").family.build("0")
        with pytest.raises(EvolveError, match="STEP_PHASE_MAX"):
            find_sufficient_t(inst, 0.99, r_policy=lambda t: 1, t_start=2 * STEP_PHASE_MAX)

    @pytest.mark.parametrize("case", ["l_prefix_0", "orthogonal pair"])
    def test_step_budget_ends_an_unreachable_search(self, case):
        # l_prefix_0 "0" does not reach 1 - 1e-12 by T = 256, and the
        # orthogonal rank-one pair's gap closes at s = 1/2, so it reaches no
        # target.  The doubling stops at T = 512, R = 2^27 > STEP_BUDGET,
        # instead of running on to t_cap = 1e4 (R = 1e12).
        if case == "l_prefix_0":
            inst, target = gallery.build("l_prefix_0").family.build("0"), 1 - 1e-12
        else:
            e = np.eye(4, dtype=complex)
            inst = AeqsInstance(size_bits=2, epsilon=0.9, h_ini=ProjectorComplement(e[0]),
                                h_fin=ProjectorComplement(e[1]),
                                s_acc=frozenset({1}), s_rej=frozenset({2}))
            target = 0.99
        asked = []

        def policy(t):
            asked.append(t)
            return default_r_policy(t)

        res = find_sufficient_t(inst, target, r_policy=policy)
        assert not res.converged
        assert asked == [2.0**j for j in range(10)]
        assert [t for t, _ in res.evaluations] == asked[:-1]
        assert default_r_policy(asked[-2]) <= STEP_BUDGET < default_r_policy(asked[-1])
        assert (res.t, res.overlap_sq) == max(res.evaluations, key=lambda pair: pair[1])

    def test_over_budget_start_runs_nothing(self):
        inst = gallery.build("equal").family.build("ab")
        res = find_sufficient_t(inst, 0.99, r_policy=lambda t: STEP_BUDGET + 1, t_start=3.0)
        assert (res.t, res.overlap_sq, res.converged, res.evaluations) == (3.0, 0.0, False, [])

    @pytest.mark.parametrize("t_start", [0.0, math.nan, math.inf, -1.0])
    def test_start_must_be_finite_and_positive(self, t_start):
        # Doubling 0 stays at 0, so a search from it would never end; the
        # policy stops such a search after 20 evaluations.
        inst = gallery.build("equal").family.build("ab")
        asked = []

        def policy(t):
            asked.append(t)
            if len(asked) > 20:
                raise RuntimeError(f"search still running: asked {asked[:3]}...")
            return 8

        with pytest.raises(EvolveError, match="t_start"):
            find_sufficient_t(inst, 0.99, r_policy=policy, t_start=t_start)
        assert asked == []

    @pytest.mark.parametrize("t_cap", [math.nan, 0.0, -1.0, -math.inf])
    def test_cap_must_be_positive(self, t_cap):
        # A nan cap used to end the search after its first evaluation with
        # converged=False, since t < nan is false.
        inst = gallery.build("equal").family.build("ab")
        asked = []

        def policy(t):
            asked.append(t)
            return 8

        with pytest.raises(EvolveError, match="t_cap"):
            find_sufficient_t(inst, 0.99, r_policy=policy, t_cap=t_cap)
        assert asked == []

    def test_infinite_cap_is_allowed(self):
        inst = gallery.build("l_prefix_0").family.build("0")
        res = find_sufficient_t(inst, 0.99, t_cap=math.inf)
        assert (res.t, res.converged, len(res.evaluations)) == (70.0, True, 13)

    def test_default_policy_floor(self):
        assert default_r_policy(0.5) == 64
        assert default_r_policy(10.0) == 1000


class TestDynamicalSubspace:
    @pytest.mark.parametrize("name,x", [
        ("l_prefix_0", "0"),        # dim 12
        ("l_prefix_1", "1"),        # dim 12
        ("equal", "abbabaab"),      # dim 256
    ])
    def test_pinned_dimension_and_invariance(self, name, x):
        inst = gallery.build(name).family.build(x)
        h_ini, h_fin = as_dense(inst.h_ini), as_dense(inst.h_fin)
        start = start_state(inst)
        q = dynamical_basis(h_ini, h_fin, start)
        assert q.shape == (inst.dim, 2)
        assert spectral_norm(q.conj().T @ q - np.eye(2)) <= 1e-12
        assert np.linalg.norm(start - q @ (q.conj().T @ start)) <= 1e-12
        for h in (h_ini, h_fin):
            assert spectral_norm(h @ q - q @ (q.conj().T @ h @ q)) <= 1e-10

    @pytest.mark.parametrize("delta,expect_dim", [(0.5e-10, 2), (0.8e-10, 3)])
    def test_invariance_check_falls_back_to_full_space(self, delta, expect_dim):
        # Each image's remainder delta * e_2 is below the drop tolerance, but
        # two of them together give a residual of delta * sqrt(2).
        h_ini = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
        h_fin = np.array([[0, 1, delta], [1, 0, delta], [delta, delta, 0]], dtype=complex)
        q = dynamical_basis(h_ini, h_fin, np.array([1, 0, 0], dtype=complex))
        assert q.shape == (3, expect_dim)

    @pytest.mark.parametrize("fin_values,expect_dim,pairwise", [
        ((0, 1, 1, 1, 2, 2, 3, 3), 4, True),
        ((0, 1, 1, 2, 3, 4, 5, 6), 7, False),
    ])
    def test_reduced_run_matches_full_space_propagators(self, fin_values, expect_dim,
                                                         pairwise, monkeypatch):
        # Small chunks so that R = 203 spans several, of odd lengths.
        monkeypatch.setattr(evolve, "STEP_CHUNK", 64)
        inst = projector_instance(fin_values, random_unitary(8))
        start = start_state(inst)
        q = dynamical_basis(as_dense(inst.h_ini), as_dense(inst.h_fin), start)
        assert q.shape[1] == expect_dim
        assert (expect_dim <= PAIRWISE_DIM_MAX) == pairwise
        self._check_against_full_space(inst, start)

    def test_dense_initial_hamiltonian_uses_full_space(self, monkeypatch):
        # Dim 8 applies the steps one by one; dim 4 multiplies them pairwise,
        # the full-space phase method included.
        monkeypatch.setattr(evolve, "STEP_CHUNK", 64)
        for dim, seed in ((8, 17), (4, 31)):
            inst = hadamard_diag_instance(dim, rng=np.random.default_rng(seed))
            start = start_state(inst)
            q = dynamical_basis(as_dense(inst.h_ini), as_dense(inst.h_fin), start)
            assert q.shape == (dim, dim)
            assert evolve_trace(inst, Schedule(3.0, 40), "trotter").subspace_dim == dim
            self._check_against_full_space(inst, start)

    @staticmethod
    def _check_against_full_space(inst, start):
        _, vectors = np.linalg.eigh(as_dense(inst.h_fin))
        ground = vectors[:, :1]
        for sch in (Schedule(3.0, 40), Schedule(5.0, 203)):
            full = {"midpoint": midpoint_propagator(inst, sch) @ start,
                    "trotter": trotter_product(inst, sch) @ start,
                    "phase": phase_shift_product(inst, sch) @ start}
            for method, psi in full.items():
                assert abs(final_overlap_sq(inst, sch, method)
                           - ground_weight(ground, psi)) <= 1e-10, (method, sch)

    # Criterion 6's evaluations at the commit before the reduction, computed
    # in the full space step by step; both pinned instances give the same.
    CRITERION_6_EVALUATIONS = (
        (1.0, 0.08986759590967969), (2.0, 0.10907363705584505),
        (4.0, 0.18027596067891785), (8.0, 0.3867495443037844),
        (16.0, 0.694477457870479), (32.0, 0.8878493570916982),
        (64.0, 0.9876776913871081), (128.0, 0.9998765526507438),
        (96.0, 0.9984792197304573), (80.0, 0.9966122636273979),
        (72.0, 0.9916185194206094), (68.0, 0.9890351396805268),
        (70.0, 0.9901606442958993),
    )

    @pytest.mark.parametrize("name,x", [("l_prefix_0", "0"), ("l_prefix_1", "1")])
    def test_search_matches_full_space_evaluations(self, name, x):
        inst = gallery.build(name).family.build(x)
        result = find_sufficient_t(inst, 0.99, t_cap=128.0)
        assert result.t == 70.0
        assert [t for t, _ in result.evaluations] == [t for t, _ in self.CRITERION_6_EVALUATIONS]
        for (_, got), (_, expect) in zip(result.evaluations, self.CRITERION_6_EVALUATIONS):
            assert abs(got - expect) <= 1e-8


class TestDegenerateGroundSpace:
    def test_weight_on_whole_ground_space_independent_of_its_basis(self):
        rng = np.random.default_rng(23)
        vectors = random_unitary(4, rng)
        rotated = vectors.copy()
        rotated[:, :2] = vectors[:, :2] @ random_unitary(2, rng)
        a = projector_instance((0, 0, 1, 2), vectors)
        b = projector_instance((0, 0, 1, 2), rotated)
        sch = Schedule(4.0, 64)
        full = {"midpoint": midpoint_propagator, "trotter": trotter_product,
                "phase": phase_shift_product}
        for method, propagator in full.items():
            expect = ground_weight(vectors[:, :2], propagator(a, sch) @ start_state(a))
            assert 1e-3 < expect < 1 - 1e-3
            for inst in (a, b):
                assert abs(final_overlap_sq(inst, sch, method) - expect) <= 1e-10, method
                trace = evolve_trace(inst, sch, method, record_every=16)
                assert abs(trace.final_overlap_sq - expect) <= 1e-10, method
                assert trace.final_distance == pytest.approx(
                    np.sqrt(2 * (1 - np.sqrt(expect))), abs=1e-9)
