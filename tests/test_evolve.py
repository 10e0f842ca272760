import csv
import io
import json

import numpy as np
import pytest

from aeqslab import evolve, gallery
from aeqslab.aeqs import (
    AeqsInstance,
    ProjectorComplement,
    as_dense,
    deflation_vector,
    from_oracle,
    ground_state,
)
from aeqslab.evolve import (
    PAIRWISE_DIM_MAX,
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
from aeqslab.linalg import hadamard_power, spectral_norm, unitary_exp

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
                        h_ini=ProjectorComplement(deflation_vector(dim, 0)),
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
        h_ini = ProjectorComplement(deflation_vector(dim, distinguished))
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

    def test_projector_not_hadamard_diagonal_rejected(self):
        inst = projector_instance(np.arange(8.0), random_unitary(8))
        inst.h_ini = ProjectorComplement(random_unitary(8)[:, 0])
        with pytest.raises(NotHadamardDiagonal, match="off-diagonal norm"):
            phase_shift_factors(inst, Schedule(1.0, 4))


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
                            h_ini=ProjectorComplement(deflation_vector(2, 0)),
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

    @pytest.mark.parametrize("method", ["trotter", "phase"])
    def test_trace_schedule(self, method):
        # Dim-256 equal at T = 8, R = 256 with a record every 16 steps: 16
        # chunks of 16 steps, on k = 2 (trotter) and k = 256 (phase).
        inst = gallery.build("equal").family.build("abbabaab")
        steps, _, _ = evolve._evolution(inst, Schedule(8.0, 256), method)
        assert table_error(steps, chunks(256, 16)) <= 1e-15

    def test_near_step_phase_max(self):
        # Both routes round an argument near the step phase, so they differ
        # by a few ulps of it.
        inst = gallery.build("l_prefix_0").family.build("0")
        norm_bound = max(np.abs(h).sum(axis=1).max() for h in evolve._dense_pair(inst))
        r, step_phase = 2**16, 0.9 * STEP_PHASE_MAX
        steps, _, _ = evolve._evolution(inst, Schedule(step_phase * r / norm_bound, r), "trotter")
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
        result = find_sufficient_t(inst, 0.99, t_cap=1e4)
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
