import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aeqslab import linalg
from aeqslab.linalg import (
    CapacityError,
    ConvergenceFailure,
    NotHermitianError,
    SparseHermitian,
    SparseOp,
    hadamard_power,
    hermitian_eig,
    lowest_eigenpairs,
    spectral_norm,
    unitary_exp,
)

RNG = np.random.default_rng(7)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(n, rng=RNG):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_unitary(n, rng=RNG):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestHermitianEig:
    def test_diagonal(self):
        dec = hermitian_eig(np.diag([0.0, 1.0, 1.0]).astype(complex))
        assert np.allclose(dec.values, [0.0, 1.0, 1.0])
        assert np.allclose(np.abs(dec.vectors[:, 0]), [1, 0, 0])

    def test_walsh_hadamard_spectrum(self):
        # W is Hermitian and squares to I, so its eigenvalues are +-1.
        dec = hermitian_eig(hadamard_power(1))
        assert np.allclose(dec.values, [-1.0, 1.0])

    def test_reconstruction_and_orthonormality(self):
        for n in (2, 5, 17, 48):
            h = random_hermitian(n)
            dec = hermitian_eig(h)
            scale = max(1.0, spectral_norm(h))
            recon = (dec.vectors * dec.values) @ dec.vectors.conj().T
            assert spectral_norm(h - recon) <= 1e-8 * scale
            gram = dec.vectors.conj().T @ dec.vectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-9
            assert np.all(np.diff(dec.values) >= -1e-12)
            for i in range(n):
                resid = np.linalg.norm(h @ dec.vectors[:, i] - dec.values[i] * dec.vectors[:, i])
                assert resid <= 1e-9 * scale

    def test_non_orthonormal_vectors_rejected(self, monkeypatch):
        eigh = np.linalg.eigh
        h = random_hermitian(6)
        # Both fakes pass the residual check: scaled columns still satisfy
        # H V = V L to rounding, and any V reconstructs the zero matrix.
        cases = [(h, lambda m: (eigh(m)[0], 1.01 * eigh(m)[1])),
                 (np.zeros((3, 3), dtype=complex), lambda m: (np.zeros(3), 2.0 * np.eye(3)))]
        for mat, fake in cases:
            monkeypatch.setattr(np.linalg, "eigh", fake)
            with pytest.raises(linalg.LinalgError):
                hermitian_eig(mat)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotHermitianError) as err:
            hermitian_eig(bad)
        assert err.value.max_asymmetry == pytest.approx(1.0)

    def test_capacity(self, monkeypatch):
        monkeypatch.setenv("AEQS_DENSE_MAX", "4")
        with pytest.raises(CapacityError):
            hermitian_eig(np.eye(5, dtype=complex))


def test_capacity_returns_the_size_or_names_the_limit():
    assert linalg.capacity(512, 512, "EVOLVE_DIM_MAX", "dimension") == 512
    with pytest.raises(CapacityError) as err:
        linalg.capacity(513, 512, "EVOLVE_DIM_MAX", "dimension")
    assert str(err.value) == "dimension 513 exceeds EVOLVE_DIM_MAX = 512"


class TestSparseHermitian:
    def test_round_trip_matches_dense(self):
        h = random_hermitian(12)
        sp = SparseHermitian.from_dense(h)
        assert np.allclose(sp.to_dense(), h)
        x = RNG.standard_normal(12) + 1j * RNG.standard_normal(12)
        assert np.allclose(sp.matvec(x), h @ x)

    def test_duplicate_triplets_merge(self):
        sp = SparseHermitian(2, [0, 0], [1, 1], [1.0, 2.0])
        assert sp.nnz() == 1
        assert np.allclose(sp.to_dense(), [[0, 3.0], [3.0, 0]])

    def test_lower_triangle_input_mirrored(self):
        sp = SparseHermitian(2, [1], [0], [1j])
        dense = sp.to_dense()
        assert dense[0, 1] == pytest.approx(-1j)
        assert dense[1, 0] == pytest.approx(1j)

    def test_imaginary_diagonal_rejected(self):
        with pytest.raises(NotHermitianError):
            SparseHermitian(2, [0], [0], [1j])

    def test_any_triangle_gives_the_same_storage(self):
        h = np.array([[1.0, 2 - 1j, 0, 0.5j],
                      [2 + 1j, 0, 3.0, 0],
                      [0, 3.0, -1.0, 1 + 1j],
                      [-0.5j, 0, 1 - 1j, 2.0]])
        r, c = np.nonzero(h)
        upper, lower = r <= c, r >= c
        mixed = np.where(np.minimum(r, c) == 1, lower, upper)     # (2, 1), the rest upper
        ops = [SparseHermitian(4, r[keep], c[keep], h[r, c][keep])
               for keep in (upper, lower, mixed)]
        assert issubclass(SparseHermitian, SparseOp)
        assert np.all(np.diff(ops[0].rows * 4 + ops[0].cols) > 0)     # sorted, unique keys
        for op in ops:
            assert [a.tobytes() for a in (op.rows, op.cols, op.vals)] == \
                [a.tobytes() for a in (ops[0].rows, ops[0].cols, ops[0].vals)]
            assert np.array_equal(op.to_dense(), h)
            assert op.nnz() == int(upper.sum()) == 7
        # Dyadic entries: every product and sum is exact on both routes.
        for x in (np.array([1.0, -2j, 0.5, 3 + 1j]), np.array([0.25 - 1j, 1.0, -0.75, 2j])):
            assert np.abs(ops[0].matvec(x) - ops[0].to_dense() @ x).max() <= 1e-15


def constructor_diagonal(values):
    """diag(values) through the general constructor: fold, merge, check."""
    values = np.asarray(values, dtype=float)
    idx = np.arange(len(values))
    keep = values != 0
    return SparseHermitian(len(values), idx[keep], idx[keep], values[keep])


class TestDiagonal:
    """SparseHermitian.diagonal sets its storage directly; the constructor
    route is the oracle."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_bits_as_constructor(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 60))
        values = rng.standard_normal(dim)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-17, 1.0, -1.0])
        at = rng.random(dim) < 0.5
        values[at] = rng.choice(special, int(at.sum()))
        got, want = SparseHermitian.diagonal(values), constructor_diagonal(values)
        assert type(got) is SparseHermitian and got.dim == want.dim == dim
        for a, b in zip((got.rows, got.cols, got.vals), (want.rows, want.cols, want.vals)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got.nnz() == want.nnz() == np.count_nonzero(values)

    def test_empty_and_all_zero(self):
        for values in ([0.0, -0.0, 0.0], [0.0]):
            got = SparseHermitian.diagonal(values)
            assert got.nnz() == 0 and got.vals.dtype == complex and got.rows.dtype == np.int64

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        values = [1.0, bad, 0.0]
        with pytest.raises(linalg.LinalgError, match="non-finite") as direct:
            SparseHermitian.diagonal(values)
        with pytest.raises(linalg.LinalgError) as general:
            constructor_diagonal(values)
        assert type(direct.value) is type(general.value)
        assert str(direct.value) == str(general.value)


class TestLowestEigenpairs:
    def test_diagonal_example(self):
        vals = np.concatenate([[0.5], np.ones(19)])
        sp = SparseHermitian.diagonal(vals)
        pairs = lowest_eigenpairs(sp, 2)
        assert pairs[0][0] == pytest.approx(0.5, abs=1e-9)
        assert pairs[1][0] == pytest.approx(1.0, abs=1e-9)

    def test_agrees_with_dense_solver(self):
        # Dense solver as the independent oracle.
        for n, k in [(8, 8), (30, 3), (64, 2)]:
            h = random_hermitian(n)
            sp = SparseHermitian.from_dense(h)
            dense = hermitian_eig(h)
            pairs = lowest_eigenpairs(sp, k)
            for i, (val, vec) in enumerate(pairs):
                assert val == pytest.approx(float(dense.values[i]), abs=1e-7)
                resid = np.linalg.norm(sp.matvec(vec) - val * vec)
                assert resid <= 1e-7 * max(1.0, spectral_norm(h))

    def test_degenerate_ground_space_reported(self):
        sp = SparseHermitian.diagonal([0.0, 0.0, 1.0, 1.0, 2.0])
        pairs = lowest_eigenpairs(sp, 3)
        assert [round(v, 9) for v, _ in pairs] == [0.0, 0.0, 1.0]

    def test_subspace_agreement_nondegenerate(self):
        h = random_hermitian(40)
        dense = hermitian_eig(h)
        pairs = lowest_eigenpairs(SparseHermitian.from_dense(h), 4)
        for i, (val, vec) in enumerate(pairs):
            overlap = abs(np.vdot(dense.vectors[:, i], vec))
            assert overlap >= 1.0 - 1e-5

    def test_nonconvergence_is_loud(self):
        sp = SparseHermitian.diagonal(np.linspace(0.0, 1.0, 200))
        with pytest.raises(ConvergenceFailure):
            lowest_eigenpairs(sp, 1, max_iter=2)

    def test_seeded_reproducibility(self):
        sp = SparseHermitian.from_dense(random_hermitian(25))
        a = lowest_eigenpairs(sp, 2)
        b = lowest_eigenpairs(sp, 2)
        assert np.allclose(a[0][1], b[0][1])


class TestUnitaryExp:
    def test_theta_zero_is_identity(self):
        h = random_hermitian(6)
        assert np.abs(unitary_exp(h, 0.0) - np.eye(6)).max() <= 1e-12

    def test_pauli_x_quarter_turn(self):
        # exp(-i theta X) = cos(theta) I - i sin(theta) X; theta = pi/2.
        u = unitary_exp(PAULI_X, np.pi / 2)
        assert np.allclose(u, -1j * PAULI_X, atol=1e-12)

    def test_semigroup(self):
        h = random_hermitian(9)
        a, b = 0.37, 1.21
        lhs = unitary_exp(h, a + b)
        rhs = unitary_exp(h, a) @ unitary_exp(h, b)
        assert spectral_norm(lhs - rhs) <= 1e-9

    def test_unitarity_and_commutation(self):
        h = random_hermitian(10)
        u = unitary_exp(h, 0.83)
        assert spectral_norm(u @ u.conj().T - np.eye(10)) <= 1e-9
        assert spectral_norm(u @ h - h @ u) <= 1e-8


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(7)) == pytest.approx(1.0)

    def test_unitary_has_norm_one(self):
        u = unitary_exp(random_hermitian(8), 0.9)
        assert spectral_norm(u) == pytest.approx(1.0, abs=1e-9)

    def test_diag(self):
        assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_hermitian_matches_max_abs_eigenvalue(self):
        h = random_hermitian(12)
        dec = hermitian_eig(h)
        assert spectral_norm(h) == pytest.approx(float(np.abs(dec.values).max()), abs=1e-9)

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_submultiplicative(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-9


class TestTensorAndHadamard:
    def test_hadamard_k0_and_k1(self):
        assert np.allclose(hadamard_power(0), [[1.0]])
        w = hadamard_power(1)
        assert np.allclose(w, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_hadamard_action_on_zero_state(self):
        w2 = hadamard_power(2)
        e00 = np.zeros(4, dtype=complex)
        e00[0] = 1.0
        assert np.allclose(w2 @ e00, np.full(4, 0.5))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_hadamard_involution(self, k):
        w = hadamard_power(k)
        assert spectral_norm(w @ w - np.eye(2**k)) <= 1e-12
        assert spectral_norm(w - w.conj().T) <= 1e-12


def test_ilog():
    assert linalg.ilog(0) == 0
    assert linalg.ilog(1) == 0
    assert linalg.ilog(2) == 1
    assert linalg.ilog(12) == 4
    assert linalg.ilog(4096) == 12
    # Exact past float precision and past 64 bits.
    assert linalg.ilog(2**62 + 1) == 63
    assert linalg.ilog(2**64 + 1) == 65
