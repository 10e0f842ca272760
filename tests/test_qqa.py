import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aeqslab.linalg import SparseHermitian, spectral_norm
from aeqslab.qqa import (
    CENT,
    DOLLAR,
    BasisSchema,
    QqaError,
    QqafLevel,
    SparseOp,
    TwoWayQqafLevel,
    UnknownSymbolError,
    drop_right_endmarker,
    flat_schema,
    generate_2qqaf,
    generate_moqqaf,
    generate_qqaf,
    gram_defect,
    measure_once_ground,
    sparse_conjugate,
    validate_level,
)

RNG = np.random.default_rng(11)


def random_unitary(n, rng=RNG):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestBasisSchema:
    def test_mixed_radix_index(self):
        schema = BasisSchema([("q", ("a", "b", "c")), ("pos", (0, 1))])
        assert schema.dim == 6
        # Most significant coordinate first.
        assert schema.index(("a", 0)) == 0
        assert schema.index(("a", 1)) == 1
        assert schema.index(("b", 0)) == 2
        assert schema.state_of(5) == ("c", 1)

    def test_round_trip(self):
        schema = BasisSchema([("x", (0, 1, 2)), ("y", ("u", "v")), ("z", (0, 1))])
        for i in range(schema.dim):
            assert schema.index(schema.state_of(i)) == i

    @pytest.mark.parametrize("state", [(1,), (1, "y", "extra")])
    def test_wrong_coordinate_count_rejected(self, state):
        schema = BasisSchema([("a", (0, 1)), ("b", ("x", "y"))])
        with pytest.raises(QqaError, match="needs 2 coordinates"):
            schema.index(state)

    def test_curated(self):
        schema = BasisSchema([("x", (0, 1, 2))], states=[(2,), (0,)])
        assert schema.dim == 2
        assert schema.full_dim == 3
        assert schema.index((2,)) == 0
        assert schema.indices_of([(0,), (1,)]) == frozenset({1})

    def test_size_bits(self):
        assert flat_schema(12).size_bits == 4
        assert flat_schema(16).size_bits == 4


class TestSparseOp:
    def test_matmul_matches_dense(self):
        a = SparseOp.from_dense(random_unitary(5))
        b = SparseOp.from_dense(random_unitary(5))
        assert np.allclose((a @ b).to_dense(), a.to_dense() @ b.to_dense())

    def test_adjoint(self):
        a = SparseOp.from_dense(random_unitary(4))
        assert np.allclose(a.adjoint().to_dense(), a.to_dense().conj().T)

    def test_permutation_requires_bijection(self):
        with pytest.raises(Exception):
            SparseOp.permutation(2, {0: 0, 1: 0})
        with pytest.raises(QqaError):
            SparseOp.permutation(2, {0: 0, 2: 1})

    def test_from_rules_rejects_out_of_range(self):
        for bad in [(2, 0, 1.0), (0, 2, 1.0), (-1, 0, 1.0)]:
            with pytest.raises(QqaError):
                SparseOp.from_rules(2, [(0, 0, 1.0), bad])

    def test_from_rules_keeps_exact_cancellation(self):
        # Duplicates are summed, not pruned: a cancelled rule stays stored.
        op = SparseOp.from_rules(2, [(0, 1, 1.0), (1, 1, 2.0), (0, 1, -1.0), (1, 1, 3.0)])
        assert op.nnz() == 2
        assert list(zip(op.rows, op.cols)) == [(0, 1), (1, 1)]
        assert np.array_equal(op.vals, [0.0, 5.0])

    def test_gram_defect_scaled_column(self):
        # Scaling one column of a unitary by 0.9 leaves ||U'U - I|| = 0.19.
        u = np.eye(3, dtype=complex)
        u[:, 1] *= 0.9
        defect = gram_defect([SparseOp.from_dense(u)])
        assert defect == pytest.approx(0.19, abs=1e-12)


def integer_op(dim, nnz, rng):
    """Small-integer entries with repeated keys: products are exact, so
    cancellations are exact zeros and the stored pattern is known."""
    rules = [(int(rng.integers(dim)), int(rng.integers(dim)),
              complex(int(rng.integers(-2, 3)), int(rng.integers(-2, 3))))
             for _ in range(nnz)]
    return SparseOp.from_rules(dim, rules)


def integer_hermitian(dim, nnz, rng):
    a = integer_op(dim, nnz, rng).to_dense()
    return SparseOp.from_dense(a + a.conj().T)


def stored_keys(op):
    return set(zip(op.rows.tolist(), op.cols.tolist()))


def nonzero_keys(mat):
    return set(zip(*(idx.tolist() for idx in np.nonzero(mat))))


SPARSE_CASES = [(dim, nnz, seed) for dim in (1, 4, 9) for nnz in (0, 3, 30) for seed in (0, 1)]


class TestSparseLayer:
    """The triplet product and channel against dense K H K^dag."""

    @pytest.mark.parametrize("dim,nnz,seed", SPARSE_CASES)
    def test_product_matches_dense(self, dim, nnz, seed):
        rng = np.random.default_rng(seed)
        a, b = integer_op(dim, nnz, rng), integer_op(dim, nnz, rng)
        expect = a.to_dense() @ b.to_dense()
        product = a @ b
        assert np.array_equal(product.to_dense(), expect)
        assert stored_keys(product) == nonzero_keys(expect)
        keys = product.rows * dim + product.cols
        assert np.all(np.diff(keys) > 0)

    @pytest.mark.parametrize("dim,nnz,seed", SPARSE_CASES)
    def test_conjugate_matches_dense(self, dim, nnz, seed):
        rng = np.random.default_rng(seed)
        kraus = [integer_op(dim, nnz, rng) for _ in range(3)]
        h = integer_hermitian(dim, nnz, rng)
        expect = sum(k.to_dense() @ h.to_dense() @ k.to_dense().conj().T for k in kraus)
        out = sparse_conjugate(kraus, h)
        assert np.array_equal(out.to_dense(), expect)
        assert stored_keys(out) == nonzero_keys(expect)

    def test_product_cancellation_pruned(self):
        a = SparseOp.from_rules(2, [(0, 0, 1.0), (0, 1, 1.0)])
        b = SparseOp.from_rules(2, [(0, 0, 1.0), (1, 0, -1.0), (1, 1, 1.0)])
        product = a @ b
        assert stored_keys(product) == {(0, 1)}

    def test_prune_thresholds(self):
        # Products drop |v| <= 1e-15, conjugation only |v| <= 1e-16.
        small = SparseOp.from_rules(4, [(i, i, v) for i, v in enumerate([1e-16, 2e-16, 1e-15, 2e-15])])
        identity = SparseOp.identity(4)
        assert stored_keys(small @ identity) == {(3, 3)}
        assert stored_keys(sparse_conjugate([identity], small)) == {(1, 1), (2, 2), (3, 3)}

    def test_empty_operators(self):
        empty = SparseOp(3)
        full = SparseOp.from_dense(random_unitary(3))
        assert (empty @ full).nnz() == 0 and (full @ empty).nnz() == 0
        assert sparse_conjugate([full, empty], empty).nnz() == 0
        assert sparse_conjugate([empty], full).nnz() == 0
        assert sparse_conjugate([], full).nnz() == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_conjugate_matches_scipy(self, seed):
        sparse = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(seed)
        dim = 12

        def csr(op):
            return sparse.csr_array((op.vals, (op.rows, op.cols)), shape=(dim, dim))

        kraus = [SparseOp.from_dense(np.where(rng.random((dim, dim)) < 0.2,
                                              random_unitary(dim, rng), 0.0))
                 for _ in range(2)]
        h = integer_hermitian(dim, 40, rng)
        expect = sum(csr(k) @ csr(h) @ csr(k).conj().T for k in kraus).toarray()
        out = sparse_conjugate(kraus, h)
        assert np.allclose(out.to_dense(), expect, rtol=0, atol=1e-12)
        assert stored_keys(out) == nonzero_keys(np.abs(expect) > 1e-12)
        product = kraus[0] @ kraus[1]
        assert np.allclose(product.to_dense(), (csr(kraus[0]) @ csr(kraus[1])).toarray(),
                           rtol=0, atol=1e-12)


def identity_level(dim=3, alphabet=("0", "1")):
    schema = flat_schema(dim)
    lam = np.ones(dim)
    lam[0] = 0.0
    ops = {sym: [SparseOp.identity(dim)] for sym in (CENT, DOLLAR, *alphabet)}
    return QqafLevel(schema=schema, alphabet=alphabet, ops=ops,
                     lam0=SparseHermitian.diagonal(lam), name="identity")


def random_moqqaf_level(dim=4, alphabet=("0", "1"), rng=RNG, q0=frozenset()):
    schema = flat_schema(dim)
    lam = np.ones(dim)
    lam[0] = 0.0
    ops = {sym: [SparseOp.from_dense(random_unitary(dim, rng))]
           for sym in (CENT, DOLLAR, *alphabet)}
    return QqafLevel(schema=schema, alphabet=alphabet, ops=ops,
                     lam0=SparseHermitian.diagonal(lam), q0_indices=q0,
                     name="random")


class TestGenerateMoqqaf:
    def test_identity_level_returns_lam0(self):
        level = identity_level()
        for x in ["", "0", "01", "110"]:
            e = generate_moqqaf(level, x)
            assert np.allclose(e.operator.to_dense(), level.lam0.to_dense())

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            generate_moqqaf(identity_level(), "2")

    def test_spectrum_preserved_without_halting_set(self):
        # Unitary conjugation: sorted eigenvalues of E equal those of Lambda0.
        level = random_moqqaf_level()
        lam_vals = np.linalg.eigvalsh(level.lam0.to_dense())
        for x in ["", "0", "10", "011", "0101", "11010"]:
            e = generate_moqqaf(level, x)
            vals = np.linalg.eigvalsh(e.operator.to_dense())
            assert np.allclose(np.sort(vals), np.sort(lam_vals), atol=1e-8)

    def test_generated_operator_psd(self):
        level = random_moqqaf_level(q0=frozenset({1}))
        for x in ["", "01", "100"]:
            e = generate_moqqaf(level, x)
            assert np.linalg.eigvalsh(e.operator.to_dense())[0] >= -1e-9

    @given(st.integers(0, 2**32 - 1), st.text(alphabet="01", max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_spectrum_preservation_property(self, seed, x):
        level = random_moqqaf_level(rng=np.random.default_rng(seed))
        lam_vals = np.sort(np.linalg.eigvalsh(level.lam0.to_dense()))
        vals = np.sort(np.linalg.eigvalsh(generate_moqqaf(level, x).operator.to_dense()))
        assert np.allclose(vals, lam_vals, atol=1e-8)


class TestGenerateQqaf:
    def test_singleton_kraus_matches_moqqaf(self):
        # Multiply-then-conjugate and per-symbol conjugation agree.
        level = random_moqqaf_level()
        for x in ["", "0", "01", "111"]:
            a = generate_moqqaf(level, x).operator.to_dense()
            b = generate_qqaf(level, x).operator.to_dense()
            assert np.allclose(a, b, atol=1e-12)

    def test_trace_preserved_before_projection(self):
        # Two-element Kraus family: a projective pair sums to a complete
        # channel; trace of the evolved mixture equals trace(Lambda0).
        dim = 4
        schema = flat_schema(dim)
        p0 = SparseOp.from_rules(dim, [(0, 0, 1.0), (1, 1, 1.0)])
        p1 = SparseOp.from_rules(dim, [(2, 2, 1.0), (3, 3, 1.0)])
        u = SparseOp.from_dense(random_unitary(dim))
        level = QqafLevel(
            schema=schema, alphabet=("0",),
            ops={CENT: [p0, p1], "0": [u], DOLLAR: [u]},
            lam0=SparseHermitian.diagonal([0.0, 0.5, 1.0, 1.0]),
            q0_indices=frozenset({2}),
            name="kraus",
        )
        _, trace_before = generate_qqaf(level, "00", return_trace=True)
        assert trace_before == pytest.approx(2.5, abs=1e-8)

    def test_completeness_violation_detected(self):
        dim = 2
        bad = SparseOp.from_rules(dim, [(0, 0, 0.9), (1, 1, 1.0)])
        level = QqafLevel(
            schema=flat_schema(dim), alphabet=("0",),
            ops={CENT: [bad], "0": [SparseOp.identity(dim)], DOLLAR: [SparseOp.identity(dim)]},
            lam0=SparseHermitian.diagonal([0.0, 1.0]), name="bad",
        )
        report = validate_level(level)
        assert not report.passed
        worst = max(d.defect for d in report.defects)
        assert worst == pytest.approx(0.19, abs=1e-9)


class TestGenerate2qqaf:
    def _shift_level(self, t_steps):
        # One inner state, so surface index = head position; the first move
        # is the identity and every later move shifts the head right.
        def shift(x, schema):
            n_pos = len(x) + 2
            return [SparseOp.permutation(schema.dim, {p: (p + 1) % n_pos for p in range(n_pos)})]

        return TwoWayQqafLevel(
            inner_labels=("s",), alphabet=("0", "1"),
            steps=lambda x: t_steps,
            lam0_builder=lambda x, schema: SparseHermitian.diagonal(
                np.arange(schema.dim, dtype=float)
            ),
            first_step_builder=lambda x, schema: [SparseOp.identity(schema.dim)],
            step_builder=shift,
            name="mini2",
        )

    def test_zero_steps_identity_first_move(self):
        level = self._shift_level(0)
        e = generate_2qqaf(level, "01")
        assert np.allclose(e.operator.to_dense(), np.diag(np.arange(4.0)))

    def test_surface_dimension(self):
        level = self._shift_level(1)
        e = generate_2qqaf(level, "010")
        assert e.dim == 1 * (3 + 2)

    def test_head_is_circular(self):
        # After |x|+2 steps the head returns; the diagonal mixture is
        # permuted fully around the ring.
        level = self._shift_level(5)   # |x| = 3 -> ring of 5
        e, trace = generate_2qqaf(level, "010", return_trace=True)
        assert trace == pytest.approx(sum(range(5)), abs=1e-9)
        vals = np.sort(np.linalg.eigvalsh(e.operator.to_dense()))
        lam = sorted([0.0, 1, 2, 3, 4])
        assert np.allclose(vals, lam)


class TestDropRightEndmarker:
    def test_identity_dollar_keeps_level(self):
        level = identity_level()
        stripped = drop_right_endmarker(level)
        assert not stripped.has_dollar
        for x in ["", "0", "01"]:
            a = generate_moqqaf(level, x).operator.to_dense()
            b = generate_moqqaf(stripped, x).operator.to_dense()
            assert np.allclose(a, b, atol=1e-12)

    def test_random_level_hamiltonians_equal(self):
        level = random_moqqaf_level()
        stripped = drop_right_endmarker(level)
        for x in ["", "0", "10", "011"]:
            a = generate_moqqaf(level, x).operator.to_dense()
            b = generate_moqqaf(stripped, x).operator.to_dense()
            assert spectral_norm(a - b) <= 1e-10

    def test_requires_dollar(self):
        level = identity_level()
        stripped = drop_right_endmarker(level)
        with pytest.raises(Exception):
            drop_right_endmarker(stripped)


def two_operator_level(symbol):
    """identity_level with a complete two-projector family on `symbol`."""
    level = identity_level()
    level.ops[symbol] = [SparseOp.from_rules(3, [(0, 0, 1.0)]),
                         SparseOp.from_rules(3, [(1, 1, 1.0), (2, 2, 1.0)])]
    return level


class TestMeasureOnceNeedsSingletons:
    @pytest.mark.parametrize("symbol", [CENT, "0", DOLLAR])
    def test_generate_moqqaf_rejects_two_operators(self, symbol):
        level = two_operator_level(symbol)
        generate_qqaf(level, "01")
        with pytest.raises(QqaError, match="2 operators"):
            generate_moqqaf(level, "01")

    @pytest.mark.parametrize("symbol", [CENT, "1", DOLLAR])
    def test_drop_right_endmarker_rejects_two_operators(self, symbol):
        with pytest.raises(QqaError, match="2 operators"):
            drop_right_endmarker(two_operator_level(symbol))


class TestMeasureOnceGround:
    """measure_once_ground gives g with generate_moqqaf(level, x) = I - |g><g|,
    and refuses every level for which that would not hold."""

    @pytest.mark.parametrize("seed", range(4))
    def test_complement_matches_generate_moqqaf(self, seed):
        level = random_moqqaf_level(dim=5, rng=np.random.default_rng(seed))
        for x in ["", "0", "10", "0110", "11010"]:
            g = measure_once_ground(level, x)
            complement = np.eye(5) - np.outer(g, g.conj())
            assert np.abs(complement - generate_moqqaf(level, x).operator.to_dense()).max() <= 1e-12

    def test_lam0_zero_need_not_be_first(self):
        level = identity_level()
        level.lam0 = SparseHermitian.diagonal([1.0, 1.0, 0.0])
        assert np.array_equal(measure_once_ground(level, "01"), [0, 0, 1])

    @pytest.mark.parametrize("lam,match", [
        (np.diag([0.0, 0.0, 1.0]), "not I - "),
        (np.diag([0.0, 0.5, 1.0]), "not I - "),
        (np.diag([1.0, 1.0, 1.0]), "not I - "),
        (np.array([[0, 0, 0], [0, 1, 0.1], [0, 0.1, 1]]), "non-diagonal"),
    ])
    def test_rejects_other_lam0(self, lam, match):
        with pytest.raises(QqaError, match=match):
            measure_once_ground(level_with_lam0(lam), "01")

    def test_rejects_halting_indices(self):
        level = random_moqqaf_level(q0=frozenset({1}))
        with pytest.raises(QqaError, match="halts on 1 indices"):
            measure_once_ground(level, "01")

    @pytest.mark.parametrize("symbol", [CENT, "1", DOLLAR])
    def test_rejects_two_operators(self, symbol):
        # "1" is not read by the input: every family must be a single unitary.
        with pytest.raises(QqaError, match="2 operators"):
            measure_once_ground(two_operator_level(symbol), "00")

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            measure_once_ground(identity_level(), "2")


class TestValidateLevel:
    def test_identity_level_zero_defects(self):
        report = validate_level(identity_level())
        assert report.passed
        assert report.worst() == 0.0

    def test_random_levels_pass(self):
        report = validate_level(random_moqqaf_level())
        assert report.passed

    def test_lam0_psd_checked(self):
        level = identity_level()
        level.lam0 = SparseHermitian.diagonal([-0.5, 1.0, 1.0])
        report = validate_level(level)
        assert not report.passed
        assert report.lam0_min_eigenvalue == pytest.approx(-0.5)


def dense_defect(family):
    """The oracle: ||sum K'K - I|| from dense matrices."""
    dense = [k.to_dense() for k in family]
    return spectral_norm(sum(k.conj().T @ k for k in dense) - np.eye(dense[0].shape[0]))


def level_with_lam0(lam):
    level = identity_level(dim=lam.shape[0])
    level.lam0 = SparseHermitian.from_dense(lam)
    return level


class TestValidationRouteAgainstDense:
    """validate_level's sparse bounds checked against the dense values."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_haar_unitary_defect_not_below_dense(self, seed, dim):
        level = random_moqqaf_level(dim=dim, rng=np.random.default_rng(seed))
        for family in level.ops.values():
            assert gram_defect(family) >= dense_defect(family) - 1e-15

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_kraus_family_defect_bounds_dense(self, seed, dim, size):
        # Random families are neither complete nor column-orthogonal, so the
        # Gershgorin bound is strictly a bound here.
        rng = np.random.default_rng(seed)
        family = [SparseOp.from_dense(random_unitary(dim, rng) * rng.uniform(0.2, 1.0)
                                      + 0.3 * rng.standard_normal((dim, dim)))
                  for _ in range(size)]
        assert gram_defect(family) >= dense_defect(family) - 1e-15

    @given(st.integers(0, 2**32 - 1), st.integers(2, 10))
    # Minima on an isolated row, where the bound is exact and eigvalsh reads
    # the eigenvalue a few ulps lower.
    @example(74116, 6)
    @example(379052502, 5)
    @settings(max_examples=40, deadline=None)
    def test_lam0_bound_not_above_dense_minimum(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = np.where(rng.random((dim, dim)) < 0.4, a, 0.0)
        lam = np.diag(rng.uniform(-0.5, 2.0, dim)) + 0.3 * (a + a.conj().T)
        bound = validate_level(level_with_lam0(lam)).lam0_min_eigenvalue
        values = np.linalg.eigvalsh(lam)
        # eigvalsh's own rounding: dim * eps times the 2-norm of the eigenvalues.
        assert bound <= values[0] + dim * np.finfo(float).eps * np.linalg.norm(values)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_lam0_bound_exact_on_diagonal_mixture(self, seed, dim):
        lam = np.diag(np.random.default_rng(seed).uniform(-0.5, 2.0, dim)).astype(complex)
        bound = validate_level(level_with_lam0(lam)).lam0_min_eigenvalue
        assert bound == np.linalg.eigvalsh(lam)[0]
