import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aeqslab import gallery, linalg, qqa
from aeqslab.aeqs import criteria_arrays
from aeqslab.linalg import SparseHermitian, spectral_norm
from aeqslab.qqa import (
    CENT,
    DOLLAR,
    STEP,
    BasisSchema,
    MeasureOnceGrounds,
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
    sparse_conjugate,
    surface_schema,
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
        assert schema.all_states()[5] == ("c", 1)

    def test_round_trip(self):
        # all_states() lists the basis in index order, whatever the radices.
        for coords in ([("x", (0, 1, 2)), ("y", ("u", "v")), ("z", (0, 1))],
                       [("a", ("only",))], [("a", tuple(range(5)))],
                       [("a", ("z", "y", "x")), ("b", ("u",)), ("c", tuple(range(12)))],
                       [(f"b{i}", (0, 1)) for i in range(4)]):
            schema = BasisSchema(coords)
            states = schema.all_states()
            assert len(states) == schema.dim
            assert [schema.index(s) for s in states] == list(range(schema.dim))

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
        assert schema.indices_of([(0,), (1,)]) == [1]
        assert schema.all_states() == [(2,), (0,)]

    def test_indices_of_order_ignores_input_order(self):
        # String labels hash differently in every process, so a set of
        # states comes in any order; the criteria the decision rule sums
        # over, formed from its indices by criteria_arrays, must be the same
        # whatever that order.  The "b" and "rej" indices differ by 128, so
        # they share hash slots and the insertion order would otherwise show
        # through.
        schema = BasisSchema([("sym", ("a", "b", "acc", "rej")), ("pos", tuple(range(64)))])
        states = [(sym, pos) for sym in ("b", "rej") for pos in range(0, 64, 4)]
        rng = np.random.default_rng(5)
        orders = set()
        for _ in range(6):
            shuffled = [states[i] for i in rng.permutation(len(states))]
            for indices in (schema.indices_of(set(shuffled)), schema.indices_of(shuffled)):
                orders.add(tuple(criteria_arrays(indices, [])[0].tolist()))
        assert orders == {tuple(sorted(schema.index(s) for s in states))}

    def test_size_bits(self):
        assert flat_schema(12).size_bits == 4
        assert flat_schema(16).size_bits == 4
        assert BasisSchema([(f"b{i}", (0, 1)) for i in range(65)]).size_bits == 65


class TestSparseOp:
    def test_matmul_matches_dense(self):
        a = SparseOp.from_dense(random_unitary(5))
        b = SparseOp.from_dense(random_unitary(5))
        assert np.allclose((a @ b).to_dense(), a.to_dense() @ b.to_dense())

    def test_adjoint(self):
        a = SparseOp.from_dense(random_unitary(4))
        assert np.allclose(a.adjoint().to_dense(), a.to_dense().conj().T)

    def test_permutation_requires_bijection(self):
        # A repeated, an out-of-range and a negative target.
        for targets in ([0, 0], [1, 2, 0, 0], [0, 2], [-1, 0]):
            with pytest.raises(linalg.LinalgError, match="bijection"):
                SparseOp.permutation(targets)

    @pytest.mark.parametrize("dim", [0, 1, 2, 7])
    def test_permutation_matches_dense(self, dim):
        targets = np.random.default_rng(dim).permutation(dim)
        dense = np.zeros((dim, dim), dtype=complex)
        dense[targets, np.arange(dim)] = 1.0
        assert np.array_equal(SparseOp.permutation(list(targets)).to_dense(), dense)

    def test_from_rules_rejects_out_of_range(self):
        for bad in [(2, 0, 1.0), (0, 2, 1.0), (-1, 0, 1.0)]:
            with pytest.raises(linalg.LinalgError):
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
    def _shift_level(self, t_steps, x):
        # One inner state, so surface index = head position; the first move
        # is the identity and every later move shifts the head right.
        schema = surface_schema(("s",), len(x))
        n_pos = len(x) + 2
        return TwoWayQqafLevel(
            schema=schema,
            lam0=SparseHermitian.diagonal(np.arange(schema.dim, dtype=float)),
            ops={CENT: [SparseOp.identity(schema.dim)],
                 STEP: [SparseOp.permutation([(p + 1) % n_pos for p in range(n_pos)])]},
            steps=t_steps,
            name="mini2",
        )

    def test_zero_steps_identity_first_move(self):
        level = self._shift_level(0, "01")
        e = generate_2qqaf(level)
        assert np.allclose(e.operator.to_dense(), np.diag(np.arange(4.0)))

    def test_surface_dimension(self):
        level = self._shift_level(1, "010")
        e = generate_2qqaf(level)
        assert e.dim == 1 * (3 + 2)

    def test_head_is_circular(self):
        # After |x|+2 steps the head returns; the diagonal mixture is
        # permuted fully around the ring.
        level = self._shift_level(5, "010")   # |x| = 3 -> ring of 5
        e, trace = generate_2qqaf(level, return_trace=True)
        assert trace == pytest.approx(sum(range(5)), abs=1e-9)
        vals = np.sort(np.linalg.eigvalsh(e.operator.to_dense()))
        lam = sorted([0.0, 1, 2, 3, 4])
        assert np.allclose(vals, lam)

    def test_negative_step_count_raises(self):
        with pytest.raises(QqaError, match="negative step count"):
            generate_2qqaf(self._shift_level(-1, "01"))

    def test_level_is_the_data_of_one_input(self):
        # The input is fixed when the level is built: generation takes no
        # second copy of it, and the level holds no callable.
        level = gallery._pal_level("ab#ba")
        assert not any(callable(getattr(level, f.name)) for f in dataclasses.fields(level))
        with pytest.raises(TypeError):
            generate_2qqaf(level, "ab#ab")

    def test_pal_level_checks_symbols_first(self):
        with pytest.raises(UnknownSymbolError, match="'c'"):
            gallery._pal_level("ab#bc")


def unique_coalesce(dim, rows, cols, vals):
    """The np.unique route to coalesce."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=complex)
    keys, inverse = np.unique(rows * dim + cols, return_inverse=True)
    merged = np.empty(len(keys), dtype=complex)
    merged.real = np.bincount(inverse, vals.real, len(keys))
    merged.imag = np.bincount(inverse, vals.imag, len(keys))
    return keys // dim, keys % dim, merged


def coalesce_cases():
    rng = np.random.default_rng(17)

    def triplets(dim, n, key_range=None, repeat=True):
        keys = rng.choice(key_range or dim * dim, size=n, replace=repeat)
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return dim, keys // dim, keys % dim, vals

    signed_zeros = np.array([0.0, -0.0, -0.0 - 0.0j, 1.0 - 0.0j, -0.0 + 1.0j])
    return [
        triplets(7, 0),                                 # empty
        triplets(7, 1),                                 # a single entry
        triplets(7, 40),                                # with duplicates
        triplets(50, 40, repeat=False),                 # no repeated key
        triplets(7, 30, key_range=1),                   # all one key
        (5, [4, 4, 0], [4, 4, 0], [1.0, 2.0, 3.0]),     # the key dim^2 - 1
        (3, [2, 0, 1, 1, 2], [0, 2, 1, 1, 0], signed_zeros),
        (3, [0, 1, 2, 2, 0], [0, 1, 2, 1, 1], signed_zeros),
        (1 << 20, [(1 << 20) - 1, 0], [(1 << 20) - 1, 1], [1j, -1.0]),
    ]


@pytest.mark.parametrize("dim, rows, cols, vals", coalesce_cases())
def test_coalesce_matches_unique_route_bit_for_bit(dim, rows, cols, vals):
    got = linalg.coalesce(dim, rows, cols, vals)
    expect = unique_coalesce(dim, rows, cols, vals)
    for a, b in zip(got, expect):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def searchsorted_product_terms(self, other):
    """The product terms found by two binary searches per product."""
    start = np.searchsorted(other.rows, self.cols, side="left")
    counts = np.searchsorted(other.rows, self.cols, side="right") - start
    left = np.repeat(np.arange(len(self.vals)), counts)
    right = np.arange(len(left)) + np.repeat(start - (np.cumsum(counts) - counts), counts)
    return self.rows[left], other.cols[right], self.vals[left] * other.vals[right]


def per_step_adjoint(self):
    """A fresh adjoint on every call."""
    return SparseOp(self.dim, self.cols, self.rows, self.vals.conj())


def pal_inputs():
    words = ["".join(w) for n in range(3) for w in itertools.product("ab", repeat=n)]
    return [w + "#" + v for w in words for v in words]


def pal_generate(x):
    generated, trace = generate_2qqaf(gallery._pal_level(x), return_trace=True)
    op = generated.operator
    return [a.tobytes() for a in (op.rows, op.cols, op.vals)], trace


class TestSparseKernelOracles:
    """The row-pointer product, the kept adjoints and the sorted-run
    coalesce against the routes they replaced: the same bits."""

    def test_pal_marked_generation_bit_for_bit(self, monkeypatch):
        inputs = pal_inputs()
        got = [pal_generate(x) for x in inputs]
        monkeypatch.setattr(linalg, "coalesce", unique_coalesce)
        monkeypatch.setattr(SparseOp, "_product_terms", searchsorted_product_terms)
        monkeypatch.setattr(SparseOp, "adjoint", per_step_adjoint)
        for x, result in zip(inputs, got):
            assert pal_generate(x) == result, x

    def test_pruning_leaves_the_op(self):
        op = SparseOp.from_rules(3, [(0, 0, 1e-17), (1, 2, 1.0), (2, 1, 1e-17)])
        adjoint, indptr = op.adjoint(), op.indptr.copy()
        pruned = op._pruned(1e-16)
        assert op.nnz() == 3 and pruned.nnz() == 1
        assert op.adjoint() is adjoint and np.array_equal(op.indptr, indptr)
        assert pruned.adjoint().nnz() == 1

    def test_one_adjoint_per_kraus_operator(self, monkeypatch):
        # 2n + 3 = 13 steps after the first move on "ab#ba": one channel call
        # per step, and one adjoint per operator of the two families.
        conjugations = []
        adjoints = []
        conjugate, adjoint = qqa.sparse_conjugate, SparseOp.adjoint

        def counted_conjugate(kraus, h):
            conjugations.append(len(kraus))
            return conjugate(kraus, h)

        def kept_adjoint(self):
            adjoints.append(adjoint(self))
            return adjoints[-1]

        monkeypatch.setattr(qqa, "sparse_conjugate", counted_conjugate)
        monkeypatch.setattr(SparseOp, "adjoint", kept_adjoint)
        generate_2qqaf(gallery._pal_level("ab#ba"))
        assert conjugations == [2] * 14
        assert len(adjoints) == 28
        assert len({id(a) for a in adjoints}) == 4


def per_step_run(family, times, h):
    """A run applied one channel step at a time, every entry conjugated."""
    for _ in range(times):
        h = qqa.sparse_conjugate(family, h)
    return h


def triplet_bytes(op):
    return [a.tobytes() for a in (op.rows, op.cols, op.vals)]


def planted_family(rng, dim, n_ops):
    """A Kraus family with identity columns planted in every operator and
    the other columns sent to random rows, the planted ones among them.
    Column ``moving[0]`` is absorbed onto the identity column ``planted[0]``,
    and two near-misses are not fixed: a second entry under a 1.0, and a
    diagonal entry just above 1.0."""
    order = rng.permutation(dim)
    planted, moving = order[: dim // 2], order[dim // 2:]
    rules = [[] for _ in range(n_ops)]

    def op():
        return rules[int(rng.integers(n_ops))]

    for c in planted[:-2]:
        op().append((c, c, complex(1.0, rng.choice([0.0, -0.0]))))
    op().extend([(planted[-2], planted[-2], 1.0), (moving[1], planted[-2], 0.5)])
    op().append((planted[-1], planted[-1], 1.0 + 2.0 ** -52))
    op().extend([(planted[0], moving[0], 0.6), (moving[0], moving[0], 0.8)])
    for c in moving[1:]:
        for r in rng.choice(dim, size=int(rng.integers(1, 3)), replace=False):
            op().append((r, c, complex(*rng.standard_normal(2))))
    return [SparseOp.from_rules(dim, r) for r in rules], planted


def random_sparse_hermitian(rng, dim, nnz):
    """Entries anywhere, some real (a signed-zero imaginary part in the
    mirror), some purely imaginary, some below the conjugate's prune tol."""
    r, c = rng.integers(dim, size=(2, nnz))
    v = rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
    kind = rng.integers(4, size=nnz)
    v = np.where(kind == 0, v.real + 0j, v)
    v = np.where(kind == 1, 1j * v.imag, v)
    v = np.where(kind == 2, v * 1e-17, v)
    return SparseHermitian(dim, r, c, np.where(r == c, v.real + 0j, v))


class TestRunSplit:
    """A run of one Kraus family conjugates only the entries the family
    moves; the per-step loop over every entry is the oracle, bit for bit."""

    def test_pal_marked_runs_bit_for_bit(self, monkeypatch):
        # pal_inputs() holds every input the benchmark draws: w#v, |w| = |v| = 2.
        inputs = pal_inputs()
        got = [pal_generate(x) for x in inputs]
        monkeypatch.setattr(qqa, "_apply_run", per_step_run)
        for x, result in zip(inputs, got):
            assert pal_generate(x) == result, x

    def test_pal_marked_parks_most_states(self):
        # On "ab#ba" (dim 11,025) the step family maps 10,920 states to
        # themselves; only the 105 whose parked registers read xi0 move.
        level = gallery._pal_level("ab#ba")
        dim = level.schema.dim
        assert np.count_nonzero(qqa._fixed_owner(level.ops[STEP], dim) >= 0) == 10920
        assert not (qqa._fixed_owner(level.ops[CENT], dim) >= 0).any()

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("times", [1, 2, 5])
    def test_planted_families_bit_for_bit(self, seed, times):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(8, 30))
        family, planted = planted_family(rng, dim, n_ops=int(rng.integers(1, 4)))
        owner = qqa._fixed_owner(family, dim)
        assert owner[planted[0]] == -1                  # absorbs a moving column
        assert owner[planted[-2]] == owner[planted[-1]] == -1
        assert (owner >= 0).any()
        h = random_sparse_hermitian(rng, dim, 3 * dim)
        got = qqa._apply_run(family, times, h)
        want = per_step_run(family, times, h)
        assert triplet_bytes(got) == triplet_bytes(want)

    @pytest.mark.parametrize("times", [1, 2, 3])
    def test_absorbing_state(self, times):
        # Column 1 is moved onto column 0, which the family maps to itself.
        # H starts away from state 0, and the first step moves weight onto
        # it, so column 0 must be conjugated with the moving entries on the
        # later steps, not kept aside.
        family = [SparseOp.from_rules(3, [(0, 0, 1.0), (0, 1, 0.6), (2, 2, 1.0)]),
                  SparseOp.from_rules(3, [(1, 1, 0.8)])]
        assert list(qqa._fixed_owner(family, 3)) == [-1, -1, 0]
        h = SparseHermitian(3, [1, 1, 2], [1, 2, 2], [2.0, 0.125j, 3.0])
        got = qqa._apply_run(family, times, h)
        assert triplet_bytes(got) == triplet_bytes(per_step_run(family, times, h))
        dense = h.to_dense()
        for _ in range(times):
            dense = sum(k.to_dense() @ dense @ k.to_dense().conj().T for k in family)
        assert np.abs(got.to_dense() - dense).max() <= 1e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_one_way_generation_bit_for_bit(self, seed, monkeypatch):
        rng = np.random.default_rng(100 + seed)
        dim = 12
        ops = {sym: planted_family(rng, dim, n_ops=2)[0] for sym in (CENT, DOLLAR, "0", "1")}
        level = QqafLevel(schema=flat_schema(dim), alphabet=("0", "1"), ops=ops,
                          lam0=random_sparse_hermitian(rng, dim, 30),
                          q0_indices=frozenset({3, 7}), name="planted")
        inputs = ["", "0", "10", "0110"]
        got = [generate_qqaf(level, x, return_trace=True) for x in inputs]
        monkeypatch.setattr(qqa, "_apply_run", per_step_run)
        for x, (generated, trace) in zip(inputs, got):
            want, want_trace = generate_qqaf(level, x, return_trace=True)
            assert triplet_bytes(generated.operator) == triplet_bytes(want.operator), x
            assert trace == want_trace, x


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
    """A one-shot MeasureOnceGrounds(level).ground(x) gives g with
    generate_moqqaf(level, x) = I - |g><g|, and refuses every level for which
    that would not hold."""

    @pytest.mark.parametrize("seed", range(4))
    def test_complement_matches_generate_moqqaf(self, seed):
        level = random_moqqaf_level(dim=5, rng=np.random.default_rng(seed))
        for x in ["", "0", "10", "0110", "11010"]:
            g = MeasureOnceGrounds(level).ground(x)
            complement = np.eye(5) - np.outer(g, g.conj())
            assert np.abs(complement - generate_moqqaf(level, x).operator.to_dense()).max() <= 1e-12

    def test_lam0_zero_need_not_be_first(self):
        level = identity_level()
        level.lam0 = SparseHermitian.diagonal([1.0, 1.0, 0.0])
        assert np.array_equal(MeasureOnceGrounds(level).ground("01"), [0, 0, 1])

    @pytest.mark.parametrize("lam,match", [
        (np.diag([0.0, 0.0, 1.0]), "not I - "),
        (np.diag([0.0, 0.5, 1.0]), "not I - "),
        (np.diag([1.0, 1.0, 1.0]), "not I - "),
        (np.array([[0, 0, 0], [0, 1, 0.1], [0, 0.1, 1]]), "non-diagonal"),
    ])
    def test_rejects_other_lam0(self, lam, match):
        with pytest.raises(QqaError, match=match):
            MeasureOnceGrounds(level_with_lam0(lam)).ground("01")

    def test_rejects_halting_indices(self):
        level = random_moqqaf_level(q0=frozenset({1}))
        with pytest.raises(QqaError, match="halts on 1 indices"):
            MeasureOnceGrounds(level).ground("01")

    @pytest.mark.parametrize("symbol", [CENT, "1", DOLLAR])
    def test_rejects_two_operators(self, symbol):
        # "1" is not read by the input: every family must be a single unitary.
        with pytest.raises(QqaError, match="2 operators"):
            MeasureOnceGrounds(two_operator_level(symbol)).ground("00")

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            MeasureOnceGrounds(identity_level()).ground("2")


class TestMeasureOnceGrounds:
    """A carrier per level: the checks run once, and each input resumes
    from the prefix it shares with the one before."""

    @pytest.mark.parametrize("dollar", [True, False])
    def test_matches_one_shot_in_any_order(self, dollar):
        level = random_moqqaf_level(dim=5, rng=np.random.default_rng(9))
        if not dollar:
            level = drop_right_endmarker(level)
        carrier = MeasureOnceGrounds(level)
        # Without the right endmarker an input can be a prefix of the last.
        for x in ["0110", "011", "0111", "", "1", "0110", "0110", "10", "011"]:
            got = carrier.ground(x)
            assert got.tobytes() == MeasureOnceGrounds(level).ground(x).tobytes(), x
            assert len(carrier._states) == len(x) + 1 + dollar

    def test_states_are_read_only(self):
        carrier = MeasureOnceGrounds(random_moqqaf_level(dim=4))
        first = carrier.ground("01")
        kept = first.copy()
        with pytest.raises(ValueError):
            first[0] = 1.0
        carrier.ground("00")
        carrier.ground("1")
        assert np.array_equal(first, kept)
        assert not any(g.flags.writeable for g in carrier._states)

    def test_level_checked_once_at_construction(self):
        with pytest.raises(QqaError, match="halts on 1 indices"):
            MeasureOnceGrounds(random_moqqaf_level(q0=frozenset({1})))
        carrier = MeasureOnceGrounds(identity_level())
        with pytest.raises(UnknownSymbolError):
            carrier.ground("2")
        assert np.array_equal(carrier.ground("01"), [1, 0, 0])


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
