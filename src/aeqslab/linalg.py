"""Complex dense/sparse Hermitian linear algebra kernel.

Conventions used across the package:

- dense matrices and state vectors are ``numpy.ndarray`` of dtype complex128,
- a state vector is normalized when its l2 norm is 1 within ``NORM_TOL``,
- every sparse matrix is a ``SparseOp``: triplet arrays (``rows``, ``cols``,
  ``vals``) sorted by (row, col) with unique keys, merged through the shared
  ``coalesce``.  A ``SparseHermitian`` is the SparseOp that is Hermitian by
  construction; it stores both triangles, and its ``nnz`` and the machine
  files count the upper one (row <= col).

Dense eigensolves are delegated to LAPACK (``numpy.linalg.eigh``) behind the
contract checks below; the sparse path is a hand-rolled Lanczos iteration
with full reorthogonalization so that dense and sparse routes stay
independent of each other.  ``aeqs.lowest_pairs`` solves a SparseHermitian
one connected component of its off-diagonal pattern at a time
(``SparseHermitian.components``): a one-index component is its diagonal
entry, and a larger one is cheaper to densify and solve on the dense path
at dimension at most ``SPARSE_EIG_MIN_DIM``, so it takes Lanczos only above
that, or above ``dense_max()`` where that is lower.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

# Tolerances and capacities, one table for the package.  The dense threshold
# may be overridden through AEQS_DENSE_MAX, and the Lanczos start seed through
# the command line's --seed.  SPARSE_EIG_MIN_DIM is the dense/Lanczos
# crossover for a sparse operator's lowest pairs, measured on one Xeon core:
# on gallery operators two Lanczos pairs cost about 0.3 ms at every dim from
# 36 to 68, while the checked dense eigensolve grows from 0.25 ms at dim 36
# past it between dims 44 and 48 (0.59 ms at 64).  On random sparse
# operators, whose spectra are spread out, Lanczos takes 5-8 ms at dims 40-64
# and the dense route is the cheaper one at every dim up to 64.
DENSE_MAX_DEFAULT = 2048
SPARSE_EIG_MIN_DIM = 48
HERMITICITY_TOL = 1e-10
RECONSTRUCT_TOL = 1e-8
RESIDUAL_TOL_SPARSE = 1e-7
ORTHO_TOL = 1e-9
DEGENERACY_TOL = 1e-9
NORM_TOL = 1e-10
# Spectral-norm defect allowed in an operator identity: a level's
# completeness and its Lambda0's positivity, an automaton's unitarity and
# isometry, a Hadamard-diagonal H_ini.
OPERATOR_DEFECT_TOL = 1e-9
# Distance allowed between a verdict's ground energy or gap and a gallery
# entry's analyzed value.
EXPECTATION_TOL = 1e-8
# Norm a compiled automaton's run may lose before it is renormalized.
RUN_NORM_TOL = 1e-9
# Imaginary part allowed in a machine document's amplitude that must be real.
REAL_PART_TOL = 1e-15
# Entries at or below these magnitudes are dropped from a sparse product and
# from a conjugated Hamiltonian.
PRODUCT_PRUNE_TOL = 1e-15
CONJUGATE_PRUNE_TOL = 1e-16
# Margin taken off a compiled automaton's accuracy threshold, so that a
# member on its error bound is not rejected by rounding.
THRESHOLD_SLACK = 1e-9
# A ground state whose accept and reject overlaps differ by at most this is
# a tie, and its verdict indeterminate.
TIE_TOL = 1e-9
# Spectral norm of [H_ini, H_fin] at or below which the pair commutes.
COMMUTATOR_NEGLIGIBLE = 1e-12
# Remainder below which a dynamical-subspace direction is dropped, and the
# invariance residual allowed, per unit norm of the Hamiltonians.
SUBSPACE_TOL = 1e-10
# Lanczos: a start or Ritz vector that deflation leaves shorter than
# LANCZOS_VANISHED_TOL has vanished; a Krylov residual below
# LANCZOS_BREAKDOWN_TOL ends the iteration.
LANCZOS_VANISHED_TOL = 1e-12
LANCZOS_BREAKDOWN_TOL = 1e-13
LANCZOS_SEED = 0x5EED
LANCZOS_MAX_ITER = 800
EVOLVE_DIM_MAX = 512       # dimension densified to be interpolated or evolved
GARBAGE_CAPACITY = 65536   # configuration space of a compiled garbage-tape automaton
# Most inputs one sweep may enumerate: above every sweep the tests and the
# benchmark run (at most 9,841 and 2,692 inputs).
VERIFY_INPUTS_MAX = 2**16


def dense_max() -> int:
    """Dense-path capacity: AEQS_DENSE_MAX when it is set, which must be a
    positive integer (else a CapacityError names it), else DENSE_MAX_DEFAULT."""
    value = os.environ.get("AEQS_DENSE_MAX")
    if not value:
        return DENSE_MAX_DEFAULT
    with contextlib.suppress(ValueError):   # else rejected as the string it is
        value = int(value)
    return integer(value, "AEQS_DENSE_MAX", CapacityError, low=1)


def capacity(size: int, limit: int, name: str, what: str) -> int:
    """size, when it is within limit; else the package's one CapacityError
    (exit 4), naming the size, the limit's name and its value."""
    if size <= limit:
        return size
    raise CapacityError(f"{what} {size} exceeds {name} = {limit}")


# The argument contract: an integer is an int or a numpy integer, a real any
# numbers.Real, and neither is a bool; nan lies in no range, inf only in one
# closed at inf.  A check returns the value or raises the caller's error.  The
# exact type is tested first: AeqsInstance checks its epsilon on every build.

def integer(value, name: str, error: type, low=0, high=math.inf):
    """value, when it is an integer in [low, high]."""
    if ((type(value) is int or isinstance(value, (int, np.integer)) and type(value) is not bool)
            and low <= value <= high):
        return value
    raise _rejected(value, name, error, "an integer", "[", low, high,
                    ")" if high == math.inf else "]")


def real(value, name: str, error: type, low=0.0, high=math.inf, *,
         open_low: bool = False, open_high: bool = False):
    """value, when it is a real from low to high, each end closed unless open;
    an integer that no float can hold is not one."""
    if ((type(value) is float or isinstance(value, numbers.Real) and type(value) is not bool
         and not (isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max))
            and (low < value if open_low else low <= value)
            and (value < high if open_high else value <= high)):
        return value
    kind = "a finite real" if open_high and high == math.inf else "a real"
    raise _rejected(value, name, error, kind, "(" if open_low else "[", low, high,
                    ")" if open_high else "]")


def _rejected(value, name, error, kind, left, low, high, right):
    sign = "negative" if isinstance(value, numbers.Real) and value < 0 <= low else "invalid"
    return error(f"{sign} {name} {value!r}: need {kind} in {left}{low}, {high}{right}")


class LinalgError(Exception):
    pass


class CapacityError(LinalgError):
    """A size above one of the table's capacities; raised by `capacity` alone."""


class NotHermitianError(LinalgError):
    def __init__(self, max_asymmetry: float):
        self.max_asymmetry = float(max_asymmetry)
        super().__init__(f"matrix is not Hermitian: max |H - H^dag| entry = {max_asymmetry:.3e}")


class ConvergenceFailure(LinalgError):
    """Lanczos failed to converge within the iteration cap; never silent."""

    def __init__(self, message, best_values=None):
        super().__init__(message)
        self.best_values = best_values


def asymmetry(h: np.ndarray) -> float:
    """Largest entrywise deviation of H from its adjoint."""
    return float(np.abs(h - h.conj().T).max(initial=0.0))


def check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h.view(float))):
        raise LinalgError("non-finite entry in matrix")
    scale = max(1.0, float(np.abs(h).max(initial=0.0)))
    a = asymmetry(h)
    if a > HERMITICITY_TOL * scale:
        raise NotHermitianError(a)
    return h


@dataclass
class EigenDecomposition:
    """Full spectrum of a Hermitian matrix, values ascending.

    ``vectors[:, i]`` is the normalized eigenvector of ``values[i]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(h: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a dense Hermitian matrix, ascending order.

    Rejects non-Hermitian input (reporting the worst asymmetry) and inputs
    beyond the dense threshold.  Postconditions (reconstruction error and
    orthonormality) are enforced here rather than assumed.
    """
    h = check_hermitian(h)
    n = capacity(h.shape[0], dense_max(), "AEQS_DENSE_MAX", "dense eigensolve of dimension")
    # Symmetrize to kill roundoff-level asymmetry before the LAPACK call.
    h = (h + h.conj().T) / 2.0
    values, vectors = np.linalg.eigh(h)
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    resid = float(np.linalg.norm(h @ vectors - vectors * values))
    ortho = float(np.linalg.norm(vectors.conj().T @ vectors - np.eye(n)))
    if ortho > ORTHO_TOL:
        raise LinalgError(f"eigenvectors are not orthonormal: ||V'V - I||_F = {ortho:.3e}")
    # H - V L V' = (H V - V L) V' + H (I - V V'), so to first order in ortho
    # ||H - V L V'||_2 <= resid + scale * ortho.  Requiring
    # resid + scale * ortho <= RECONSTRUCT_TOL * scale therefore bounds the
    # reconstruction error by RECONSTRUCT_TOL * scale.
    if resid + scale * ortho > RECONSTRUCT_TOL * scale:
        raise LinalgError(f"eigendecomposition residual {resid:.3e} too large")
    return EigenDecomposition(values, vectors)


def coalesce(dim: int, rows, cols, vals):
    """Sort triplets by (row, col) and sum the values of repeated keys.

    Returns ``rows``, ``cols``, ``vals`` arrays with unique keys.  Repeated
    keys are summed in the order they appear, so a given list of triplets
    always merges to the same bits.  Nothing is pruned: an exact cancellation
    stays a stored zero.

    The sort is a stable (timsort) argsort, which only merges runs when the
    triplets arrive in sorted runs, as sparse products emit them.  When no
    key repeats, each value is the one-term sum 0.0 + v that ``bincount``
    would form.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=complex)
    keys = rows * dim + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if first.all():
        merged = vals[order]
        merged += 0.0           # in place: no second copy at peak memory
    else:
        inverse = np.empty(len(keys), dtype=np.int64)
        inverse[order] = np.cumsum(first) - 1
        keys = keys[first]
        merged = np.empty(len(keys), dtype=complex)
        merged.real = np.bincount(inverse, vals.real, len(keys))
        merged.imag = np.bincount(inverse, vals.imag, len(keys))
    return keys // dim, keys % dim, merged


class SparseOp:
    """Sparse complex matrix as (row, col)-sorted triplet arrays.

    Duplicate keys are summed on construction (``coalesce``), so every key is
    stored once.  An op is never changed after construction, so it keeps its
    row pointers and its adjoint once formed: a Kraus family that acts at
    every step of a two-way run forms them once.
    """

    __slots__ = ("dim", "rows", "cols", "vals", "_indptr", "_adjoint")

    def __init__(self, dim: int, rows=(), cols=(), vals=()):
        self._set(int(dim), *coalesce(int(dim), rows, cols, vals))

    def _set(self, dim, rows, cols, vals):
        self.dim, self.rows, self.cols, self.vals = dim, rows, cols, vals
        self._indptr = self._adjoint = None

    @classmethod
    def from_rules(cls, dim: int, rules) -> "SparseOp":
        """rules: iterable of (row, col, amplitude); duplicates summed."""
        rules = list(rules)
        rows = np.array([r for r, _, _ in rules], dtype=np.int64)
        cols = np.array([c for _, c, _ in rules], dtype=np.int64)
        bad = (rows < 0) | (rows >= dim) | (cols < 0) | (cols >= dim)
        if bad.any():
            i = int(np.argmax(bad))
            raise LinalgError(f"entry ({rows[i]},{cols[i]}) out of range for dim {dim}")
        return cls(dim, rows, cols, [a for _, _, a in rules])

    @classmethod
    def identity(cls, dim: int) -> "SparseOp":
        idx = np.arange(dim)
        return cls(dim, idx, idx, np.ones(dim))

    @classmethod
    def permutation(cls, targets) -> "SparseOp":
        """The permutation sending column c to row targets[c]; the targets
        must be a rearrangement of range(len(targets))."""
        rows = np.asarray(targets, dtype=np.int64)
        dim = len(rows)
        if not np.array_equal(np.sort(rows), np.arange(dim)):
            raise LinalgError("permutation targets are not a bijection")
        return cls(dim, rows, np.arange(dim), np.ones(dim))

    @classmethod
    def from_dense(cls, mat: np.ndarray) -> "SparseOp":
        mat = np.asarray(mat, dtype=complex)
        rs, cs = np.nonzero(mat)
        return cls(mat.shape[0], rs, cs, mat[rs, cs])

    @property
    def indptr(self) -> np.ndarray:
        """Row pointers: the entries of row r are [indptr[r], indptr[r + 1])."""
        if self._indptr is None:
            self._indptr = np.zeros(self.dim + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.rows, minlength=self.dim), out=self._indptr[1:])
        return self._indptr

    def _product_terms(self, other: "SparseOp"):
        """Unmerged triplets of self @ other: one per pair (r, k), (k, c), in
        the order of self's entries, so the rows come out sorted."""
        if self.dim != other.dim:
            raise LinalgError("dimension mismatch in sparse product")
        start = other.indptr[self.cols]
        counts = other.indptr[self.cols + 1] - start
        left = np.repeat(np.arange(len(self.vals)), counts)
        right = np.arange(len(left)) + np.repeat(start - (np.cumsum(counts) - counts), counts)
        return self.rows[left], other.cols[right], self.vals[left] * other.vals[right]

    def __matmul__(self, other: "SparseOp") -> "SparseOp":
        return SparseOp(self.dim, *self._product_terms(other))._pruned(PRODUCT_PRUNE_TOL)

    def _masked(self, keep: np.ndarray) -> "SparseOp":
        """A new op of the entries where ``keep`` holds; a subset of sorted
        unique keys needs no merge."""
        op = SparseOp.__new__(SparseOp)
        op._set(self.dim, self.rows[keep], self.cols[keep], self.vals[keep])
        return op

    def _pruned(self, tol: float) -> "SparseOp":
        """A new op without the entries of magnitude at most tol."""
        return self._masked(np.abs(self.vals) > tol)

    def adjoint(self) -> "SparseOp":
        if self._adjoint is None:
            self._adjoint = SparseOp(self.dim, self.cols, self.rows, self.vals.conj())
        return self._adjoint

    def matvec(self, x: np.ndarray) -> np.ndarray:
        terms = self.vals * x[self.cols]
        y = np.empty(self.dim, dtype=complex)
        y.real = np.bincount(self.rows, terms.real, self.dim)
        y.imag = np.bincount(self.rows, terms.imag, self.dim)
        return y

    def to_dense(self) -> np.ndarray:
        capacity(self.dim, dense_max(), "AEQS_DENSE_MAX", "densifying dimension")
        m = np.zeros((self.dim, self.dim), dtype=complex)
        m[self.rows, self.cols] = self.vals
        return m

    def nnz(self) -> int:
        return len(self.vals)


class SparseHermitian(SparseOp):
    """A SparseOp that is Hermitian by construction.

    The given triplets are folded into the upper triangle (row <= col), the
    ones below it conjugated, and repeated keys are summed; diagonal entries
    are forced real.  Both triangles are then stored, sorted, so ``matvec``
    and ``to_dense`` are SparseOp's.  ``nnz`` counts the upper triangle: the
    triplets a machine file lists.
    """

    __slots__ = ()

    def __init__(self, dim: int, rows=(), cols=(), vals=()):
        dim = int(dim)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=complex)
        if not (len(rows) == len(cols) == len(vals)):
            raise LinalgError("triplet arrays must have equal length")
        if len(rows) and (rows.min() < 0 or cols.min() < 0 or rows.max() >= dim or cols.max() >= dim):
            raise LinalgError("triplet index out of range")
        swap = rows > cols
        r, c, v = coalesce(dim, np.where(swap, cols, rows), np.where(swap, rows, cols),
                           np.where(swap, vals.conj(), vals))
        diag = r == c
        if np.any(np.abs(v[diag].imag) > HERMITICITY_TOL):
            raise NotHermitianError(float(np.abs(v[diag].imag).max()))
        v = np.where(diag, v.real + 0j, v)
        if not np.all(np.isfinite(v.view(float))):
            raise LinalgError("non-finite entry in sparse operator")
        off = ~diag
        if off.any():
            # The upper keys are unique and their mirror is disjoint from
            # them, so one sort orders both triangles; no second merge.
            r, c, v = (np.concatenate([r, c[off]]), np.concatenate([c, r[off]]),
                       np.concatenate([v, v[off].conj()]))
            order = np.argsort(r * dim + c, kind="stable")
            r, c, v = r[order], c[order], v[order]
        self._set(dim, r, c, v)

    @classmethod
    def from_dense(cls, h: np.ndarray) -> "SparseHermitian":
        h = check_hermitian(h)
        r, c = np.nonzero(np.triu(np.abs(h) > 0))
        return cls(h.shape[0], r, c, h[r, c])

    @classmethod
    def diagonal(cls, values) -> "SparseHermitian":
        """diag(values), zeros not stored.  The nonzero indices are sorted
        and unique and the values real, so the storage is set directly: the
        bits the constructor would store, without its fold, sort and merge."""
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise LinalgError("non-finite entry in sparse operator")
        idx = np.flatnonzero(values)
        op = cls.__new__(cls)
        op._set(len(values), idx, idx, values[idx] + 0j)
        return op

    def nnz(self) -> int:
        return int(np.count_nonzero(self.rows <= self.cols))

    def components(self) -> tuple:
        """(singles, values, blocks): the connected components of the stored
        off-diagonal pattern.

        ``singles`` holds the one-index components, ascending, and ``values``
        their diagonal entries (0.0 where none is stored).  ``blocks`` lists
        each larger component as (members, op) in order of its lowest index:
        members ascending, and op the principal submatrix on them, a
        SparseHermitian storing the component's entries in their order,
        renumbered.  One component over the whole space gives op with this
        op's storage.

        Labels come from min-label propagation with pointer jumping: each
        index takes the lowest label among itself and its neighbours, then
        that label's label, until nothing moves.  Both triangles are stored,
        so the labels settle at each component's lowest index.
        """
        dim = self.dim
        off = self.rows != self.cols
        rows, cols = self.rows[off], self.cols[off]
        labels = np.arange(dim)
        while True:
            lowered = labels.copy()
            np.minimum.at(lowered, rows, labels[cols])
            lowered = lowered[lowered]
            if np.array_equal(lowered, labels):
                break
            labels = lowered
        sizes = np.bincount(labels, minlength=dim)[labels]
        singles = np.flatnonzero(sizes == 1)
        values = np.zeros(dim)
        values[self.rows[~off]] = self.vals[~off].real
        # Group the members and the entries of the larger components by
        # label, each group in index and (row, col) order.
        members = np.flatnonzero(sizes > 1)
        members = members[np.argsort(labels[members], kind="stable")]
        entries = np.flatnonzero(sizes[self.rows] > 1)
        entries = entries[np.argsort(labels[self.rows[entries]], kind="stable")]
        local = np.empty(dim, dtype=np.int64)
        blocks = []
        for idx, e in zip(_runs(members, labels[members]),
                          _runs(entries, labels[self.rows[entries]])):
            local[idx] = np.arange(idx.size)
            op = SparseHermitian.__new__(SparseHermitian)
            op._set(idx.size, local[self.rows[e]], local[self.cols[e]], self.vals[e])
            blocks.append((idx, op))
        return singles, values[singles], blocks


def _runs(a: np.ndarray, keys: np.ndarray) -> list:
    """The pieces of a over which the sorted keys stay equal, in order."""
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return [a[i:j] for i, j in zip(starts, np.append(starts[1:], a.size))]


def _lanczos_lowest_one(matvec, n, *, rng, max_iter, deflate):
    """One Lanczos run for the smallest eigenpair orthogonal to `deflate`.

    `deflate` is an (n, d) array of already-found eigenvectors; the iteration
    is confined to their orthogonal complement, which makes repeated calls
    resolve degenerate eigenvalues one copy at a time.
    """

    def project(v):
        if deflate.shape[1]:
            v = v - deflate @ (deflate.conj().T @ v)
        return v

    q = project(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    nq = np.linalg.norm(q)
    if nq < LANCZOS_VANISHED_TOL:
        raise ConvergenceFailure("deflated start vector vanished")
    q /= nq

    m_cap = min(n - deflate.shape[1], max_iter)
    basis = np.empty((m_cap, n), dtype=complex)
    basis[0] = q
    alphas: list[float] = []
    betas: list[float] = []
    best = None

    for m in range(m_cap):
        w = project(matvec(basis[m]))
        alpha = float(np.real(np.vdot(basis[m], w)))
        alphas.append(alpha)
        w = w - alpha * basis[m]
        if m > 0:
            w = w - betas[-1] * basis[m - 1]
        # Full reorthogonalization, twice for safety.
        for _ in range(2):
            w = w - basis[: m + 1].T @ (basis[: m + 1].conj() @ w)
        beta = float(np.linalg.norm(w))
        exhausted = beta < LANCZOS_BREAKDOWN_TOL or m + 1 == m_cap

        if m >= 1 or exhausted:
            t = np.diag(alphas)
            if betas:
                t += np.diag(betas, 1) + np.diag(betas, -1)
            tvals, tvecs = np.linalg.eigh(t)
            best = float(tvals[0])
            scale = max(1.0, float(np.abs(tvals).max()))
            est = beta * abs(tvecs[-1, 0])
            if est <= 0.1 * RESIDUAL_TOL_SPARSE * scale or exhausted:
                v = basis[: m + 1].T @ tvecs[:, 0]
                v = project(v)
                nv = np.linalg.norm(v)
                if nv < LANCZOS_VANISHED_TOL:
                    raise ConvergenceFailure("Ritz vector collapsed under deflation", best_values=best)
                v /= nv
                val = float(np.real(np.vdot(v, matvec(v))))
                resid = np.linalg.norm(project(matvec(v)) - val * v)
                if resid <= RESIDUAL_TOL_SPARSE * scale:
                    return val, v
                if exhausted:
                    raise ConvergenceFailure(
                        f"residual {resid:.3e} exceeds {RESIDUAL_TOL_SPARSE * scale:.3e} "
                        f"after {m + 1} iterations",
                        best_values=best,
                    )
        if exhausted:
            break
        betas.append(beta)
        basis[m + 1] = w / beta

    raise ConvergenceFailure(
        f"Lanczos did not converge within {max_iter} iterations", best_values=best
    )


def lowest_eigenpairs(h: SparseHermitian, k: int, *, max_iter: int = LANCZOS_MAX_ITER):
    """k smallest eigenpairs via Lanczos with full reorthogonalization.

    Returns a list of (value, vector) pairs, values ascending.  Eigenpairs
    are extracted one at a time with deflation so that degenerate clusters
    are reported with their multiplicity instead of being skipped.  The
    start vectors are seeded for reproducibility; non-convergence raises
    ConvergenceFailure (never silent) carrying the best Ritz value found.
    """
    n = h.dim
    integer(k, "pair count k", LinalgError, 1, n)
    rng = np.random.default_rng(LANCZOS_SEED)
    found_vals: list[float] = []
    found_vecs = np.zeros((n, 0), dtype=complex)
    for _ in range(k):
        val, vec = _lanczos_lowest_one(h.matvec, n, rng=rng, max_iter=max_iter,
                                       deflate=found_vecs)
        found_vals.append(val)
        found_vecs = np.hstack([found_vecs, vec[:, None]])
    order = np.argsort(found_vals, kind="stable")
    return [(found_vals[i], found_vecs[:, i]) for i in order]


def unitary_exp(h: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i * theta * H) for Hermitian H, via spectral decomposition."""
    h = check_hermitian(h)
    capacity(h.shape[0], dense_max(), "AEQS_DENSE_MAX", "dense exponential of dimension")
    if theta == 0.0:
        return np.eye(h.shape[0], dtype=complex)
    values, vectors = np.linalg.eigh((h + h.conj().T) / 2.0)
    phases = np.exp(-1j * theta * values)
    return (vectors * phases) @ vectors.conj().T


def spectral_norm(a: np.ndarray) -> float:
    """max ||A phi|| / ||phi||, computed as the largest singular value."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    gram = a.conj().T @ a
    vals = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    return float(np.sqrt(max(vals[-1], 0.0)))


_W1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_hadamard_cache: dict[int, np.ndarray] = {}


def hadamard_power(k: int) -> np.ndarray:
    """k-fold tensor power of the 2x2 Walsh-Hadamard transform."""
    integer(k, "Hadamard power k", LinalgError)
    capacity(2**k, dense_max(), "AEQS_DENSE_MAX", "Hadamard power of dimension")
    if k not in _hadamard_cache:
        w = np.eye(1, dtype=complex)
        for _ in range(k):
            w = np.kron(w, _W1)
        _hadamard_cache[k] = w
    return _hadamard_cache[k]


def ilog(x: int) -> int:
    """ceil(log2(x)) with ilog(0) = 0; the bit size of an index space, exact
    for integers of any size."""
    return max(0, int(x) - 1).bit_length()
