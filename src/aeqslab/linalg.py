"""Complex dense/sparse Hermitian linear algebra kernel.

Conventions used across the package:

- dense matrices and state vectors are ``numpy.ndarray`` of dtype complex128,
- a state vector is normalized when its l2 norm is 1 within ``NORM_TOL``,
- sparse operators are sorted triplet arrays (``rows``, ``cols``, ``vals``,
  ordered by (row, col)) built through the shared ``coalesce``; sparse
  Hermitian operators store only the upper triangle (row <= col) and leave
  the conjugate mirror implicit.

Dense eigensolves are delegated to LAPACK (``numpy.linalg.eigh``) behind the
contract checks below; the sparse path is a hand-rolled Lanczos iteration
with full reorthogonalization so that dense and sparse routes stay
independent of each other.  Sparse operators of dimension at most
``SPARSE_EIG_MIN_DIM`` are cheaper to densify and solve on the dense path,
so ``aeqs.lowest_pairs`` takes Lanczos only above it, or above
``dense_max()`` where that is lower, and never for a diagonal operator.
"""

from __future__ import annotations

import os
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
LANCZOS_SEED = 0x5EED
LANCZOS_MAX_ITER = 800


def dense_max() -> int:
    """Dense-path capacity, overridable through the AEQS_DENSE_MAX env var."""
    value = os.environ.get("AEQS_DENSE_MAX")
    if value:
        return int(value)
    return DENSE_MAX_DEFAULT


class LinalgError(Exception):
    pass


class CapacityError(LinalgError):
    """Operation exceeds the dense threshold or an index-space capacity."""


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
    n = h.shape[0]
    if n > dense_max():
        raise CapacityError(f"dense eigensolve of dimension {n} exceeds threshold {dense_max()}")
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


def triplet_matvec(dim: int, rows, cols, vals, x: np.ndarray) -> np.ndarray:
    """y = A x for the matrix A whose triplets are (rows, cols, vals)."""
    terms = vals * x[cols]
    y = np.empty(dim, dtype=complex)
    y.real = np.bincount(rows, terms.real, dim)
    y.imag = np.bincount(rows, terms.imag, dim)
    return y


class SparseHermitian:
    """Hermitian operator stored as upper-triangle triplets (row <= col).

    Hermiticity holds by construction: diagonal entries are forced real and
    the strict lower triangle is the implicit conjugate mirror.  Duplicate
    (row, col) keys are summed on construction.
    """

    def __init__(self, dim: int, rows=(), cols=(), vals=()):
        self.dim = int(dim)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=complex)
        if not (len(rows) == len(cols) == len(vals)):
            raise LinalgError("triplet arrays must have equal length")
        if len(rows) and (rows.min() < 0 or cols.min() < 0 or rows.max() >= dim or cols.max() >= dim):
            raise LinalgError("triplet index out of range")
        # Move entries into the upper triangle, conjugating as needed.
        swap = rows > cols
        r, c, v = coalesce(self.dim, np.where(swap, cols, rows), np.where(swap, rows, cols),
                           np.where(swap, vals.conj(), vals))
        diag = r == c
        if np.any(np.abs(v[diag].imag) > HERMITICITY_TOL):
            raise NotHermitianError(float(np.abs(v[diag].imag).max()))
        v = np.where(diag, v.real + 0j, v)
        if not np.all(np.isfinite(v.view(float))):
            raise LinalgError("non-finite entry in sparse operator")
        self.rows, self.cols, self.vals = r, c, v
        # Both triangles, the stored upper one first, built once for matvec
        # and to_dense.
        off = ~diag
        self.full_rows = np.concatenate([r, c[off]])
        self.full_cols = np.concatenate([c, r[off]])
        self.full_vals = np.concatenate([v, v[off].conj()])

    @classmethod
    def from_dense(cls, h: np.ndarray) -> "SparseHermitian":
        h = check_hermitian(h)
        r, c = np.nonzero(np.triu(np.abs(h) > 0))
        return cls(h.shape[0], r, c, h[r, c])

    @classmethod
    def diagonal(cls, values) -> "SparseHermitian":
        values = np.asarray(values, dtype=float)
        idx = np.arange(len(values))
        keep = values != 0
        return cls(len(values), idx[keep], idx[keep], values[keep])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return triplet_matvec(self.dim, self.full_rows, self.full_cols, self.full_vals, x)

    def to_dense(self) -> np.ndarray:
        if self.dim > dense_max():
            raise CapacityError(f"densifying dimension {self.dim} exceeds threshold {dense_max()}")
        h = np.zeros((self.dim, self.dim), dtype=complex)
        h[self.full_rows, self.full_cols] = self.full_vals
        return h

    def nnz(self) -> int:
        return len(self.vals)


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
    if nq < 1e-12:
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
        exhausted = beta < 1e-13 or m + 1 == m_cap

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
                if nv < 1e-12:
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
    if k < 1 or k > n:
        raise LinalgError(f"need 1 <= k <= dim, got k={k}, dim={n}")
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
    if h.shape[0] > dense_max():
        raise CapacityError(f"dense exponential of dimension {h.shape[0]} exceeds threshold")
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


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of operators or vectors."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out_elems = a.size * b.size
    if out_elems > dense_max() ** 2:
        raise CapacityError(f"tensor result with {out_elems} entries exceeds capacity")
    return np.kron(a, b)


_W1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_hadamard_cache: dict[int, np.ndarray] = {}


def hadamard_power(k: int) -> np.ndarray:
    """k-fold tensor power of the 2x2 Walsh-Hadamard transform."""
    if k < 0:
        raise LinalgError("k must be nonnegative")
    if 2**k > dense_max():
        raise CapacityError(f"Hadamard power of dimension 2^{k} exceeds threshold")
    if k not in _hadamard_cache:
        w = np.eye(1, dtype=complex)
        for _ in range(k):
            w = np.kron(w, _W1)
        _hadamard_cache[k] = w
    return _hadamard_cache[k]


def ilog(x: int) -> int:
    """ceil(log2(x)) with ilog(0) = 0; the bit size of an index space."""
    if x <= 1:
        return 0
    return int(np.ceil(np.log2(x)))
