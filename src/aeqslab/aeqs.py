"""AEQS instances and families: ground-state decision semantics.

An instance carries a pair of Hamiltonians (initial and final) on one
evolution space plus acceptance/rejection index arrays.  The decision rule
reads off where the unique ground state of the final Hamiltonian lies: the
closeness of the ground state to the accepting (rejecting) span, expressed
through the reparameterized accuracy 1 - sqrt(1 - overlap), determines
accept/reject; everything else, including a degenerate ground space, is an
explicit "indeterminate" outcome rather than an error.

Along the interpolation H(s) = (1 - s) H_ini + s H_fin, the gap scan, the
time bound's ||H_fin - H_ini||, the commutator's norm and the evolution's
trace records are read off one BlockSplit of H(s) (``_block_split``): a
k x k block on a subspace Q that contains H_ini's ground state and is
invariant under both Hamiltonians, and lines, the eigenvalues of H_fin on
Q^perp.  For a pair I - |g><g|, I - |f><f| of ProjectorComplements (the
measure-once gallery entries and every compiled instance) Q = span{g, f}
and every part is in closed form, with no dim x dim matrix, at any
dimension.  Any other pair is densified, up to EVOLVE_DIM_MAX:
when H_ini is a ProjectorComplement, Q is the Krylov dynamical subspace of
its ground state (``dynamical_basis``) and the lines come from one
eigensolve of H_fin on Q^perp; for any other H_ini, Q is the whole space:
the block is H(s) itself, with no lines.  The types of the stored
operators choose, as in ``lowest_pairs``.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    DEGENERACY_TOL,
    EVOLVE_DIM_MAX,
    NORM_TOL,
    SPARSE_EIG_MIN_DIM,
    SUBSPACE_TOL,
    TIE_TOL,
    SparseHermitian,
    capacity,
    dense_max,
    hermitian_eig,
    integer,
    lowest_eigenpairs,
    real,
    spectral_norm,
)
from .qqa import BasisSchema, flat_schema

DEFAULT_ACCURACY_BOUND = 0.999  # constructions analyzed at accuracy exactly 1
GAP_SCAN_GRID = 64


class AeqsError(Exception):
    pass


class ProjectorComplement:
    """The operator I - |g><g| for a normalized vector g.

    Stored implicitly so rank-one-deflation Hamiltonians on large spaces
    never materialize dense matrices.  Spectrum: 0 on g (unique), 1 on the
    orthogonal complement.  ``vector`` is a private read-only copy of g:
    the ground state is handed out by reference, and one operator may be
    shared by many instances.
    """

    def __init__(self, vector: np.ndarray):
        vector = np.array(vector, dtype=complex)
        norm = math.sqrt(np.vdot(vector, vector).real)
        # A negated <=, so that a vector with a nan entry is rejected too.
        if not abs(norm - 1.0) <= NORM_TOL:
            raise AeqsError(f"deflation vector not normalized: |v| = {norm}")
        vector.flags.writeable = False
        self.vector = vector
        self.dim = len(vector)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return x - self.vector * np.vdot(self.vector, x)

    def to_dense(self) -> np.ndarray:
        capacity(self.dim, dense_max(), "AEQS_DENSE_MAX", "densifying dimension")
        return np.eye(self.dim, dtype=complex) - np.outer(self.vector, self.vector.conj())


def deflation_vector(dim: int, distinguished: int) -> np.ndarray:
    """Ground state of the initial Hamiltonian I - |g><g|.

    On power-of-two dimensions g is the Hadamard image of the distinguished
    basis state (so the initial Hamiltonian is diagonal in the Hadamard
    basis); otherwise g is the uniform superposition, which keeps the same
    spectrum (unique ground at energy 0, gap 1) on spaces that no tensor
    power of the one-qubit transform fits.
    """
    k = dim.bit_length() - 1
    if 2**k == dim:
        # Column `distinguished` of the k-fold Hadamard power, built without
        # materializing the matrix: signs follow bitwise-AND parity.
        idx = np.arange(dim)
        parity = np.zeros(dim, dtype=np.int64)
        bits = idx & distinguished
        while bits.any():
            parity ^= bits & 1
            bits >>= 1
        return ((-1.0) ** parity).astype(complex) / math.sqrt(dim)
    return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)


def deflation_hamiltonian(dim: int, distinguished: int) -> ProjectorComplement:
    """H_ini = I - |g><g| with g = ``deflation_vector(dim, distinguished)``."""
    return ProjectorComplement(deflation_vector(dim, distinguished))


class KroneckerSum:
    """The Kronecker sum A (x) I + I (x) B of two Hamiltonians.

    The factors may be in any supported representation, including a nested
    KroneckerSum, and are kept factored: the spectrum is the set of sums
    lambda_i + mu_j of the factors' eigenvalues, with eigenvectors
    v_i (x) w_j, so the lowest pairs come from the factors' lowest pairs.
    A dense matrix is built only by to_dense().
    """

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.dims = (hamiltonian_dim(a), hamiltonian_dim(b))
        self.dim = self.dims[0] * self.dims[1]

    def to_dense(self) -> np.ndarray:
        capacity(self.dim, dense_max(), "AEQS_DENSE_MAX", "densifying dimension")
        da, db = self.dims
        ia, ib = np.eye(da, dtype=complex), np.eye(db, dtype=complex)
        return np.kron(as_dense(self.a), ib) + np.kron(ia, as_dense(self.b))


_IMPLICIT = (SparseHermitian, ProjectorComplement, KroneckerSum)


def hamiltonian_dim(h) -> int:
    if isinstance(h, _IMPLICIT):
        return h.dim
    return np.asarray(h).shape[0]


def as_dense(h) -> np.ndarray:
    if isinstance(h, _IMPLICIT):
        return h.to_dense()
    return np.asarray(h, dtype=complex)


def _projector_eigenpairs(h: ProjectorComplement, k: int) -> tuple:
    """(values, vectors): the k lowest eigenvalues of I - |g><g|, ascending,
    and orthonormal eigenvectors as the contiguous columns of a dim x k
    array in Fortran order, the first of them g.

    The Householder reflection R = I - 2 u u^dagger / |u|^2 with
    u = g + phase(g_m) e_m, m where |g| is largest, maps e_m to g up to
    phase, so R e_i for the other i are orthonormal vectors of eigenvalue 1.
    |u|^2 = 2 + 2 |g_m| >= 2.
    """
    g = h.vector
    order = np.argsort(np.abs(g), kind="stable")
    m, others = order[-1], order[: k - 1]
    u = g.copy()
    u[m] += g[m] / abs(g[m])
    vectors = np.zeros((h.dim, k), dtype=complex, order="F")
    vectors[:, 0] = g
    vectors[others, np.arange(1, k)] = 1.0
    vectors[:, 1:] -= np.outer(u, (2.0 / np.vdot(u, u).real) * u[others].conj())
    values = np.ones(k)
    values[0] = 0.0
    return values, vectors


def _projector_lowest_two(h: ProjectorComplement) -> tuple:
    """``_lowest_two`` of I - |g><g| read off the spectrum above, with no
    eigenvector built: ground energy 0, ground state g itself and gap 1, or
    gap inf on a one-dimensional space."""
    return 0.0, h.vector, 1.0 if h.dim > 1 else math.inf, True


def _eigenbasis(h) -> tuple:
    """(values, vectors): every eigenpair of a Hamiltonian, values ascending
    and vectors as columns; in closed form for a ProjectorComplement
    (``_projector_eigenpairs``), else by eigh of its Hermitian part."""
    if isinstance(h, ProjectorComplement):
        return _projector_eigenpairs(h, h.dim)
    m = as_dense(h)
    return np.linalg.eigh((m + m.conj().T) / 2.0)


def lowest_pairs(h, k: int) -> list:
    """k lowest eigenpairs, values ascending, of a Hamiltonian in any
    supported representation; 1 <= k <= dim.

    Eigen paths: ProjectorComplement is closed form
    (``_projector_eigenpairs``), KroneckerSum combines its factors' lowest
    pairs, a SparseHermitian is solved one connected component at a time
    (``_component_pairs``), and a dense matrix runs the full checked dense
    eigensolve.
    """
    integer(k, "pair count k", AeqsError, 1, hamiltonian_dim(h))
    if isinstance(h, ProjectorComplement):
        values, vectors = _projector_eigenpairs(h, k)
        return [(float(value), v) for value, v in zip(values, vectors.T)]
    if isinstance(h, KroneckerSum):
        # The k lowest sums come from each factor's k lowest pairs.
        pa = lowest_pairs(h.a, min(k, h.dims[0]))
        pb = lowest_pairs(h.b, min(k, h.dims[1]))
        sums = sorted(((la + lb, i, j) for i, (la, _) in enumerate(pa)
                       for j, (lb, _) in enumerate(pb)), key=lambda t: t[0])
        return [(value, np.kron(pa[i][1], pb[j][1])) for value, i, j in sums[:k]]
    if isinstance(h, SparseHermitian):
        return _component_pairs(h, k)
    dec = hermitian_eig(as_dense(h))
    return [(float(dec.values[i]), dec.vectors[:, i]) for i in range(k)]


def _component_pairs(h: SparseHermitian, k: int) -> list:
    """The k lowest pairs of a SparseHermitian from the connected components
    of its off-diagonal pattern (``SparseHermitian.components``).

    A one-index component gives its diagonal entry with a basis vector.  A
    larger one gives its min(k, size) lowest pairs: by Lanczos on the
    component alone above dim min(SPARSE_EIG_MIN_DIM, dense_max()), else by
    the checked dense eigensolve of its submatrix, the cheaper route there;
    the dense_max() bound keeps a lowered AEQS_DENSE_MAX from turning a
    small sparse instance into a CapacityError.  The candidates merge in one
    stable order: value, then the component's lowest basis index, then the
    order within the component.  So a diagonal operator gives the stable
    argsort of its diagonal, ties in index order, and a connected one the
    dense or Lanczos pairs of the whole space.
    """
    singles, values, blocks = h.components()
    lanczos_above = min(SPARSE_EIG_MIN_DIM, dense_max())
    # Candidates (value, lowest index, slot, members, amplitudes).  Only the
    # k lowest one-index components, ties in index order, can be among the
    # k lowest pairs.
    candidates = [(float(values[i]), int(singles[i]), 0, singles[i:i + 1], 1.0)
                  for i in np.argsort(values, kind="stable")[:k]]
    for members, block in blocks:
        if block.dim > lanczos_above:
            pairs = lowest_eigenpairs(block, min(k, block.dim))
        else:
            dec = hermitian_eig(block.to_dense())
            pairs = zip(dec.values[:k], dec.vectors[:, :k].T)
        candidates += [(float(value), int(members[0]), slot, members, v)
                       for slot, (value, v) in enumerate(pairs)]
    result = []
    for value, _, _, members, v in sorted(candidates, key=lambda c: c[:3])[:k]:
        vector = np.zeros(h.dim, dtype=complex)
        vector[members] = v
        result.append((value, vector))
    return result


def diagonal_lowest_two(values: np.ndarray) -> tuple:
    """(ground energy, ground index, spectral gap, uniqueness flag) of
    diag(values), the two lowest pairs of ``lowest_pairs`` with no basis
    vector built: a stable argsort, so ties go to the lower index."""
    order = np.argsort(values, kind="stable")[:2]
    energy = float(values[order[0]])
    if len(order) == 1:
        return energy, int(order[0]), math.inf, True
    gap = max(0.0, float(values[order[1]]) - energy)
    return energy, int(order[0]), gap, gap > DEGENERACY_TOL


def _lowest_two(h) -> tuple:
    """(ground energy, ground state, spectral gap, uniqueness flag) from the
    two lowest pairs of ``lowest_pairs``, or in closed form for a
    ProjectorComplement (``_projector_lowest_two``); a one-dimensional space
    has gap inf and a unique ground state."""
    if isinstance(h, ProjectorComplement):
        return _projector_lowest_two(h)
    pairs = lowest_pairs(h, min(2, hamiltonian_dim(h)))
    energy, psi = pairs[0]
    if len(pairs) == 1:
        return energy, psi, math.inf, True
    gap = max(0.0, pairs[1][0] - energy)
    return energy, psi, gap, gap > DEGENERACY_TOL


def ground_state(h) -> tuple:
    """(ground energy, ground state, uniqueness flag)."""
    energy, psi, _, unique = _lowest_two(h)
    return energy, psi, unique


def spectral_gap(h) -> float:
    """Difference between the lowest and second-lowest eigenvalues."""
    if hamiltonian_dim(h) < 2:
        raise AeqsError("spectral gap requires dimension >= 2")
    return _lowest_two(h)[2]


def criteria_arrays(acc, rej) -> tuple:
    """(acc, rej): the criteria as sorted, unique, read-only int64 arrays of
    basis indices, the order ``decide_rows`` sums in; AeqsError when they
    share an index.  A pair of read-only int64 arrays is taken as formed
    here and returned as it is, so criteria formed once, where they are
    fixed, are shared by every instance with no set or sort work."""
    if all(isinstance(s, np.ndarray) and s.dtype == np.int64 and not s.flags.writeable
           for s in (acc, rej)):
        return acc, rej
    acc, rej = (_sorted_unique(np.asarray(s, dtype=np.int64) if isinstance(s, np.ndarray)
                               else np.fromiter(s, dtype=np.int64)) for s in (acc, rej))
    if _sorted_unique(np.concatenate([acc, rej])).size < acc.size + rej.size:
        raise AeqsError("acceptance and rejection criteria overlap")
    acc.flags.writeable = rej.flags.writeable = False
    return acc, rej


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct entries of a, ascending, in a new array: np.unique's
    result without the import of numpy.ma that its first call makes."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


@dataclass
class AeqsInstance:
    """One input's pair of Hamiltonians with decision criteria.

    s_acc and s_rej are disjoint criteria arrays (``criteria_arrays``) of
    basis indices in [0, dim) of the shared evolution space, formed from any
    index collection given; schema carries the indices' coordinate meaning.
    """

    size_bits: int
    epsilon: float
    h_ini: object
    h_fin: object
    s_acc: np.ndarray
    s_rej: np.ndarray
    schema: BasisSchema = None

    def __post_init__(self):
        self.s_acc, self.s_rej = criteria_arrays(self.s_acc, self.s_rej)
        d1, d2 = hamiltonian_dim(self.h_ini), hamiltonian_dim(self.h_fin)
        if d1 != d2:
            raise AeqsError(f"Hamiltonian dimensions differ: {d1} vs {d2}")
        for s in (self.s_acc, self.s_rej):      # sorted: the ends bound the rest
            if s.size and not 0 <= s.item(0) <= s.item(-1) < d1:
                bad = s.item(0) if s.item(0) < 0 else s.item(-1)
                raise AeqsError(f"criteria index {bad} out of range for dimension {d1}")
        real(self.epsilon, "accuracy bound epsilon", AeqsError, 0.0, 1.0)
        if self.schema is None:
            self.schema = flat_schema(d1)

    @property
    def dim(self) -> int:
        return hamiltonian_dim(self.h_fin)


def aeqs_instance(schema: BasisSchema, h_ini: ProjectorComplement, h_fin, s_acc, s_rej,
                  epsilon: float = DEFAULT_ACCURACY_BOUND) -> AeqsInstance:
    """The instance of one input of a compiled or gallery family: H_ini
    deflates the start state (``deflation_hamiltonian``), H_fin and the
    criteria are the construction's, and the size is the schema's."""
    return AeqsInstance(
        size_bits=schema.size_bits,
        epsilon=epsilon,
        h_ini=h_ini,
        h_fin=h_fin,
        s_acc=s_acc,
        s_rej=s_rej,
        schema=schema,
    )


@dataclass
class Verdict:
    outcome: str                 # "accept" | "reject" | "indeterminate"
    ground_energy: float
    spectral_gap: float
    accuracy: float              # achieved accuracy toward the winning side
    acc_overlap: float
    rej_overlap: float
    unique_ground: bool

    @property
    def exit_code(self) -> int:
        return {"accept": 0, "reject": 1, "indeterminate": 2}[self.outcome]

    def as_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "ground_energy": self.ground_energy,
            "spectral_gap": self.spectral_gap,
            "accuracy": self.accuracy,
            "acc_overlap": self.acc_overlap,
            "rej_overlap": self.rej_overlap,
            "unique_ground": self.unique_ground,
        }


def overlap_accuracy(overlap: float, mass_outside: float) -> float:
    """Accuracy 1 - sqrt(1 - c) for an overlap c = |projection| in [0, 1].

    1 - c is taken as (1 - c^2) / (1 + c), with 1 - c^2 the state's weight
    off the span, so that no digits are lost next to c = 1.
    """
    return 1.0 - math.sqrt(min(1.0, mass_outside / (1.0 + overlap)))


def _mass_outside(amps: np.ndarray, indices: np.ndarray) -> float:
    """Weight off the span of the basis indices, summed over the other
    entries rather than taken as 1 minus the weight on it, so that it keeps
    its digits when it is small."""
    outside = amps.copy()
    outside[indices] = 0.0
    return float(outside.sum())


def decide_rows(amps: np.ndarray, energies, gaps, unique, acc_idx: np.ndarray,
                rej_idx: np.ndarray, epsilon: float) -> list:
    """The Verdicts of m ground states from their squared amplitudes.

    ``amps`` is a C-contiguous (m, dim) float array, row r holding |psi_r|^2;
    ``energies``, ``gaps`` and ``unique`` give each row's ground energy,
    spectral gap and uniqueness flag; ``acc_idx`` and ``rej_idx`` are the
    criteria's basis indices as ``criteria_arrays`` forms them, shared by
    every row.

    accept  iff accuracy(acc overlap) >= epsilon and acc > rej overlap,
    reject  symmetrically; anything else (including a degenerate ground
    space or a tie) is indeterminate.

    Each row's sums are the bits of the one-row call: ``take`` gathers the
    columns into a C-contiguous block, whose axis-1 sum runs along each row
    as a 1-D sum does.  The F-ordered ``amps[:, idx]`` sums in another order
    and moves the last bits.  The weight off the leading side is summed on
    the row itself, and only for a row the rule decides.
    """
    acc = amps.take(acc_idx, axis=1).sum(axis=1).tolist()
    rej = amps.take(rej_idx, axis=1).sum(axis=1).tolist()
    verdicts = []
    for r, (a, b, energy, gap, one) in enumerate(zip(acc, rej, energies, gaps, unique)):
        a, b = math.sqrt(a), math.sqrt(b)
        outcome, accuracy = "indeterminate", 0.0
        if one and abs(a - b) > TIE_TOL:
            side, overlap, idx = ("accept", a, acc_idx) if a > b else ("reject", b, rej_idx)
            achieved = overlap_accuracy(overlap, _mass_outside(amps[r], idx))
            if achieved >= epsilon:
                outcome, accuracy = side, achieved
        verdicts.append(Verdict(
            outcome=outcome,
            ground_energy=float(energy),
            spectral_gap=float(gap),
            accuracy=float(accuracy),
            acc_overlap=a,
            rej_overlap=b,
            unique_ground=bool(one),
        ))
    return verdicts


def decide(instance: AeqsInstance) -> Verdict:
    """Locate the final Hamiltonian's ground state among the criteria spans:
    ``decide_rows`` on its one row."""
    energy, psi, gap, unique = _lowest_two(instance.h_fin)
    return decide_rows((np.abs(psi) ** 2)[None, :], [energy], [gap], [unique],
                       instance.s_acc, instance.s_rej, instance.epsilon)[0]


def interpolated_hamiltonian(instance: AeqsInstance, s: float) -> np.ndarray:
    """H(s) = (1 - s) H_ini + s H_fin for s = t / T in [0, 1]."""
    real(s, "interpolation parameter s", AeqsError, 0.0, 1.0)
    return (1.0 - s) * as_dense(instance.h_ini) + s * as_dense(instance.h_fin)


def commutator_check(instance: AeqsInstance) -> float:
    """Spectral norm of [H_ini, H_fin]; a negligible one means the pair
    commutes and adiabatic interpolation between them is vacuous.  Read off
    the BlockSplit of H(s): H_ini is the identity on Q^perp, so the
    commutator is [A, B] of the k x k block."""
    split = _block_split(instance)
    return spectral_norm(split.ini @ split.fin - split.fin @ split.ini)


def commutator_negligible(norm: float) -> bool:
    """Whether a commutator norm is at or below SUBSPACE_TOL, the resolution
    of the block split it is read off (``commutator_check``)."""
    return norm <= SUBSPACE_TOL


def _compress(h: np.ndarray, q) -> np.ndarray:
    """Q^dagger H Q, Hermitian by construction; H itself, symmetrized, when
    q is None (the whole space)."""
    r = h if q is None else q.conj().T @ h @ q
    return (r + r.conj().T) / 2.0


def dynamical_basis(h_ini: np.ndarray, h_fin: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the smallest subspace that contains
    ``start`` and is invariant under both Hamiltonians.

    Block Krylov iteration: every basis vector is mapped by both operators,
    the image is orthogonalized twice against the basis, and it is kept when
    its remainder exceeds SUBSPACE_TOL times a bound on the operators'
    norms.  The identity (the full space) is returned instead when the
    basis fills the space or when ||H Q - Q (Q^dagger H Q)|| exceeds the same
    bound for either operator.  An evolution over time T run in span(Q)
    therefore differs from the full-space one by at most about T times that
    bound.  Otherwise the first column is ``start`` normalized.  The basis
    grows by doubling its columns, so a small subspace never allocates
    dim x dim.
    """
    dim = start.shape[0]
    ops = (h_ini, h_fin)
    tol = SUBSPACE_TOL * max(1.0, *(np.abs(h).sum(axis=1).max() for h in ops))
    q = np.empty((dim, min(dim, 4)), dtype=complex)
    q[:, 0] = start / np.linalg.norm(start)
    k, i = 1, 0
    while i < k < dim:
        for h in ops:
            w = h @ q[:, i]
            for _ in range(2):
                w -= q[:, :k] @ (q[:, :k].conj().T @ w)
            norm = np.linalg.norm(w)
            if norm > tol and k < dim:
                if k == q.shape[1]:
                    q = np.concatenate([q, np.empty((dim, min(k, dim - k)), dtype=complex)], axis=1)
                q[:, k] = w / norm
                k += 1
        i += 1
    q = q[:, :k].copy()   # a view would keep the spare columns in memory
    if k == dim or any(spectral_norm(h @ q - q @ _compress(h, q)) > tol for h in ops):
        return np.eye(dim, dtype=complex)
    return q


def _grid(grid: int) -> np.ndarray:
    """The gap scan's points s = i / (grid - 1), i = 0 .. grid-1."""
    return np.arange(integer(grid, "grid", AeqsError, low=2)) / (grid - 1)


class BlockSplit:
    """H(s) = (1 - s) H_ini + s H_fin split on Q (+) Q^perp, where either
    H_ini = I - |g><g| and Q contains g and is invariant under both
    Hamiltonians, or Q is the whole space and H_ini is any Hamiltonian.
    ``q`` is None for the whole space, which is then never built as an
    identity matrix.

    H(s) is block-diagonal.  On Q it is the k x k compression (1 - s) A + s B
    (``ini`` and ``fin``); on Q^perp, where H_ini is the identity, it is
    (1 - s) I + s H_fin|Q^perp.  The spectrum of H(s) is thus the k x k
    block's eigenvalues together with the lines (1 - s) + s mu_i, where mu
    ascending are the eigenvalues of H_fin on Q^perp, the same for every s;
    when Q is the whole space there are no lines.  ``lines`` holds the
    eigenvectors of the lines that can lie within DEGENERACY_TOL of the
    ground energy at some s, and no others, when the split is built with
    ``vectors``.

    ``_block_split`` builds it by one of two routes.  For a pair
    I - |g><g|, I - |f><f| (``_pair_split``) Q = span{g, f} and every part is
    in closed form, with no dim x dim matrix.  For any other pair
    (``_dense_split``) both Hamiltonians are densified, and kept in
    ``dense``; Q is dynamical_basis(H_ini, H_fin, g) and mu comes from one
    eigensolve of H_fin on Q^perp.
    """

    def __init__(self, q, ini: np.ndarray, fin: np.ndarray, dim: int, dense=None):
        self.q, self.ini, self.fin, self.dense = q, ini, fin, dense
        self.mu, self.lines = np.empty(0), np.empty((dim, 0), dtype=complex)

    def min_gap(self, grid: int) -> float:
        """Smallest gap of H(s) over the gap scan's grid.  The block takes
        one k x k eigvalsh per grid point, so a whole-space Q holds one
        dim x dim H(s) at a time, not a stack of them."""
        s = _grid(grid)
        block = np.array([np.linalg.eigvalsh((1.0 - t) * self.ini + t * self.fin)[:2] for t in s])
        lines = (1.0 - s[:, None]) + s[:, None] * self.mu[:2]
        both = np.sort(np.concatenate([block, lines], axis=1), axis=1)
        return float(np.min(both[:, 1] - both[:, 0])) if both.shape[1] > 1 else math.inf

    def diff_norm(self) -> float:
        """||H_fin - H_ini||; on Q^perp the difference is H_fin - I."""
        return max(spectral_norm(self.fin - self.ini),
                   float(np.max(np.abs(self.mu - 1.0), initial=0.0)))

    def ground_projection(self, s: float, psi: np.ndarray) -> tuple:
        """(lowest eigenvalue of H(s), weight of the full-space state psi on
        its whole eigenspace); eigenvalues within DEGENERACY_TOL of the lowest
        count as ground.  Needs the split built with ``vectors``."""
        values, vectors = np.linalg.eigh((1.0 - s) * self.ini + s * self.fin)
        lines = (1.0 - s) + s * self.mu
        energy = min(values[0], lines[0]) if len(lines) else values[0]
        top = energy + DEGENERACY_TOL
        block = vectors[:, values <= top].conj().T @ (psi if self.q is None
                                                      else self.q.conj().T @ psi)
        perp = self.lines[:, lines[: self.lines.shape[1]] <= top].conj().T @ psi
        return float(energy), float(np.sum(np.abs(block) ** 2) + np.sum(np.abs(perp) ** 2))


def is_projector_pair(instance: AeqsInstance) -> bool:
    """Whether both Hamiltonians are stored as ProjectorComplements, the pair
    whose interpolation and commutator are taken in closed form."""
    return (isinstance(instance.h_ini, ProjectorComplement)
            and isinstance(instance.h_fin, ProjectorComplement))


def _pair_residual(g: np.ndarray, f: np.ndarray) -> tuple:
    """(c, r) for c = <g|f> and r = f - g c, orthogonalized against g twice:
    the part of f off g, of norm sqrt(1 - |c|^2)."""
    c = np.vdot(g, f)
    r = f - g * c
    r -= g * np.vdot(g, r)
    return c, r


def _pair_split(g: np.ndarray, f: np.ndarray, vectors: bool) -> BlockSplit:
    """The BlockSplit of H(s) for H_ini = I - |g><g| and H_fin = I - |f><f|,
    with no dim x dim matrix.

    Q = [g, r/|r|] (``_pair_residual``) spans {g, f}, which both
    Hamiltonians map into itself, so no invariance check is needed.  r is
    kept when |<g|f>| |r|, the norm of the Krylov image
    H_fin g - g <g|H_fin|g>, exceeds SUBSPACE_TOL; else k = 1.  When k = dim,
    Q is the whole space.  The compressions are I - a a^dagger and
    I - b b^dagger for a = Q^dagger g and b = Q^dagger f.

    H_fin is I - |Pf><Pf| on Q^perp, Pf = f - Q Q^dagger f, so
    mu = [1 - ||Pf||^2, 1, ..., 1] with no eigensolve, and Pf is either about
    0 or about f.  Unit lines, at 1 for every s, are never ground: the ground
    energy of H(s) is at most min(<g|H(s)|g>, <f|H(s)|f>) =
    min(s, 1 - s) (1 - |<g|f>|^2) <= 1/2 (for k = 2 the block on Q has trace
    1; for k = 1 it is s, and the Pf line is 1 - s).  The Pf line is lowest
    at s = 1, at mu_0, so it is kept when mu_0 <= 1/2 + DEGENERACY_TOL: that
    is when f is orthogonal to g, where k = 1 and mu_0 is about 0.
    """
    dim = len(g)
    c, r = _pair_residual(g, f)
    norm = math.sqrt(np.vdot(r, r).real)
    q = np.stack([g, r / norm], axis=1) if abs(c) * norm > SUBSPACE_TOL else g[:, None]
    k = q.shape[1]
    if k == dim:
        q = np.eye(dim, dtype=complex)
    a, b = q.conj().T @ g, q.conj().T @ f
    split = BlockSplit(q, *(_compress(np.eye(k) - np.outer(v, v.conj()), None) for v in (a, b)),
                       dim)
    if k < dim:
        pf = f - q @ b
        weight = np.vdot(pf, pf).real
        split.mu = np.ones(dim - k)
        split.mu[0] = 1.0 - weight
        if vectors and split.mu[0] <= 0.5 + DEGENERACY_TOL:
            split.lines = (pf / math.sqrt(weight))[:, None]
    return split


def _dense_split(h_ini: np.ndarray, h_fin: np.ndarray, q, vectors: bool) -> BlockSplit:
    """The BlockSplit of H(s) from the dense Hamiltonians, on the columns q
    (None for the whole space); the lines come from one eigensolve of H_fin
    on Q^perp."""
    dim = len(h_fin)
    split = BlockSplit(q, _compress(h_ini, q), _compress(h_fin, q), dim, dense=(h_ini, h_fin))
    if q is None or q.shape[1] == dim:
        return split
    k, n_perp = q.shape[1], dim - q.shape[1]
    # H_fin on Q^perp is P H_fin P for P = I - Q Q^dagger.  Adding
    # shift Q Q^dagger, with shift above ||H_fin||, puts the k directions
    # of Q above every mu, and no basis of Q^perp is needed; the
    # corrections are made in place, one dim x dim product at a time.
    hq = h_fin @ q
    shift = np.abs(h_fin).sum(axis=1).max() + 1.0
    m = h_fin - q @ hq.conj().T
    m -= hq @ q.conj().T
    m += q @ ((split.fin + shift * np.eye(k)) @ q.conj().T)
    if not vectors:
        split.mu = np.linalg.eigvalsh(m)[:n_perp]
        return split
    values, w = np.linalg.eigh(m)
    split.mu = values[:n_perp]
    # The ground energy lies below line 0 and below <g|H(s)|g> = s h, for
    # h = <g|H_fin|g> (g is the first column of Q).  A line within tol of
    # it at some s in [0, 1] thus has mu_i <= h + tol and
    # mu_i - mu_0 <= tol (1 + h - mu_0); the last tol is rounding slack.
    h, mu0, tol = split.fin[0, 0].real, split.mu[0], DEGENERACY_TOL
    top = min(h + tol, mu0 + tol * (1.0 + h - mu0)) + tol
    split.lines = w[:, :int(np.searchsorted(split.mu, top, side="right"))].copy()
    return split


def _block_split(instance: AeqsInstance, vectors: bool = False) -> BlockSplit:
    """The BlockSplit of H(s): in closed form for a pair of
    ProjectorComplements (``_pair_split``), at any dimension.  Any other
    pair is densified, up to EVOLVE_DIM_MAX, and split on the dynamical
    subspace of g when H_ini is I - |g><g|, else on the whole space
    (``_dense_split``)."""
    if is_projector_pair(instance):
        return _pair_split(instance.h_ini.vector, instance.h_fin.vector, vectors)
    capacity(instance.dim, EVOLVE_DIM_MAX, "EVOLVE_DIM_MAX", "dimension")
    h_ini, h_fin = as_dense(instance.h_ini), as_dense(instance.h_fin)
    q = (dynamical_basis(h_ini, h_fin, instance.h_ini.vector)
         if isinstance(instance.h_ini, ProjectorComplement) else None)
    return _dense_split(h_ini, h_fin, q, vectors)


def minimum_interpolation_gap(instance: AeqsInstance, grid: int = GAP_SCAN_GRID) -> float:
    """Smallest spectral gap of H(s) over a uniform grid of s values, read
    off the BlockSplit of H(s)."""
    return _block_split(instance).min_gap(grid)


def check_time_bound_args(epsilon: float, delta: float, grid: int) -> None:
    """Raise AeqsError unless epsilon and delta are finite and positive and
    the gap scan has at least 2 grid points."""
    real(epsilon, "epsilon", AeqsError, open_low=True, open_high=True)
    real(delta, "delta", AeqsError, open_low=True, open_high=True)
    _grid(grid)


def adiabatic_time_bound(instance: AeqsInstance, epsilon: float, delta: float,
                         c: float = 1.0, grid: int = GAP_SCAN_GRID) -> float:
    """Evolution-time lower-bound shape from the adiabatic theorem:

        C * ||H_fin - H_ini||^(1+delta) / (epsilon^delta * g^(2+delta))

    with g the minimum interpolated spectral gap over a uniform grid, both
    read off the BlockSplit of H(s).  A (near-)degenerate interpolated ground
    space yields an unbounded-time signal, returned as +inf.
    """
    check_time_bound_args(epsilon, delta, grid)
    real(c, "constant c", AeqsError, open_low=True, open_high=True)
    split = _block_split(instance)
    diff_norm = split.diff_norm()
    if diff_norm == 0.0:
        return 0.0
    g = split.min_gap(grid)
    if g <= DEGENERACY_TOL:
        return math.inf
    try:
        return c * diff_norm ** (1.0 + delta) / (epsilon**delta * g ** (2.0 + delta))
    except (OverflowError, ZeroDivisionError):
        # A power left the float range.  The log's terms in delta are gathered: no inf - inf.
        log_bound = (delta * (math.log(diff_norm) - math.log(epsilon) - math.log(g))
                     + math.log(diff_norm) - 2.0 * math.log(g))
        return c * (math.exp(log_bound) if log_bound < math.log(sys.float_info.max) else math.inf)


# ---------------------------------------------------------------------------
# Families and closure combinators
# ---------------------------------------------------------------------------

@dataclass
class AeqsFamily:
    """A deterministic builder of instances, one per input string."""

    alphabet: tuple
    builder: Callable[[str], AeqsInstance]
    promise: Callable[[str], bool] | None = None
    tags: tuple = ()
    name: str = "family"

    def build(self, x: str) -> AeqsInstance:
        """The instance of x, built anew: a family keeps no instance."""
        return self.builder(x)

    def decide(self, x: str) -> Verdict:
        return decide(self.build(x))

    def promised(self, x: str) -> bool:
        return True if self.promise is None else bool(self.promise(x))


def from_oracle(predicate: Callable[[str], bool], alphabet=("0", "1"),
                name: str = "oracle") -> AeqsFamily:
    """Single-qubit family deciding any language with accuracy 1.

    H_ini = |1^><1^| (Hadamard-basis projector, ground state |0^>), and
    H_fin projects onto the basis state opposite the membership bit, so the
    ground state of H_fin is |predicate(x)>.  S_acc = {1}, S_rej = {0}.
    """
    w = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    h_ini = w @ np.diag([0.0, 1.0]).astype(complex) @ w  # = |1^><1^|
    s_acc, s_rej = criteria_arrays([1], [0])

    def build(x: str) -> AeqsInstance:
        bit = 1 if predicate(x) else 0
        h_fin = np.zeros((2, 2), dtype=complex)
        h_fin[1 - bit, 1 - bit] = 1.0
        return AeqsInstance(
            size_bits=1,
            epsilon=DEFAULT_ACCURACY_BOUND,
            h_ini=h_ini,
            h_fin=h_fin,
            s_acc=s_acc,
            s_rej=s_rej,
        )

    return AeqsFamily(
        alphabet=tuple(alphabet),
        builder=build,
        tags=("constsize", "constgap"),
        name=name,
    )


def complement(family: AeqsFamily) -> AeqsFamily:
    """Swap acceptance and rejection criteria in every built instance."""

    def build(x: str) -> AeqsInstance:
        inst = family.build(x)
        return dataclasses.replace(inst, s_acc=inst.s_rej, s_rej=inst.s_acc)

    return AeqsFamily(
        alphabet=family.alphabet,
        builder=build,
        promise=family.promise,
        tags=family.tags,
        name=f"complement({family.name})",
    )


def xor_product(f1: AeqsFamily, f2: AeqsFamily) -> AeqsFamily:
    """Family accepting x iff exactly one component family accepts x.

    Hamiltonians combine as Kronecker sums H1 (x) I + I (x) H2, so component
    ground energies add and the joint ground state is the tensor of the
    component ground states whenever both are unique.  The sums are kept
    factored (KroneckerSum): decide reads the lowest pairs from the
    components, and to_dense() materializes the product matrix for callers
    that need it.  Criteria combine as
    S~_acc = (S1_acc x S2_rej) u (S1_rej x S2_acc) and symmetrically for
    S~_rej.
    """
    if tuple(f1.alphabet) != tuple(f2.alphabet):
        raise AeqsError("xor_product requires a common alphabet")

    def build(x: str) -> AeqsInstance:
        a, b = f1.build(x), f2.build(x)
        da, db = a.dim, b.dim
        capacity(da * db, dense_max() ** 2, "AEQS_DENSE_MAX ** 2", "xor dimension product")
        h_ini = KroneckerSum(a.h_ini, b.h_ini)
        h_fin = KroneckerSum(a.h_fin, b.h_fin)

        def pairs(left, right):
            return (left[:, None] * db + right).ravel()

        s_acc = np.concatenate([pairs(a.s_acc, b.s_rej), pairs(a.s_rej, b.s_acc)])
        s_rej = np.concatenate([pairs(a.s_acc, b.s_acc), pairs(a.s_rej, b.s_rej)])
        return AeqsInstance(
            size_bits=a.size_bits + b.size_bits,
            epsilon=max(0.0, 4.0 * min(a.epsilon, b.epsilon) - 3.0),
            h_ini=h_ini,
            h_fin=h_fin,
            s_acc=s_acc,
            s_rej=s_rej,
            schema=BasisSchema([("first", tuple(range(da))), ("second", tuple(range(db)))]),
        )

    promise = None
    if f1.promise or f2.promise:
        promise = lambda x: f1.promised(x) and f2.promised(x)  # noqa: E731
    return AeqsFamily(
        alphabet=f1.alphabet,
        builder=build,
        promise=promise,
        name=f"xor({f1.name},{f2.name})",
    )


def inverse_image(family: AeqsFamily, f: Callable[[str], str],
                  description: str = "f") -> AeqsFamily:
    """Family deciding { x : f(x) in L } by building the instance of f(x).

    f must preserve the size function: size_bits(f(x)) == size_bits(x) is
    checked on every build and violations are reported with the offending x.
    """

    def build(x: str) -> AeqsInstance:
        direct = family.build(x)
        mapped = family.build(f(x))
        if mapped.size_bits != direct.size_bits:
            raise AeqsError(
                f"{description} is not size-preserving at {x!r}: "
                f"size {direct.size_bits} vs {mapped.size_bits} after mapping"
            )
        return mapped

    return AeqsFamily(
        alphabet=family.alphabet,
        builder=build,
        promise=family.promise,
        tags=family.tags,
        name=f"inverse_image({family.name},{description})",
    )
