"""AEQS instances and families: ground-state decision semantics.

An instance carries a pair of Hamiltonians (initial and final) on one
evolution space plus acceptance/rejection index sets.  The decision rule
reads off where the unique ground state of the final Hamiltonian lies: the
closeness of the ground state to the accepting (rejecting) span, expressed
through the reparameterized accuracy 1 - sqrt(1 - overlap), determines
accept/reject; everything else, including a degenerate ground space, is an
explicit "indeterminate" outcome rather than an error.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import (
    DEGENERACY_TOL,
    CapacityError,
    SparseHermitian,
    dense_max,
    hermitian_eig,
    lowest_eigenpairs,
    spectral_norm,
)
from .qqa import BasisSchema, Selector, flat_schema

TIE_TOL = 1e-9
DEFAULT_ACCURACY_BOUND = 0.999  # constructions analyzed at accuracy exactly 1
COMMUTATOR_NEGLIGIBLE = 1e-12
GAP_SCAN_GRID = 64
# Instances an AeqsFamily keeps.  Re-reads come within the last 4 inputs
# (inverse_image on a fixed point of its map, a combinator and its operand
# on one input) or after a whole sweep, which no small bound keeps.
FAMILY_CACHE_SIZE = 4


class AeqsError(Exception):
    pass


class ProjectorComplement:
    """The operator I - |g><g| for a normalized vector g.

    Stored implicitly so rank-one-deflation Hamiltonians on large spaces
    never materialize dense matrices.  Spectrum: 0 on g (unique), 1 on the
    orthogonal complement.
    """

    def __init__(self, vector: np.ndarray):
        vector = np.asarray(vector, dtype=complex)
        norm = np.linalg.norm(vector)
        if abs(norm - 1.0) > 1e-10:
            raise AeqsError(f"deflation vector not normalized: |v| = {norm}")
        self.vector = vector
        self.dim = len(vector)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return x - self.vector * np.vdot(self.vector, x)

    def to_dense(self) -> np.ndarray:
        if self.dim > dense_max():
            raise CapacityError(f"densifying dimension {self.dim} exceeds threshold")
        return np.eye(self.dim, dtype=complex) - np.outer(self.vector, self.vector.conj())


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


def lowest_pairs(h, k: int) -> list:
    """k lowest eigenpairs, values ascending, of a Hamiltonian in any
    supported representation; 1 <= k <= dim.

    Eigen paths: ProjectorComplement is closed form, SparseHermitian runs
    Lanczos, KroneckerSum combines its factors' lowest pairs, and a dense
    matrix runs the full dense eigensolve.
    """
    k = int(k)
    dim = hamiltonian_dim(h)
    if not 1 <= k <= dim:
        raise AeqsError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    if isinstance(h, ProjectorComplement):
        # The Householder reflection R = I - 2 u u^dagger / |u|^2 with
        # u = g + phase(g_m) e_m, m where |g| is largest, maps e_m to g up to
        # phase, so R e_i for the other i are orthonormal vectors of
        # eigenvalue 1.  |u|^2 = 2 + 2 |g_m| >= 2.
        g = h.vector
        order = np.argsort(np.abs(g), kind="stable")
        m, others = order[-1], order[: k - 1]
        u = g.copy()
        u[m] += g[m] / abs(g[m])
        vectors = np.zeros((dim, k - 1), dtype=complex)
        vectors[others, np.arange(k - 1)] = 1.0
        vectors -= np.outer(u, (2.0 / np.vdot(u, u).real) * u[others].conj())
        return [(0.0, g)] + [(1.0, v) for v in vectors.T]
    if isinstance(h, KroneckerSum):
        # The k lowest sums come from each factor's k lowest pairs.
        pa = lowest_pairs(h.a, min(k, h.dims[0]))
        pb = lowest_pairs(h.b, min(k, h.dims[1]))
        sums = sorted(((la + lb, i, j) for i, (la, _) in enumerate(pa)
                       for j, (lb, _) in enumerate(pb)), key=lambda t: t[0])
        return [(value, np.kron(pa[i][1], pb[j][1])) for value, i, j in sums[:k]]
    if isinstance(h, SparseHermitian):
        return lowest_eigenpairs(h, k)
    dec = hermitian_eig(as_dense(h))
    return [(float(dec.values[i]), dec.vectors[:, i]) for i in range(k)]


def ground_state(h) -> tuple:
    """(ground energy, ground state, uniqueness flag)."""
    dim = hamiltonian_dim(h)
    if dim == 1:
        pairs = lowest_pairs(h, 1)
        return pairs[0][0], pairs[0][1], True
    pairs = lowest_pairs(h, 2)
    unique = pairs[1][0] - pairs[0][0] > DEGENERACY_TOL
    return pairs[0][0], pairs[0][1], unique


def spectral_gap(h) -> float:
    """Difference between the lowest and second-lowest eigenvalues."""
    dim = hamiltonian_dim(h)
    if dim < 2:
        raise AeqsError("spectral gap requires dimension >= 2")
    pairs = lowest_pairs(h, 2)
    return max(0.0, pairs[1][0] - pairs[0][0])


@dataclass
class AeqsInstance:
    """One input's pair of Hamiltonians with decision criteria.

    s_acc and s_rej are disjoint sets of basis indices into the shared
    evolution space; schema carries the coordinate meaning of those indices.
    """

    size_bits: int
    epsilon: float
    h_ini: object
    h_fin: object
    s_acc: frozenset
    s_rej: frozenset
    schema: BasisSchema = None

    def __post_init__(self):
        self.s_acc = frozenset(self.s_acc)
        self.s_rej = frozenset(self.s_rej)
        if self.s_acc & self.s_rej:
            raise AeqsError("acceptance and rejection criteria overlap")
        d1, d2 = hamiltonian_dim(self.h_ini), hamiltonian_dim(self.h_fin)
        if d1 != d2:
            raise AeqsError(f"Hamiltonian dimensions differ: {d1} vs {d2}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise AeqsError("accuracy bound must lie in [0, 1]")
        if self.schema is None:
            self.schema = flat_schema(d1)

    @property
    def dim(self) -> int:
        return hamiltonian_dim(self.h_fin)


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


def overlap_accuracy(overlap: float) -> float:
    """Accuracy 1 - sqrt(1 - c) for an overlap c = |projection| in [0, 1]."""
    return 1.0 - math.sqrt(max(0.0, 1.0 - min(1.0, overlap)))


def decide(instance: AeqsInstance, *, epsilon_threshold: float | None = None) -> Verdict:
    """Locate the final Hamiltonian's ground state among the criteria spans.

    accept  iff accuracy(acc overlap) >= threshold and acc > rej overlap,
    reject  symmetrically; anything else (including a degenerate ground
    space or a tie) is indeterminate.
    """
    threshold = instance.epsilon if epsilon_threshold is None else epsilon_threshold
    dim = instance.dim
    if dim == 1:
        energy, psi, unique = ground_state(instance.h_fin)
        gap = math.inf
    else:
        pairs = lowest_pairs(instance.h_fin, 2)
        energy = pairs[0][0]
        psi = pairs[0][1]
        gap = max(0.0, pairs[1][0] - pairs[0][0])
        unique = gap > DEGENERACY_TOL

    amps = np.abs(psi) ** 2
    acc = math.sqrt(float(sum(amps[i] for i in instance.s_acc))) if instance.s_acc else 0.0
    rej = math.sqrt(float(sum(amps[i] for i in instance.s_rej))) if instance.s_rej else 0.0

    outcome = "indeterminate"
    accuracy = 0.0
    if unique and abs(acc - rej) > TIE_TOL:
        if acc > rej and overlap_accuracy(acc) >= threshold:
            outcome, accuracy = "accept", overlap_accuracy(acc)
        elif rej > acc and overlap_accuracy(rej) >= threshold:
            outcome, accuracy = "reject", overlap_accuracy(rej)
    return Verdict(
        outcome=outcome,
        ground_energy=float(energy),
        spectral_gap=float(gap),
        accuracy=float(accuracy),
        acc_overlap=float(acc),
        rej_overlap=float(rej),
        unique_ground=bool(unique),
    )


def interpolated_hamiltonian(instance: AeqsInstance, s: float) -> np.ndarray:
    """H(s) = (1 - s) H_ini + s H_fin for s = t / T in [0, 1]."""
    if not 0.0 <= s <= 1.0:
        raise AeqsError(f"interpolation parameter {s} outside [0, 1]")
    return (1.0 - s) * as_dense(instance.h_ini) + s * as_dense(instance.h_fin)


def commutator_check(instance: AeqsInstance) -> float:
    """Spectral norm of [H_ini, H_fin]; values below 1e-12 mean the pair
    commutes and adiabatic interpolation between them is vacuous."""
    a = as_dense(instance.h_ini)
    b = as_dense(instance.h_fin)
    return spectral_norm(a @ b - b @ a)


def commutator_negligible(norm: float) -> bool:
    return norm <= COMMUTATOR_NEGLIGIBLE


def minimum_interpolation_gap(instance: AeqsInstance, grid: int = GAP_SCAN_GRID) -> float:
    """Smallest spectral gap of H(s) over a uniform grid of s values."""
    return _scan_gap(as_dense(instance.h_ini), as_dense(instance.h_fin), grid)


def _scan_gap(h_ini: np.ndarray, h_fin: np.ndarray, grid: int) -> float:
    if grid < 2:
        raise AeqsError("gap scan needs at least 2 grid points")
    gaps = []
    for i in range(grid):
        s = i / (grid - 1)
        vals = np.linalg.eigvalsh((1.0 - s) * h_ini + s * h_fin)
        gaps.append(float(vals[1] - vals[0]) if len(vals) > 1 else math.inf)
    return min(gaps)


def adiabatic_time_bound(instance: AeqsInstance, epsilon: float, delta: float,
                         c: float = 1.0, grid: int = GAP_SCAN_GRID) -> float:
    """Evolution-time lower-bound shape from the adiabatic theorem:

        C * ||H_fin - H_ini||^(1+delta) / (epsilon^delta * g^(2+delta))

    with g the minimum interpolated spectral gap over a uniform grid.  A
    (near-)degenerate interpolated ground space yields an unbounded-time
    signal, returned as +inf.
    """
    if not all(math.isfinite(v) and v > 0 for v in (epsilon, delta)):
        raise AeqsError("epsilon and delta must be finite and positive")
    h_ini, h_fin = as_dense(instance.h_ini), as_dense(instance.h_fin)
    diff_norm = spectral_norm(h_fin - h_ini)
    if diff_norm == 0.0:
        return 0.0
    g = _scan_gap(h_ini, h_fin, grid)
    if g <= DEGENERACY_TOL:
        return math.inf
    return c * diff_norm ** (1.0 + delta) / (epsilon**delta * g ** (2.0 + delta))


# ---------------------------------------------------------------------------
# Families and closure combinators
# ---------------------------------------------------------------------------

@dataclass
class AeqsFamily:
    """A deterministic builder of instances, one per input string."""

    alphabet: tuple
    selector: Selector
    builder: Callable[[str], AeqsInstance]
    promise: Callable[[str], bool] | None = None
    tags: tuple = ()
    name: str = "family"
    _cache: OrderedDict = field(default_factory=OrderedDict, repr=False)

    def build(self, x: str) -> AeqsInstance:
        """The instance of x; the FAMILY_CACHE_SIZE most recently used
        instances are kept."""
        if x in self._cache:
            self._cache.move_to_end(x)
        else:
            self._cache[x] = self.builder(x)
            if len(self._cache) > FAMILY_CACHE_SIZE:
                self._cache.popitem(last=False)
        return self._cache[x]

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

    def build(x: str) -> AeqsInstance:
        bit = 1 if predicate(x) else 0
        h_fin = np.zeros((2, 2), dtype=complex)
        h_fin[1 - bit, 1 - bit] = 1.0
        return AeqsInstance(
            size_bits=1,
            epsilon=DEFAULT_ACCURACY_BOUND,
            h_ini=h_ini,
            h_fin=h_fin,
            s_acc=frozenset({1}),
            s_rej=frozenset({0}),
        )

    return AeqsFamily(
        alphabet=tuple(alphabet),
        selector=Selector(lambda x: 0, "n = 0 (single level)"),
        builder=build,
        tags=("constsize", "constgap"),
        name=name,
    )


def complement(family: AeqsFamily) -> AeqsFamily:
    """Swap acceptance and rejection criteria in every built instance."""

    def build(x: str) -> AeqsInstance:
        inst = family.build(x)
        return AeqsInstance(
            size_bits=inst.size_bits,
            epsilon=inst.epsilon,
            h_ini=inst.h_ini,
            h_fin=inst.h_fin,
            s_acc=inst.s_rej,
            s_rej=inst.s_acc,
            schema=inst.schema,
        )

    return AeqsFamily(
        alphabet=family.alphabet,
        selector=family.selector,
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
        if da * db > dense_max() ** 2:
            raise CapacityError(f"xor dimension product {da * db} exceeds capacity")
        h_ini = KroneckerSum(a.h_ini, b.h_ini)
        h_fin = KroneckerSum(a.h_fin, b.h_fin)

        def pair(i, j):
            return i * db + j

        s_acc = frozenset(
            {pair(i, j) for i in a.s_acc for j in b.s_rej}
            | {pair(i, j) for i in a.s_rej for j in b.s_acc}
        )
        s_rej = frozenset(
            {pair(i, j) for i in a.s_acc for j in b.s_acc}
            | {pair(i, j) for i in a.s_rej for j in b.s_rej}
        )
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
        selector=f1.selector,
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
        selector=family.selector,
        builder=build,
        promise=family.promise,
        tags=family.tags,
        name=f"inverse_image({family.name},{description})",
    )
