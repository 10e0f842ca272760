"""Discrete adiabatic evolution with per-step traces.

Three interchangeable step propagators over a refinement of [0, T] into R
intervals (j = 0 .. R-1, hbar = 1 by default):

- midpoint:  U'(j+1, j) = exp(-i (T/R) H((2j+1) T / (2R)) / hbar), the exact
  reference propagator per refined interval;
- trotter:   V(j) = exp(-i a_j H_ini) exp(-i b_j H_fin) with
  a_j = (T/R)(1 - (2j+1)/(2R))/hbar and b_j = (T/R)((2j+1)/(2R))/hbar; the
  product V(R-1) ... V(0) approximates the midpoint product to O(T^2/R);
- phase-shift: each V(j) factored as W^k PS_ini^(2R-2j-1) W^k PS_fin^(2j+1)
  through two diagonal phase operators, available exactly when H_ini is
  diagonal in the Hadamard basis and the dimension is a power of two.

One splitting kernel serves the trotter and phase-shift methods: V(j) is a
change between the eigenbases of H_ini and H_fin with a diagonal phase on
either side (``_SplittingSteps``).  Trotter takes both eigenbases from
``eigh``; the phase-shift method is the same step in the full space with
H_ini's eigenbasis given in closed form as W^(x)k, so PS_ini and PS_fin are
its two phase vectors.  Midpoint steps are the only other step kind
(``_MidpointSteps``).  ``midpoint_propagator`` and ``trotter_product``
multiply full-space exponentials from ``linalg.unitary_exp``, written from the
formulas above, and stay independent references for that kernel.

Evolving a state (``evolve_trace``, ``final_overlap_sq``) with midpoint or
trotter runs in the dynamical subspace: the smallest subspace that contains
the start state and is invariant under H_ini and H_fin
(``aeqs.dynamical_basis``).  For the H_ini = I - |g><g| of the gallery and the
compilers it is often 2-dimensional whatever the full dimension.  Its
invariance is checked to aeqs.SUBSPACE_TOL, and the full space is used when the
check fails, so the reduction cannot silently change a result.  The
phase-shift method runs in the full space.  Each step acts on k
coefficients.  For k <= PAIRWISE_DIM_MAX the steps are built STEP_CHUNK at a
time as k x k matrices and multiplied down pairwise (a tree-ordered
product) in one buffer of 2 * STEP_CHUNK * k^2 complex numbers, allocated
once per stretch of steps between records whatever R is; for larger k,
where a k^3 product costs more than a k^2 step, they are applied to the
state one by one.  The splitting phases are linear in j, so each chunk
takes them by angle addition from two k-vectors of exp and two ratio
tables built once per run, as long as the longest chunk (at most
STEP_CHUNK columns).  The instance is still
densified, so EVOLVE_DIM_MAX still applies.  A run whose step phases can
exceed STEP_PHASE_MAX radians raises EvolveError, since rounding leaves such
phases no significant digit.  Final and recorded overlaps are weights on the
whole ground eigenspace, which is well defined when it is degenerate.  When
H_ini is a ProjectorComplement, they and the recorded ground energies are
read off the block split of H(s) (``aeqs.BlockSplit``), built once per run
from the same subspace, for all three methods.  This is exact for the
full-space phase-shift state too, since the split keeps the eigenvectors of
every line of Q^perp that can be ground.  Any other H_ini takes a dense
eigensolve of H(s) per record (``_ground_projection``).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .aeqs import (
    AeqsInstance,
    BlockSplit,
    KroneckerSum,
    ProjectorComplement,
    _compress,
    as_dense,
    dynamical_basis,
    ground_state,
)
from .linalg import (
    DEGENERACY_TOL,
    OPERATOR_DEFECT_TOL,
    CapacityError,
    hadamard_power,
    spectral_norm,
    unitary_exp,
)

EVOLVE_DIM_MAX = 512
STEP_CHUNK = 2**15        # steps built and multiplied at a time
PAIRWISE_DIM_MAX = 6      # largest subspace dimension multiplied down pairwise; above
                          # k = 8 applying trotter steps one by one is faster
BISECT_STEPS = 5          # halvings of the bracket a time search ends with
STEP_PHASE_MAX = 1e9      # rad; largest step phase (T/(R hbar)) ||H|| evolved.  A phase
                          # near 1e9 carries a rounding error of about 1e-7 rad; far
                          # beyond it the step's exponentials have no significant digit


class EvolveError(Exception):
    pass


class NotHadamardDiagonal(EvolveError):
    """H_ini fails the phase-shift precondition."""


@dataclass(frozen=True)
class Schedule:
    """Evolution time T, refinement count R, and hbar (natural units).

    Step coefficients (0-indexed j):
        alpha(j) = (1/hbar)(T/R)(1 - (2j+1)/(2R))
        beta(j)  = (1/hbar)(T/R)((2j+1)/(2R))
        gamma    = (1/hbar)(T/R)(1/(2R))
    T = 0 is allowed for degenerate runs (identity propagation).
    """

    t_total: float
    r_steps: int
    hbar: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.t_total) and self.t_total >= 0):
            raise EvolveError("evolution time must be finite and nonnegative")
        if self.r_steps < 1:
            raise EvolveError("refinement count must be at least 1")
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise EvolveError("hbar must be finite and positive")

    @property
    def gamma(self) -> float:
        return self.t_total / (self.r_steps * self.hbar) / (2 * self.r_steps)

    def alpha(self, j: int) -> float:
        return (2 * self.r_steps - 2 * j - 1) * self.gamma

    def beta(self, j: int) -> float:
        return (2 * j + 1) * self.gamma

    def midpoint_s(self, j: int) -> float:
        return (2 * j + 1) / (2 * self.r_steps)


@dataclass
class TraceRecord:
    j: int
    s: float
    ground_energy: float
    overlap_sq: float
    norm: float


@dataclass
class EvolutionTrace:
    method: str
    records: list = field(default_factory=list)
    final_overlap_sq: float = 0.0
    final_distance: float = 0.0   # l2 distance minimized over global phase
    final_state: np.ndarray = None
    subspace_dim: int = 0         # dimension the state was evolved in

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["j", "s", "ground_energy", "overlap_sq", "norm"])
        for r in self.records:
            writer.writerow([r.j, f"{r.s:.12g}", f"{r.ground_energy:.12g}",
                             f"{r.overlap_sq:.12g}", f"{r.norm:.12g}"])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": 1,
                "method": self.method,
                "records": [
                    {"j": r.j, "s": r.s, "ground_energy": r.ground_energy,
                     "overlap_sq": r.overlap_sq, "norm": r.norm}
                    for r in self.records
                ],
                "final_overlap_sq": self.final_overlap_sq,
                "final_distance": self.final_distance,
            },
            indent=2,
        )


def _evolved_dim(instance: AeqsInstance) -> int:
    if instance.dim > EVOLVE_DIM_MAX:
        raise CapacityError(f"evolution limited to dimension {EVOLVE_DIM_MAX}, got {instance.dim}")
    return instance.dim


def _dense_pair(instance: AeqsInstance):
    _evolved_dim(instance)
    return as_dense(instance.h_ini), as_dense(instance.h_fin)


def _interp(h_ini, h_fin, s: float):
    return (1.0 - s) * h_ini + s * h_fin


def midpoint_propagator(instance: AeqsInstance, schedule: Schedule) -> np.ndarray:
    """Product of the exact midpoint-rule step propagators, j = R-1 .. 0."""
    h_ini, h_fin = _dense_pair(instance)
    u = np.eye(h_ini.shape[0], dtype=complex)
    dt = schedule.t_total / schedule.r_steps / schedule.hbar
    for j in range(schedule.r_steps):
        u = unitary_exp(_interp(h_ini, h_fin, schedule.midpoint_s(j)), dt) @ u
    return u


def trotter_product(instance: AeqsInstance, schedule: Schedule) -> np.ndarray:
    """Product of the step-factored propagators V(j), j = R-1 .. 0."""
    h_ini, h_fin = _dense_pair(instance)
    u = np.eye(h_ini.shape[0], dtype=complex)
    for j in range(schedule.r_steps):
        u = unitary_exp(h_ini, schedule.alpha(j)) @ (unitary_exp(h_fin, schedule.beta(j)) @ u)
    return u


def trotter_error(instance: AeqsInstance, schedule: Schedule) -> float:
    """Spectral-norm gap between the midpoint and step-factored products."""
    return spectral_norm(midpoint_propagator(instance, schedule)
                         - trotter_product(instance, schedule))


def phase_shift_factors(instance: AeqsInstance, schedule: Schedule) -> _SplittingSteps:
    """The splitting steps in the full space, with H_ini = W diag(W H_ini W) W
    for W = W^(x)k; raises NotHadamardDiagonal when that does not hold."""
    dim = _evolved_dim(instance)
    k = dim.bit_length() - 1
    if 2**k != dim:
        raise NotHadamardDiagonal(f"dimension {dim} is not a power of two")
    w = hadamard_power(k)
    ini_values, off = _hadamard_diagonal(instance.h_ini, w)
    if off > OPERATOR_DEFECT_TOL:
        raise NotHadamardDiagonal(f"H_ini is not Hadamard-diagonal: off-diagonal norm {off:.3e}")
    h_fin = as_dense(instance.h_fin)
    fin_values, fin_vectors = np.linalg.eigh((h_fin + h_fin.conj().T) / 2.0)
    return _SplittingSteps(ini_values, w, fin_values, fin_vectors, schedule)


def _hadamard_diagonal(h_ini, w: np.ndarray) -> tuple:
    """(diagonal of W H_ini W, spectral norm of the rest) for the symmetric
    unitary W.

    For H_ini = I - |g><g| that is I - |v><v| with v = W g, diagonal exactly
    when v is a basis vector up to phase.  The rest, the off-diagonal part of
    |v><v|, is read as the norm of its column m, |v_m| ||v - v_m e_m|| for
    the largest entry v_m: never above its spectral norm, and equal to it to
    first order in the weight off v_m.  Any other H_ini is conjugated densely.
    """
    if isinstance(h_ini, ProjectorComplement):
        weights = np.abs(w @ h_ini.vector) ** 2
        m = np.argmax(weights)
        return 1.0 - weights, math.sqrt(weights[m] * np.delete(weights, m).sum())
    conjugated = w @ as_dense(h_ini) @ w
    diagonal = np.diag(conjugated)
    return np.real(diagonal), spectral_norm(conjugated - np.diag(diagonal))


def phase_shift_product(instance: AeqsInstance, schedule: Schedule) -> np.ndarray:
    """Product of the Hadamard-factored steps, applied one by one; equals the
    step-factored product whenever the precondition holds."""
    steps = phase_shift_factors(instance, schedule)
    return steps.basis @ steps.apply(0, schedule.r_steps, steps.basis.conj().T)


class _SplittingSteps:
    """Splitting steps V(j) = exp(-i a_j H_ini) exp(-i b_j H_fin) on
    coefficients in the eigenbasis of H_ini, the columns of ``basis``.

    The eigenvectors are coordinates in the orthonormal columns ``q`` of a
    subspace invariant under both Hamiltonians, or in the full space when
    ``q`` is None.  With M mapping the H_fin eigenbasis to the H_ini one,
    V(j) = D_ini(j) M D_fin(j) M^dagger.

    The phases are linear in j, so the steps of a chunk from j0 on take them
    by angle addition: D_ini(j0 + n) = D_ini(j0) exp(2i n gamma lambda_ini)
    and D_fin(j0 + n) = D_fin(j0) exp(-2i n gamma lambda_fin).  The two
    ratio tables, one column per n, are built once, as long as the longest
    chunk asked for so far; each chunk then evaluates two k-vectors of exp.
    """

    def __init__(self, ini_values, ini_vectors, fin_values, fin_vectors,
                 schedule: Schedule, q=None):
        self.ini_values, self.fin_values = ini_values, fin_values
        self.basis = ini_vectors if q is None else q @ ini_vectors
        self.m = ini_vectors.conj().T @ fin_vectors
        self.schedule = schedule
        self._ratio_ini = self._ratio_fin = np.ones((len(ini_values), 0), dtype=complex)

    def _phases(self, j0: int, j1: int):
        """(D_ini(j0), D_fin(j0), ratio_ini, ratio_fin), the ratio tables
        with one column per step j0 <= j < j1."""
        n = j1 - j0
        r, gamma = self.schedule.r_steps, self.schedule.gamma
        if self._ratio_ini.shape[1] < n:
            angles = 2 * gamma * np.arange(n)
            self._ratio_ini = _unit_phases(self.ini_values, angles)
            self._ratio_fin = _unit_phases(-self.fin_values, angles)
        return (np.exp(-1j * ((2 * r - 2 * j0 - 1) * gamma * self.ini_values)),
                np.exp(-1j * ((2 * j0 + 1) * gamma * self.fin_values)),
                self._ratio_ini[:, :n], self._ratio_fin[:, :n])

    def matrices(self, j0: int, j1: int, out: np.ndarray) -> np.ndarray:
        """Steps j0 .. j1-1 as a k x k x (j1 - j0) stack, computed in
        ``out``, a k^2 x (j1 - j0) array."""
        d_ini, d_fin, ratio_ini, ratio_fin = self._phases(j0, j1)
        k = len(d_ini)
        # V(j0 + n)[i, l] = ratio_ini[i, n] sum_p coupling[i, l, p] ratio_fin[p, n],
        # with D_ini(j0) and D_fin(j0) folded into the k^3 coupling.
        left = d_ini[:, None] * self.m * d_fin
        coupling = left[:, None, :] * self.m.conj()[None, :, :]
        np.matmul(coupling.reshape(k * k, k), ratio_fin, out=out)
        v = out.reshape(k, k, -1)
        v *= ratio_ini[:, None, :]
        return v

    def apply(self, j0: int, j1: int, c: np.ndarray) -> np.ndarray:
        d_ini, d_fin, ratio_ini, ratio_fin = self._phases(j0, j1)
        p_ini, p_fin = d_ini[:, None] * ratio_ini, d_fin[:, None] * ratio_fin
        for a, b in zip(p_ini.T[..., None], p_fin.T[..., None]):
            # (c^dagger M)^dagger is M^dagger c without copying M^dagger.
            c = a * (self.m @ (b * (c.conj().T @ self.m).conj().T))
        return c

    def step(self, j: int, r_steps: int) -> np.ndarray:
        """V(j) as a full-space matrix, for the schedule's R = r_steps."""
        if r_steps != self.schedule.r_steps:
            raise EvolveError(f"steps built for R = {self.schedule.r_steps}, got {r_steps}")
        return self.basis @ self.apply(j, j + 1, self.basis.conj().T)


def _unit_phases(values: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """exp(i values[:, None] angles[None, :]), built in its own storage."""
    table = np.zeros((len(values), len(angles)), dtype=complex)
    np.multiply.outer(values, angles, out=table.imag)
    return np.exp(table, out=table)


class _MidpointSteps:
    """Exact midpoint steps in the reduced space, on coefficients in Q."""

    def __init__(self, h_ini, h_fin, q, schedule: Schedule):
        self.ini, self.fin = _compress(h_ini, q), _compress(h_fin, q)
        self.basis = q
        self.schedule = schedule

    def _eig(self, j0: int, j1: int):
        """Eigenvectors and step phases of H(s_j) for j0 <= j < j1."""
        sch = self.schedule
        s = (2 * np.arange(j0, j1) + 1) / (2 * sch.r_steps)
        values, vectors = np.linalg.eigh(_interp(self.ini[None], self.fin[None], s[:, None, None]))
        return vectors, np.exp(-1j * (sch.t_total / sch.r_steps / sch.hbar) * values)

    def matrices(self, j0: int, j1: int, out: np.ndarray) -> np.ndarray:
        vectors, phases = self._eig(j0, j1)
        k = vectors.shape[1]
        return np.einsum("nim,nm,nlm->iln", vectors, phases, vectors.conj(),
                         out=out.reshape(k, k, -1))

    def apply(self, j0: int, j1: int, c: np.ndarray) -> np.ndarray:
        for j in range(j0, j1):
            vectors, phases = self._eig(j, j + 1)
            c = vectors[0] @ (phases.T * (vectors[0].conj().T @ c))
        return c


def _batched_product(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                     term: np.ndarray) -> np.ndarray:
    """a[:, :, n] @ b[:, :, n] for every n, into ``out``; each term of the
    sum is computed in ``term``, of the same shape.  The batch is the last
    axis, so each term is one vectorized operation over all n; for k x k
    matrices with small k this is several times faster than a stacked
    matmul."""
    np.multiply(a[:, 0, None, :], b[None, 0, :, :], out=out)
    for m in range(1, a.shape[1]):
        out += np.multiply(a[:, m, None, :], b[None, m, :, :], out=term)
    return out


def _ordered_product(steps: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """steps[:, :, n-1] @ ... @ steps[:, :, 0], multiplied down pairwise.

    ``steps`` lies in ``halves[0]``, and each level of the tree writes its
    products and their terms into the other half, so no level allocates.
    Both halves are overwritten.
    """
    k = steps.shape[0]
    target = 1
    while steps.shape[-1] > 1:
        n = steps.shape[-1]
        if n % 2:
            steps[..., n - 2] = steps[..., n - 1] @ steps[..., n - 2]
        h = n // 2
        half = halves[target].reshape(k, k, -1)
        steps = _batched_product(steps[..., 1:2 * h:2], steps[..., 0:2 * h:2],
                                 half[..., :h], half[..., h:2 * h])
        target = 1 - target
    # Copied out of the buffer: a matmul with a strided operand can take
    # another summation route and round differently.
    return np.ascontiguousarray(steps[..., 0])


def _advance(steps, c: np.ndarray, j0: int, j1: int) -> np.ndarray:
    """Apply steps j0 .. j1-1 to the coefficient block c, STEP_CHUNK at a time.

    When c has at most PAIRWISE_DIM_MAX rows, ``steps.matrices(a, b, out)``
    computes steps a .. b-1 in the first half of a buffer allocated once for
    the call, and they are multiplied down pairwise between its two halves;
    otherwise ``steps.apply(a, b, c)`` applies them to c one after another.
    """
    pairwise = len(c) <= PAIRWISE_DIM_MAX
    if pairwise:
        halves = np.empty((2, len(c) ** 2, min(STEP_CHUNK, j1 - j0)), dtype=complex)
    for a in range(j0, j1, STEP_CHUNK):
        b = min(a + STEP_CHUNK, j1)
        c = (_ordered_product(steps.matrices(a, b, halves[0, :, :b - a]), halves) @ c
             if pairwise else steps.apply(a, b, c))
    return c


def _evolution(instance: AeqsInstance, schedule: Schedule, method: str):
    """(steps, start coefficient column, ground) for one run, where
    ground(s, psi) is the lowest eigenvalue of H(s) and the weight of the
    full-space state psi on its whole eigenspace."""
    h_ini, h_fin = _dense_pair(instance)
    if method not in ("midpoint", "trotter", "phase"):
        raise EvolveError(f"unknown method {method!r}; use midpoint | trotter | phase")
    # The largest absolute row sum bounds the spectral norm of each Hamiltonian.
    # Written as a negated <= so that a nan phase (inf * 0) is rejected too.
    norm_bound = max(np.abs(h).sum(axis=1).max() for h in (h_ini, h_fin))
    step_phase = schedule.t_total / (schedule.r_steps * schedule.hbar) * norm_bound
    if not step_phase <= STEP_PHASE_MAX:
        raise EvolveError(
            f"step phase bound (T/(R hbar)) max ||H|| = {step_phase:.3e} rad exceeds "
            f"STEP_PHASE_MAX = {STEP_PHASE_MAX:.0e}; increase R"
        )
    # A Kronecker sum starts from the ground state of the dense matrix it
    # evolves, not its factors' product state, so the run does not depend on
    # whether H_ini is stored factored or dense.
    start = h_ini if isinstance(instance.h_ini, KroneckerSum) else instance.h_ini
    _, psi, unique = ground_state(start)
    if not unique:
        raise EvolveError("H_ini has a degenerate ground state; evolution start undefined")
    psi = psi.astype(complex)
    split = isinstance(instance.h_ini, ProjectorComplement)
    if method != "phase" or split:
        q = dynamical_basis(h_ini, h_fin, psi)
    if split:
        ground = BlockSplit(h_ini, h_fin, q, vectors=True).ground_projection
    else:
        def ground(s, psi):
            return _ground_projection(_interp(h_ini, h_fin, s), psi)
    if method == "phase":
        steps = phase_shift_factors(instance, schedule)
    elif method == "trotter":
        ini_values, ini_vectors = np.linalg.eigh(_compress(h_ini, q))
        fin_values, fin_vectors = np.linalg.eigh(_compress(h_fin, q))
        steps = _SplittingSteps(ini_values, ini_vectors, fin_values, fin_vectors, schedule, q)
    else:
        steps = _MidpointSteps(h_ini, h_fin, q, schedule)
    # (psi^* B)^* is B^dagger psi without copying B^dagger.
    return steps, (psi.conj() @ steps.basis).conj()[:, None], ground


def _ground_projection(h: np.ndarray, psi: np.ndarray) -> tuple:
    """(lowest eigenvalue of h, weight of psi on its whole eigenspace).

    Eigenvalues within DEGENERACY_TOL of the lowest count as ground, so a
    degenerate ground space yields the weight on all of it rather than on
    one arbitrary vector in it.
    """
    values, vectors = np.linalg.eigh(h)
    ground = vectors[:, values <= values[0] + DEGENERACY_TOL]
    return float(values[0]), float(np.sum(np.abs(ground.conj().T @ psi) ** 2))


def evolve_trace(instance: AeqsInstance, schedule: Schedule, method: str = "trotter",
                 record_every: int = 1) -> EvolutionTrace:
    """Propagate the ground state of H_ini and track the instantaneous ground
    space of H(s) every ``record_every`` steps and after the last one.

    Requires a unique H_ini ground state.  The final values are the squared
    weight on the ground space of H_fin and the l2 distance to that space's
    nearest unit vector (for a unique ground state: the distance to it
    minimized over a global phase).
    """
    if record_every < 1:
        raise EvolveError("record_every must be at least 1")
    steps, c, ground = _evolution(instance, schedule, method)
    r = schedule.r_steps
    trace = EvolutionTrace(method=method, subspace_dim=steps.basis.shape[1])
    done = 0
    for end in [*range(record_every, r, record_every), r]:
        c = _advance(steps, c, done, end)
        done = end
        psi = (steps.basis @ c)[:, 0]
        energy, overlap_sq = ground(end / r, psi)
        trace.records.append(TraceRecord(j=end - 1, s=end / r, ground_energy=energy,
                                         overlap_sq=overlap_sq,
                                         norm=float(np.linalg.norm(psi))))
    # The last record is at s = 1, where H(s) is exactly H_fin.
    trace.final_overlap_sq = trace.records[-1].overlap_sq
    trace.final_distance = math.sqrt(max(0.0, 2.0 * (1.0 - math.sqrt(trace.final_overlap_sq))))
    trace.final_state = psi
    return trace


def final_overlap_sq(instance: AeqsInstance, schedule: Schedule, method: str = "trotter") -> float:
    """Squared weight of the evolved state on the ground space of H_fin,
    without per-step records."""
    steps, c, ground = _evolution(instance, schedule, method)
    c = _advance(steps, c, 0, schedule.r_steps)
    return ground(1.0, (steps.basis @ c)[:, 0])[1]


def default_r_policy(t: float) -> int:
    """R grows like T^3 with a floor of 64."""
    return max(64, int(math.ceil(max(t, 0.0) ** 3)))


@dataclass
class TimeSearchResult:
    t: float
    overlap_sq: float
    converged: bool
    evaluations: list = field(default_factory=list)   # (T, overlap_sq) pairs


def find_sufficient_t(instance: AeqsInstance, target_overlap_sq: float,
                      r_policy=None, method: str = "trotter",
                      t_start: float = 1.0, t_cap: float = 1e4) -> TimeSearchResult:
    """Doubling-then-bisection search for an evolution time reaching the
    target final overlap.

    The search is deterministic, so a larger target can never return a
    smaller time.  If the cap is exceeded the result carries the best
    overlap found and converged=False instead of failing silently.
    """
    if not 0.0 < target_overlap_sq < 1.0:
        raise EvolveError("target overlap must lie strictly between 0 and 1")
    r_policy = r_policy or default_r_policy
    evaluations = []

    def success(t: float):
        overlap = final_overlap_sq(instance, Schedule(t, r_policy(t)), method)
        evaluations.append((t, overlap))
        return overlap >= target_overlap_sq, overlap

    t = t_start
    ok, overlap = success(t)
    if ok:
        return TimeSearchResult(t, overlap, True, evaluations)
    while t < t_cap:
        t_next = min(2 * t, t_cap)
        ok, overlap = success(t_next)
        if ok:
            lo, hi, hi_overlap = t, t_next, overlap
            for _ in range(BISECT_STEPS):
                mid = (lo + hi) / 2
                ok_mid, overlap_mid = success(mid)
                if ok_mid:
                    hi, hi_overlap = mid, overlap_mid
                else:
                    lo = mid
            return TimeSearchResult(hi, hi_overlap, True, evaluations)
        t = t_next
        if t >= t_cap:
            break
    best = max(evaluations, key=lambda pair: pair[1])
    return TimeSearchResult(best[0], best[1], False, evaluations)
