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
its two phase vectors.  When H_fin is a ProjectorComplement I - |f><f|
and the dimension is above PAIRWISE_DIM_MAX, the H_fin factor in H_ini's
eigenbasis is rank-one, e_j I + (1 - e_j) |f'><f'| with e_j = exp(-i b_j)
and f' = W^dagger f formed once, so a step
c <- D_ini(j) (e_j c + (1 - e_j) f' (f'^dagger c)) costs O(dim), with no
H_fin eigenbasis, no dim x dim coupling and no transform
(``_RankOneSteps``).  Otherwise the H_fin eigenbasis is in closed form for
a ProjectorComplement (f, then Householder images of basis vectors:
``aeqs._projector_eigenpairs``, shared with ``aeqs.lowest_pairs``), and
from a full-space ``eigh`` for any other H_fin; ``aeqs._eigenbasis``
chooses by the stored operator's type.  Midpoint steps are the only other
step kind (``_MidpointSteps``).  ``midpoint_propagator``
and ``trotter_product`` multiply full-space exponentials from
``linalg.unitary_exp``, written from the formulas above, and stay independent
references for that kernel.

Evolving a state (``evolve_trace``, ``final_overlap_sq``) with midpoint or
trotter runs in the dynamical subspace: the smallest subspace that contains
the start state and is invariant under H_ini and H_fin.  For a pair
I - |g><g|, I - |f><f| (the measure-once gallery entries and every compiled
instance) it is span{g, f}, built in closed form by the block split, so
such a run builds no dim x dim matrix and has no dimension cap.  For any
other pair it is found by Krylov iteration on the densified Hamiltonians
(``aeqs.dynamical_basis``), up to EVOLVE_DIM_MAX; its invariance is checked
to linalg.SUBSPACE_TOL, and the full space is used when the check fails, so
the reduction cannot silently change a result.  The phase-shift method
runs in the full space and builds W, so it keeps EVOLVE_DIM_MAX.  Each
step acts on k coefficients, and ``_advance`` chooses its route by the
step kind and k.
Splitting steps on k = 2 coefficients (trotter, and the phase-shift method
at dim 2) shift both Hamiltonians' spectra to trace zero, so every step is
in SU(2) and is fixed by its first column (alpha_j, beta_j); the steps are
built STEP_CHUNK at a time as these pairs, from the couplings of all the
chunk starts of a stretch formed in one vectorized call, and multiplied
down pairwise (a tree-ordered product) by the Cayley-Klein rule in one
buffer of 2 * 2 * STEP_CHUNK complex numbers.  A chunk's tree stops at
PARTIAL_KEEP partial products, where its levels would cost more in numpy
calls than in arithmetic; the partial products queue, in step order, in a
buffer of 2 * PARTIAL_QUEUE, which is multiplied down to one product and
applied before a chunk that could overflow it and at the end of the
stretch.  A stretch of one chunk thus takes one whole tree.  The global
phase of the shift is restored once per stretch, in closed form.  Other
steps with k <= PAIRWISE_DIM_MAX (midpoint steps at every such k) are
built as k x k matrices and multiplied down the same way, chunk by chunk,
in a buffer of 2 * STEP_CHUNK * k^2.  The buffers are allocated once per
stretch of steps between records whatever R is.  For larger k, where a k^3
product costs more than a k^2 step, the steps are applied to the state one
by one, in chunks whose tables hold at most TABLE_ENTRIES_MAX entries, and
each step forms its phases from its own table column, so no second table
is held.
The splitting phases are linear in j, so each chunk takes them by angle
addition: from two k-vectors of exp at its first step, and from tables of
exp(i v 2 gamma n) with one column per step n of the chunk, built once per
run as long as the longest chunk.  A table is itself built by angle
addition: with m = ceil(sqrt(n)) columns, column p m + q is the product of
the exps at p m and at q, so a row of n columns takes 2 sqrt(n) exps.  The
general route keeps one table for each spectrum, of k rows.  An SU(2) step's
first column needs one table of two rows, at the frequencies d_ini - d_fin
and d_ini + d_fin of the shifted spectra (-d_ini, d_ini) and (-d_fin, d_fin),
and a chunk's pairs are one 2 x 2 by 2 x n product with it.  A run whose
step phases can exceed STEP_PHASE_MAX radians raises EvolveError, since
rounding leaves such phases no significant digit; the norm bound it uses
is 1 for a ProjectorComplement and the largest absolute row sum of any
other Hamiltonian's matrix.  Final and recorded overlaps are weights on the
whole ground eigenspace, which is well defined when it is degenerate.  They
and the recorded ground energies are read off the block split of H(s)
(``aeqs.BlockSplit``), built once per run, for all three methods: on the
dynamical subspace of H_ini's ground state when H_ini is a
ProjectorComplement, else on the whole space.  This is exact for the
full-space phase-shift state too, since the split keeps the eigenvectors of
every line of Q^perp that can be ground.
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
    KroneckerSum,
    ProjectorComplement,
    _block_split,
    _compress,
    _eigenbasis,
    as_dense,
    dynamical_basis,
    ground_state,
)
from .linalg import (
    EVOLVE_DIM_MAX,
    OPERATOR_DEFECT_TOL,
    capacity,
    hadamard_power,
    integer,
    real,
    spectral_norm,
    unitary_exp,
)

STEP_CHUNK = 2**15        # steps built and multiplied at a time
PARTIAL_KEEP = 2**9       # partial products an SU(2) chunk's tree stops at: its narrower
                          # levels cost more in numpy calls than in arithmetic
PARTIAL_QUEUE = 2**12     # partial products queued before they are multiplied down and
                          # applied; at most PARTIAL_KEEP <= PARTIAL_QUEUE per chunk
TABLE_ENTRIES_MAX = 2**20 # most complex entries of one phase table for steps applied one
                          # by one: a chunk of k coefficients takes at most this / k steps
PAIRWISE_DIM_MAX = 6      # largest subspace dimension multiplied down pairwise; above
                          # k = 8 applying trotter steps one by one is faster
BISECT_STEPS = 5          # halvings of the bracket a time search ends with
STEP_BUDGET = 2**25       # most steps R one time-search evaluation may take: 16 times the
                          # pinned l_prefix search's largest R (2^21 at T = 128)
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
        real(self.t_total, "evolution time T", EvolveError, open_high=True)
        integer(self.r_steps, "refinement count R", EvolveError, low=1)
        real(self.hbar, "hbar", EvolveError, open_low=True, open_high=True)

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


def _interp(h_ini, h_fin, s: float):
    return (1.0 - s) * h_ini + s * h_fin


def midpoint_propagator(instance: AeqsInstance, schedule: Schedule) -> np.ndarray:
    """Product of the exact midpoint-rule step propagators, j = R-1 .. 0."""
    capacity(instance.dim, EVOLVE_DIM_MAX, "EVOLVE_DIM_MAX", "dimension")
    h_ini, h_fin = as_dense(instance.h_ini), as_dense(instance.h_fin)
    u = np.eye(h_ini.shape[0], dtype=complex)
    dt = schedule.t_total / schedule.r_steps / schedule.hbar
    for j in range(schedule.r_steps):
        u = unitary_exp(_interp(h_ini, h_fin, schedule.midpoint_s(j)), dt) @ u
    return u


def trotter_product(instance: AeqsInstance, schedule: Schedule) -> np.ndarray:
    """Product of the step-factored propagators V(j), j = R-1 .. 0."""
    capacity(instance.dim, EVOLVE_DIM_MAX, "EVOLVE_DIM_MAX", "dimension")
    h_ini, h_fin = as_dense(instance.h_ini), as_dense(instance.h_fin)
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
    for W = W^(x)k; raises NotHadamardDiagonal when that does not hold.

    Above PAIRWISE_DIM_MAX, where ``_advance`` applies the steps one by one,
    an H_fin stored as a ProjectorComplement takes the rank-one steps
    (``_RankOneSteps``), with no eigenbasis of H_fin.  Every other H_fin, and
    every H_fin at dims up to PAIRWISE_DIM_MAX, whose steps are built as
    matrices, takes its eigenbasis from ``aeqs._eigenbasis``: in closed form
    for a ProjectorComplement, from eigh otherwise."""
    dim = capacity(instance.dim, EVOLVE_DIM_MAX, "EVOLVE_DIM_MAX", "dimension")
    k = dim.bit_length() - 1
    if 2**k != dim:
        raise NotHadamardDiagonal(f"dimension {dim} is not a power of two")
    w = hadamard_power(k)
    ini_values, off = _hadamard_diagonal(instance.h_ini, w)
    if off > OPERATOR_DEFECT_TOL:
        raise NotHadamardDiagonal(f"H_ini is not Hadamard-diagonal: off-diagonal norm {off:.3e}")
    if isinstance(instance.h_fin, ProjectorComplement) and dim > PAIRWISE_DIM_MAX:
        return _RankOneSteps(ini_values, w, instance.h_fin.vector, schedule)
    return _SplittingSteps(ini_values, w, *_eigenbasis(instance.h_fin), schedule)


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
    step-factored product whenever the precondition holds.  The steps go in
    chunks of TABLE_ENTRIES_MAX / dim, so that no dim x chunk phase table
    outgrows TABLE_ENTRIES_MAX whatever R is."""
    steps = phase_shift_factors(instance, schedule)
    r, chunk = schedule.r_steps, max(1, TABLE_ENTRIES_MAX // instance.dim)
    u = steps.basis.conj().T
    for a in range(0, r, chunk):
        u = steps.apply(a, min(a + chunk, r), u)
    return steps.basis @ u


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
    ratio tables, one column per n (``_unit_phases``), are built once, as
    long as the longest chunk asked for so far; each chunk then evaluates
    two k-vectors of exp.  ``matrices`` and ``apply`` take them.

    For k = 2 both spectra are shifted to trace zero, (-d_ini, d_ini) and
    (-d_fin, d_fin), which puts every step in SU(2).  ``means`` keeps the
    two shifts; ``apply`` restores their phase, and ``_advance`` restores it
    once per stretch.  ``pairs`` gives the steps' first columns from one
    table of two rows, P_n = exp(2i gamma n (d_ini - d_fin)) and
    Q_n = exp(2i gamma n (d_ini + d_fin)), also built once per run.
    """

    def __init__(self, ini_values, ini_vectors, fin_values, fin_vectors,
                 schedule: Schedule, q=None):
        self.means = None
        if len(ini_values) == 2:
            self.means = (ini_values.mean(), fin_values.mean())
            ini_values, fin_values = (np.array([-1.0, 1.0]) * (v[1] - v[0]) / 2.0
                                      for v in (ini_values, fin_values))
        self.ini_values, self.fin_values = ini_values, fin_values
        self.basis = ini_vectors if q is None else q @ ini_vectors
        self.m = ini_vectors.conj().T @ fin_vectors
        self.schedule = schedule
        self._ratio_ini = self._ratio_fin = np.ones((len(ini_values), 0), dtype=complex)
        self._pair_table = np.ones((2, 0), dtype=complex)

    def _start_phases(self, starts):
        """(D_ini(j0), D_fin(j0)) for each start j0 in ``starts``, one row
        per start; each angle's factor is an exact integer times gamma."""
        r, gamma = self.schedule.r_steps, self.schedule.gamma
        a = np.array([(2 * r - 2 * j0 - 1) * gamma for j0 in starts])[:, None]
        b = np.array([(2 * j0 + 1) * gamma for j0 in starts])[:, None]
        return np.exp(-1j * (a * self.ini_values)), np.exp(-1j * (b * self.fin_values))

    def _ratios(self, n: int):
        """(ratio_ini, ratio_fin), the ratio tables with one column per step
        of a chunk of n."""
        if self._ratio_ini.shape[1] < n:
            angles = 2 * self.schedule.gamma * np.arange(n)
            self._ratio_ini = _unit_phases(self.ini_values, angles)
            self._ratio_fin = _unit_phases(-self.fin_values, angles)
        return self._ratio_ini[:, :n], self._ratio_fin[:, :n]

    def _phases(self, j0: int, j1: int):
        """(D_ini(j0), D_fin(j0), ratio_ini, ratio_fin), the ratio tables
        with one column per step j0 <= j < j1."""
        d_ini, d_fin = self._start_phases([j0])
        return (d_ini[0], d_fin[0], *self._ratios(j1 - j0))

    def _coupling(self, starts) -> np.ndarray:
        """coupling[s, i, l, p] = d_ini[i] M[i, p] d_fin[p] M[l, p]^* for
        the start phases d_ini = D_ini(j0) and d_fin = D_fin(j0) of each
        start j0 = starts[s], so that
        V(j0 + n)[i, l] = ratio_ini[i, n] sum_p coupling[s, i, l, p] ratio_fin[p, n].
        Each start's entries take the same operations whatever the others."""
        d_ini, d_fin = self._start_phases(starts)
        return (d_ini[:, :, None] * self.m * d_fin[:, None, :])[:, :, None, :] * self.m.conj()

    def matrices(self, j0: int, j1: int, out: np.ndarray) -> np.ndarray:
        """Steps j0 .. j1-1 as a k x k x (j1 - j0) stack, computed in
        ``out``, a k^2 x (j1 - j0) array."""
        ratio_ini, ratio_fin = self._ratios(j1 - j0)
        k = len(ratio_ini)
        np.matmul(self._coupling([j0])[0].reshape(k * k, k), ratio_fin, out=out)
        v = out.reshape(k, k, -1)
        v *= ratio_ini[:, None, :]
        return v

    def pair_couplings(self, starts) -> np.ndarray:
        """For each start j0 in ``starts``, the 2 x 2 factor
        [[K00^*, K01^*], [K11, K10]] of ``pairs`` with K = coupling[:, 0, :]
        (``_coupling``), stacked along a first axis."""
        k = self._coupling(starts)[:, :, None, 0, :]
        return np.concatenate([k[:, 0].conj(), k[:, 1, :, ::-1]], axis=1)

    def pairs(self, coupling: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The first columns (alpha_j, beta_j) of the SU(2) steps
        j0 .. j0 + n - 1, computed in ``out``, a 2 x n array, from
        ``coupling``, the factor ``pair_couplings`` gives for j0.

        With K = coupling[:, 0, :] (``_coupling``) and the table rows P_n, Q_n,
        alpha_n = (K00^* P_n + K01^* Q_n)^* and beta_n = K11 P_n + K10 Q_n.
        """
        n = out.shape[1]
        if self._pair_table.shape[1] < n:
            d_ini, d_fin = self.ini_values[1], self.fin_values[1]
            self._pair_table = _unit_phases(np.array([d_ini - d_fin, d_ini + d_fin]),
                                            2 * self.schedule.gamma * np.arange(n))
        np.matmul(coupling, self._pair_table[:, :n], out=out)
        np.conjugate(out[0], out=out[0])
        return out

    def apply(self, j0: int, j1: int, c: np.ndarray) -> np.ndarray:
        d_ini, d_fin, ratio_ini, ratio_fin = self._phases(j0, j1)
        for r_ini, r_fin in zip(ratio_ini.T, ratio_fin.T):
            # A step's phases are formed from its table column alone, so no
            # second k x n table is held.  (c^dagger M)^dagger is M^dagger c
            # without copying M^dagger.
            a, b = (d_ini * r_ini)[:, None], (d_fin * r_fin)[:, None]
            c = a * (self.m @ (b * (c.conj().T @ self.m).conj().T))
        return c if self.means is None else _shift_phase(self, j0, j1) * c

    def step(self, j: int, r_steps: int) -> np.ndarray:
        """V(j) as a full-space matrix, for the schedule's R = r_steps."""
        if r_steps != self.schedule.r_steps:
            raise EvolveError(f"steps built for R = {self.schedule.r_steps}, got {r_steps}")
        return self.basis @ self.apply(j, j + 1, self.basis.conj().T)


class _RankOneSteps(_SplittingSteps):
    """Splitting steps for H_fin = I - |f><f| in the full space, on
    coefficients in the eigenbasis W of H_ini, applied one by one.

    H_fin has the two eigenvalues (0, 1), so its phase in step j is
    e_j = exp(-i b_j) on all but the line of f, and
    M D_fin(j) M^dagger = e_j I + (1 - e_j) |f'><f'| with f' = W^dagger f
    formed once.  A step c <- D_ini(j) (e_j c + (1 - e_j) f' (f'^dagger c))
    costs O(dim) per column, with no M and no transform.  ``_phases`` keeps
    two rows on the H_fin side; the first, for eigenvalue 0, is exactly 1.
    ``m`` is M's column for that eigenvalue, f' itself.
    """

    # The steps are never built as matrices: ``phase_shift_factors`` takes
    # this class only above PAIRWISE_DIM_MAX.
    matrices = None

    def __init__(self, ini_values, ini_vectors, f, schedule: Schedule):
        super().__init__(ini_values, ini_vectors, np.array([0.0, 1.0]), f[:, None], schedule)
        self.m_dagger = self.m.conj().T

    def apply(self, j0: int, j1: int, c: np.ndarray) -> np.ndarray:
        d_ini, d_fin, ratio_ini, ratio_fin = self._phases(j0, j1)
        for n, (r_ini, e) in enumerate(zip(ratio_ini.T, d_fin[1] * ratio_fin[1])):
            # c <- a (e c + f' t) for the row t = (1 - e) f'^dagger c.  The
            # first step allocates c, as numpy lays the expression out (the
            # layout fixes the summation order of f'^dagger c), and the
            # others update it in place, each product in the same operand
            # order, so the bits are the expression's at every step.
            a, t = (d_ini * r_ini)[:, None], (1 - e) * self.m_dagger.dot(c)
            if n == 0:
                c = a * (e * c + self.m * t)
                continue
            np.multiply(e, c, out=c)
            c += self.m * t
            np.multiply(a, c, out=c)
        return c


def _unit_phases(values: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """exp(i values[:, None] angles[None, :]) for angles = a * arange(n),
    n >= 1, by angle addition: with m = ceil(sqrt(n)), column p m + q is
    exp(i values angles[p m]) exp(i values angles[q]), so a row takes
    2 sqrt(n) exps, not n."""
    m = math.isqrt(len(angles) - 1) + 1
    coarse = np.exp(1j * np.multiply.outer(values, angles[::m]))
    fine = np.exp(1j * np.multiply.outer(values, angles[:m]))
    table = np.multiply(coarse[:, :, None], fine[:, None, :])
    return table.reshape(len(values), -1)[:, :len(angles)]


class _MidpointSteps:
    """Exact midpoint steps in the reduced space, on coefficients in Q, from
    the compressions ``ini`` and ``fin`` of the two Hamiltonians to Q."""

    def __init__(self, ini, fin, q, schedule: Schedule):
        self.ini, self.fin = ini, fin
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


def _cayley_klein_product(pairs: np.ndarray, halves: np.ndarray, keep: int) -> np.ndarray:
    """SU(2) steps U[j] = [[alpha_j, -beta_j^*], [beta_j, alpha_j^*]], given
    as the columns (alpha_j, beta_j) of ``pairs``, a 2 x n array, multiplied
    down pairwise until at most ``keep`` columns are left: the first columns
    of the products of consecutive runs of steps, in step order.  keep = 1
    gives the first column of U[n-1] ... U[0].

    The first column of U1 U0 is (a1 a0 - b1^* b0, b1 a0 + a1^* b0).  Each
    level of the tree writes its products and their terms into the half of
    ``halves`` it did not read, starting with ``halves[1]``, so no level
    allocates; ``pairs`` lies in ``halves[0]`` or in a buffer of its own.
    Both halves, and ``pairs``, are overwritten.
    """
    target = 1
    while pairs.shape[-1] > keep:
        n = pairs.shape[-1]
        if n % 2:
            (a1, b1), (a0, b0) = pairs[:, n - 1], pairs[:, n - 2]
            pairs[:, n - 2] = a1 * a0 - b1.conjugate() * b0, b1 * a0 + a1.conjugate() * b0
        h = n // 2
        late, early = pairs[:, 1:2 * h:2], pairs[:, 0:2 * h:2]
        pairs, term = halves[target, :, :h], halves[target, :, h:2 * h]
        np.multiply(late, early[0], out=pairs)
        np.conjugate(late[::-1], out=term)
        term *= early[1]
        pairs[0] -= term[0]
        pairs[1] += term[1]
        target = 1 - target
    return pairs


def _shift_phase(steps, j0: int, j1: int) -> complex:
    """The global phase that shifting both Hamiltonians to trace zero takes
    out of steps j0 .. j1-1: exp(-i sum_j (a_j m_ini + b_j m_fin)) for the
    means ``steps.means``, where a_j and b_j sum to
    gamma (2 R n - (j1^2 - j0^2)) and gamma (j1^2 - j0^2), n = j1 - j0, in
    exact integers."""
    sch = steps.schedule
    squares = j1 * j1 - j0 * j0
    m_ini, m_fin = steps.means
    return np.exp(-1j * sch.gamma * ((2 * sch.r_steps * (j1 - j0) - squares) * m_ini
                                     + squares * m_fin))


def _advance(steps, c: np.ndarray, j0: int, j1: int) -> np.ndarray:
    """Apply steps j0 .. j1-1 to the coefficient block c, STEP_CHUNK at a time.

    Splitting steps on k = 2 coefficients carry ``means``: then the
    couplings of all chunk starts come from one ``steps.pair_couplings``
    call, ``steps.pairs(coupling, out)`` computes the first columns of a
    chunk's SU(2) steps in the first half of a 2 x 2 x STEP_CHUNK buffer,
    and they are multiplied down pairwise by the Cayley-Klein rule
    (``_cayley_klein_product``) to at most PARTIAL_KEEP partial products.
    These queue, in step order, in a buffer of PARTIAL_QUEUE columns; the
    queue is multiplied down in the same halves and applied to c before a
    chunk that could overflow it and after the last chunk, and the phase
    the SU(2) shift took out is put back once (``_shift_phase``).  A stretch
    of one chunk takes one tree, as if it had no queue.  Other steps on at
    most PAIRWISE_DIM_MAX coefficients are computed whole by
    ``steps.matrices``, in a 2 x k^2 x STEP_CHUNK buffer, and multiplied
    down as matrices; above it ``steps.apply(a, b, c)`` applies them to c
    one after another, at most TABLE_ENTRIES_MAX / k at a time, so that no
    k x (b - a) phase table outgrows TABLE_ENTRIES_MAX.
    """
    k = len(c)
    if k > PAIRWISE_DIM_MAX:
        chunk = min(STEP_CHUNK, TABLE_ENTRIES_MAX // k)
        for a in range(j0, j1, chunk):
            c = steps.apply(a, min(a + chunk, j1), c)
        return c
    if getattr(steps, "means", None) is None:
        halves = np.empty((2, k * k, min(STEP_CHUNK, j1 - j0)), dtype=complex)
        for a in range(j0, j1, STEP_CHUNK):
            b = min(a + STEP_CHUNK, j1)
            c = _ordered_product(steps.matrices(a, b, halves[0, :, :b - a]), halves) @ c
        return c

    def flush(c, queued):
        alpha, beta = _cayley_klein_product(queue[:, :queued], halves, 1)[:, 0]
        return np.array([[alpha, -beta.conjugate()], [beta, alpha.conjugate()]]) @ c

    # The halves hold a chunk's steps or the whole queue's first level.
    halves = np.empty((2, 2, min(max(STEP_CHUNK, PARTIAL_QUEUE), j1 - j0)), dtype=complex)
    queue, queued = np.empty((2, min(PARTIAL_QUEUE, j1 - j0)), dtype=complex), 0
    starts = range(j0, j1, STEP_CHUNK)
    for a, coupling in zip(starts, steps.pair_couplings(starts)):
        b = min(a + STEP_CHUNK, j1)
        if queued + min(b - a, PARTIAL_KEEP) > PARTIAL_QUEUE:
            c, queued = flush(c, queued), 0
        partial = _cayley_klein_product(steps.pairs(coupling, halves[0, :, :b - a]), halves,
                                        PARTIAL_KEEP)
        queue[:, queued:queued + partial.shape[1]] = partial
        queued += partial.shape[1]
    return _shift_phase(steps, j0, j1) * flush(c, queued)


def _evolution(instance: AeqsInstance, schedule: Schedule, method: str):
    """(steps, start coefficient column, ground) for one run, where
    ground(s, psi) is the lowest eigenvalue of H(s) and the weight of the
    full-space state psi on its whole eigenspace."""
    if method not in ("midpoint", "trotter", "phase"):
        raise EvolveError(f"unknown method {method!r}; use midpoint | trotter | phase")
    split = _block_split(instance, vectors=True)
    h_ini, h_fin = split.dense or (instance.h_ini, instance.h_fin)
    # I - |v><v| has norm 1; the largest absolute row sum of any other
    # Hamiltonian, densified by its split, bounds its spectral norm.  Written
    # as a negated <= so that a nan phase (inf * 0) is rejected too.
    norm_bound = max(1.0 if isinstance(h, ProjectorComplement) else np.abs(m).sum(axis=1).max()
                     for h, m in ((instance.h_ini, h_ini), (instance.h_fin, h_fin)))
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
    if method == "phase":
        steps = phase_shift_factors(instance, schedule)
    else:
        if split.q is None:
            q = dynamical_basis(h_ini, h_fin, psi)
            ini, fin = _compress(h_ini, q), _compress(h_fin, q)
        else:
            # A split on a subspace has H_ini = I - |g><g| and a Q that
            # contains g, which is psi, and is invariant under both.
            q, ini, fin = split.q, split.ini, split.fin
        if method == "trotter":
            ini_values, ini_vectors = np.linalg.eigh(ini)
            fin_values, fin_vectors = np.linalg.eigh(fin)
            steps = _SplittingSteps(ini_values, ini_vectors, fin_values, fin_vectors, schedule, q)
        else:
            steps = _MidpointSteps(ini, fin, q, schedule)
    # (psi^* B)^* is B^dagger psi without copying B^dagger.
    return steps, (psi.conj() @ steps.basis).conj()[:, None], split.ground_projection


def evolve_trace(instance: AeqsInstance, schedule: Schedule, method: str = "trotter",
                 record_every: int = 1) -> EvolutionTrace:
    """Propagate the ground state of H_ini and track the instantaneous ground
    space of H(s) every ``record_every`` steps and after the last one.

    Requires a unique H_ini ground state.  The final values are the squared
    weight on the ground space of H_fin and the l2 distance to that space's
    nearest unit vector (for a unique ground state: the distance to it
    minimized over a global phase).
    """
    integer(record_every, "record_every", EvolveError, low=1)
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
    """R grows like T^3 with a floor of 64; T is capped at STEP_BUDGET, so no cube overflows."""
    return max(64, int(math.ceil(min(max(t, 0.0), STEP_BUDGET) ** 3)))


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
    smaller time.  If the cap is exceeded, or an evaluation would take more
    than STEP_BUDGET steps (it is then not run), the result carries the best
    overlap found and converged=False instead of failing silently; with no
    evaluation run, that is overlap 0 at t_start.  ``r_policy`` is called
    once per evaluation, skipped ones included.  ``t_start`` must be finite
    and positive, or the doubling would never leave it, and ``t_cap``
    positive (it may be inf).
    """
    real(target_overlap_sq, "target overlap", EvolveError, 0.0, 1.0, open_low=True, open_high=True)
    real(t_start, "t_start", EvolveError, open_low=True, open_high=True)
    real(t_cap, "t_cap", EvolveError, open_low=True)
    r_policy = r_policy or default_r_policy
    evaluations = []

    def success(t: float):
        """(target reached, overlap), or None past the step budget."""
        r_steps = r_policy(t)
        if r_steps > STEP_BUDGET:
            return None
        overlap = final_overlap_sq(instance, Schedule(t, r_steps), method)
        evaluations.append((t, overlap))
        return overlap >= target_overlap_sq, overlap

    t = t_start
    outcome = success(t)
    if outcome is not None and outcome[0]:
        return TimeSearchResult(t, outcome[1], True, evaluations)
    while outcome is not None and t < t_cap:
        t_next = min(2 * t, t_cap)
        outcome = success(t_next)
        if outcome is not None and outcome[0]:
            lo, hi, hi_overlap = t, t_next, outcome[1]
            for _ in range(BISECT_STEPS):
                mid = (lo + hi) / 2
                mid_outcome = success(mid)
                if mid_outcome is None:
                    break
                if mid_outcome[0]:
                    hi, hi_overlap = mid, mid_outcome[1]
                else:
                    lo = mid
            return TimeSearchResult(hi, hi_overlap, True, evaluations)
        t = t_next
    best = max(evaluations, key=lambda pair: pair[1], default=(t_start, 0.0))
    return TimeSearchResult(best[0], best[1], False, evaluations)
