"""Compile quantum finite automata into AEQS families.

Two source models:

- measure-once one-way automata (one unitary per symbol, projective readout
  at the end): compiled onto a constant-size evolution space padded to a
  power of two;
- one-way automata with a rigid garbage tape (every step writes exactly one
  non-blank garbage symbol), whose per-symbol operators are isometries from
  the current configuration grade into the next; the configuration space is
  the automaton's states times the garbage-content set.

In both cases the compiled final Hamiltonian is the conjugated initial
mixture I - |psi_x><psi_x| with psi_x the automaton's final superposition,
so the ground energy is 0, the spectral gap is 1, and the ground state's
overlaps with the acceptance/rejection spaces reproduce the automaton's
outcome probabilities exactly.  Direct simulators are provided as oracles
for both models.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .aeqs import (
    AeqsFamily,
    AeqsInstance,
    DEFAULT_ACCURACY_BOUND,
    ProjectorComplement,
    aeqs_instance,
    criteria_arrays,
    deflation_hamiltonian,
)
from .linalg import (
    GARBAGE_CAPACITY,
    OPERATOR_DEFECT_TOL,
    RUN_NORM_TOL,
    THRESHOLD_SLACK,
    capacity,
    dense_max,
    ilog,
    integer,
    real,
    spectral_norm,
)
from .qqa import CENT, DOLLAR, BasisSchema


class CompileError(Exception):
    pass


def _check_symbols(spec, x: str) -> None:
    """Raise CompileError on the first symbol of x outside spec.alphabet."""
    for sym in x:
        if sym not in spec.alphabet:
            raise CompileError(f"symbol {sym!r} outside the automaton's alphabet")


def decision_threshold(error_bound: float | None) -> float:
    """Accuracy threshold matching an automaton's error bound.

    A member is accepted with probability p >= 1 - e, so the compiled ground
    state has accepting overlap at least sqrt(1 - e) and achieved accuracy
    at least 1 - sqrt(1 - sqrt(1 - e)).  (This is slightly weaker than the
    1 - sqrt(e/2) shape quoted with the construction, which silently bounds
    2(1 - c) by 1 - c^2; the honest threshold keeps verdicts sound.)
    """
    if error_bound is None or error_bound <= 0.0:
        return DEFAULT_ACCURACY_BOUND
    a_min = math.sqrt(1.0 - error_bound)
    return min(DEFAULT_ACCURACY_BOUND, max(0.5, 1.0 - math.sqrt(1.0 - a_min) - THRESHOLD_SLACK))


# ---------------------------------------------------------------------------
# Measure-once one-way automata
# ---------------------------------------------------------------------------

@dataclass
class MoQfaSpec:
    """Unitary per symbol on the inner-state space; projective readout.
    q_acc and q_rej are the accepting and rejecting states as
    ``criteria_arrays`` forms them."""

    n_states: int
    alphabet: tuple
    ops: dict                    # CENT/DOLLAR/char -> ndarray
    q_acc: np.ndarray
    q_rej: np.ndarray
    initial: int = 0
    error_bound: float | None = None
    name: str = "moqfa"

    def __post_init__(self):
        self.q_acc, self.q_rej = criteria_arrays(self.q_acc, self.q_rej)
        if self.error_bound is not None:
            real(self.error_bound, "error_bound", CompileError, 0.0, 1.0)
        needed = {CENT, DOLLAR, *self.alphabet}
        missing = needed - set(self.ops)
        if missing:
            raise CompileError(f"missing operators for {sorted(missing)}")
        for sym, u in self.ops.items():
            u = self.ops[sym] = np.asarray(u, dtype=complex)
            if u.shape != (self.n_states, self.n_states):
                raise CompileError(f"operator {sym!r} has shape {u.shape}")
        stack = np.array(list(self.ops.values()))
        defects = spectral_norm(stack.conj().swapaxes(1, 2) @ stack - np.eye(self.n_states))
        for sym, defect in zip(self.ops, defects):
            if defect > OPERATOR_DEFECT_TOL:
                raise CompileError(f"operator {sym!r} unitarity defect {defect:.3e}")
        integer(self.initial, "initial state", CompileError, 0, self.n_states - 1)

    @property
    def padded_states(self) -> int:
        return 2 ** ilog(max(2, self.n_states))

    def padded_op(self, sym: str) -> np.ndarray:
        u = self.ops[sym]
        pad = self.padded_states
        if pad == self.n_states:
            return u
        out = np.eye(pad, dtype=complex)
        out[: self.n_states, : self.n_states] = u
        return out


def run_moqfa(spec: MoQfaSpec, x: str) -> tuple:
    """(accept probability, reject probability) by direct simulation."""
    _check_symbols(spec, x)
    psi = np.zeros(spec.n_states, dtype=complex)
    psi[spec.initial] = 1.0
    for sym in [CENT, *x, DOLLAR]:
        psi = spec.ops[sym].dot(psi)
    probs = np.abs(psi) ** 2
    return float(probs[spec.q_acc].sum()), float(probs[spec.q_rej].sum())


def from_moqfa(spec: MoQfaSpec) -> AeqsFamily:
    """Compile onto the padded constant-size space.

    H_ini is the Hadamard conjugate of the initial mixture (ground state:
    the Hadamard image of the initial inner state); H_fin is the run-image
    I - |psi_x><psi_x| of the same mixture, giving ground energy 0 and gap 1
    on every input.  Padding states act as identity, carry initial-mixture
    weight 1, and join neither criteria set.  Everything but psi_x depends
    on the spec alone and is built once per family.
    """
    pad = spec.padded_states
    schema = BasisSchema([("state", tuple(range(pad)))])
    threshold = decision_threshold(spec.error_bound)
    ops = {sym: spec.padded_op(sym) for sym in spec.ops}
    h_ini = deflation_hamiltonian(pad, spec.initial)

    def build(x: str) -> AeqsInstance:
        _check_symbols(spec, x)
        psi = np.zeros(pad, dtype=complex)
        psi[spec.initial] = 1.0
        for sym in [CENT, *x, DOLLAR]:
            psi = ops[sym].dot(psi)
        return aeqs_instance(schema, h_ini, ProjectorComplement(psi), spec.q_acc, spec.q_rej,
                             epsilon=threshold)

    return AeqsFamily(
        alphabet=spec.alphabet,
        builder=build,
        tags=("1moqqaf", "constsize", "constgap", "0-energy"),
        name=f"compiled({spec.name})",
    )


# ---------------------------------------------------------------------------
# Rigid-garbage-tape one-way automata
# ---------------------------------------------------------------------------

@dataclass
class GarbageQfaSpec:
    """delta(q, symbol) -> [(p, garbage_symbol, amplitude)]; rigid tape.

    Garbage symbols are 1..xi_size (0 is reserved for the blank).  Rigidity
    means every transition emits exactly one non-blank symbol, so reading m
    symbols leaves exactly m garbage cells filled and the induced operators
    are isometries grade by grade.  Construction forms the accepting and
    rejecting states (``criteria_arrays``), bounds both sides of the dense
    step tables by AEQS_DENSE_MAX, builds them (``_garbage_tables``) and
    checks each symbol's grade map V to be an isometry on its table T:
    V^dagger V = conj(T) T^T.  A spec is not changed after construction,
    since its tables would not follow.
    """

    n_states: int
    alphabet: tuple
    xi_size: int
    delta: dict                  # (q, symbol) -> list[(p, xi, amp)]
    q_acc: np.ndarray
    q_rej: np.ndarray
    initial: int = 0
    error_bound: float | None = None
    name: str = "garbage-1qfa"
    tables: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.q_acc, self.q_rej = criteria_arrays(self.q_acc, self.q_rej)
        if self.error_bound is not None:
            real(self.error_bound, "error_bound", CompileError, 0.0, 1.0)
        integer(self.initial, "initial state", CompileError, 0, self.n_states - 1)
        for moves in self.delta.values():
            for (p, xi, _amp) in moves:
                integer(p, "target state", CompileError, 0, self.n_states - 1)
                integer(xi, "garbage symbol", CompileError, 1, self.xi_size)
        for side, what in ((self.n_states, "rows"), (self.xi_size * self.n_states, "columns")):
            capacity(side, dense_max(), "AEQS_DENSE_MAX", f"garbage step table {what}")
        self.tables = _garbage_tables(self)
        stack = np.array(list(self.tables.values()))
        defects = spectral_norm(stack.conj() @ stack.swapaxes(1, 2) - np.eye(self.n_states))
        for sym, defect in zip(self.tables, defects):
            if defect > OPERATOR_DEFECT_TOL:
                raise CompileError(f"symbol {sym!r} isometry defect {defect:.3e}")


def _garbage_tables(spec: GarbageQfaSpec) -> dict:
    """symbol -> the n_states x (xi_size n_states) table T of one step:
    T[q, (g - 1) n_states + p] sums the amplitudes of q -> p writing g."""
    n = spec.n_states
    symbols = [CENT, DOLLAR, *spec.alphabet]
    tables = [[[0j] * (spec.xi_size * n) for _ in range(n)] for _ in symbols]
    for sym, table in zip(symbols, tables):
        for q, row in enumerate(table):
            for (p, xi, amp) in spec.delta.get((q, sym), ()):
                row[(xi - 1) * n + p] += amp
    return dict(zip(symbols, np.array(tables)))


def _garbage_run(spec: GarbageQfaSpec, tables: dict, x: str) -> np.ndarray:
    """The amplitudes after the unitary run on the extended input, as an
    xi_size^m x n_states array over the words of length m = len(x) + 2 (the
    rigid discipline leaves every shorter word empty).  Row i is the word
    whose digits g - 1 spell i in base xi_size, first cell most significant:
    its place among the words of length m in ``garbage_strings``.  Row w of
    psi @ T holds the words w + (g,) for g = 1..xi_size, each a row of
    n_states, so one reshape lists the next grade in order."""
    psi = np.zeros((1, spec.n_states), dtype=complex)
    psi[0, spec.initial] = 1.0
    for sym in [CENT, *x, DOLLAR]:
        psi = psi.dot(tables[sym]).reshape(-1, spec.n_states)
    return psi


def run_garbage_1qfa(spec: GarbageQfaSpec, x: str) -> tuple:
    """(accept, reject) probabilities: unitary run on states x garbage
    content, projective readout on the inner state at the end."""
    _check_symbols(spec, x)
    probs = (np.abs(_garbage_run(spec, spec.tables, x)) ** 2).sum(axis=0)
    return float(probs[spec.q_acc].sum()), float(probs[spec.q_rej].sum())


def garbage_strings(xi_size: int, max_len: int) -> list:
    """Garbage-content set: words of length <= max_len over 1..xi_size,
    length-then-lexicographic with the all-blank (empty) word first."""
    out = []
    for length in range(max_len + 1):
        for word in itertools.product(range(1, xi_size + 1), repeat=length):
            out.append(word)
    return out


@dataclass(frozen=True)
class GarbageLayout:
    """The part of a compiled garbage-tape instance that depends only on the
    input length: the space Q x G_n, state-major, so that configuration
    (q, w) has index q W + (the place of w in words), with W = len(words).
    Every input of the length shares it, and nothing writes to it."""

    words: list
    schema: BasisSchema
    h_ini: ProjectorComplement
    s_acc: np.ndarray
    s_rej: np.ndarray


def garbage_layout(spec: GarbageQfaSpec, length: int) -> GarbageLayout:
    """The layout of the inputs of one length.  Reading the extended input
    fills length+2 garbage cells, so G_n holds the words of up to that
    length.  Raises CapacityError before any word is listed when the space
    exceeds GARBAGE_CAPACITY."""
    max_len = length + 2
    xi = spec.xi_size
    n_words = max_len + 1 if xi == 1 else (xi ** (max_len + 1) - 1) // (xi - 1)
    dim = capacity(spec.n_states * n_words, GARBAGE_CAPACITY, "GARBAGE_CAPACITY",
                   "configuration space")
    words = garbage_strings(xi, max_len)
    schema = BasisSchema([("state", tuple(range(spec.n_states))), ("garbage", tuple(words))])
    # The criteria are the unions of the ranges [q W, (q + 1) W).
    s_acc, s_rej = criteria_arrays(*((q[:, None] * n_words + np.arange(n_words)).ravel()
                                     for q in (spec.q_acc, spec.q_rej)))
    return GarbageLayout(
        words=words,
        schema=schema,
        h_ini=deflation_hamiltonian(dim, schema.index((spec.initial, ()))),
        s_acc=s_acc,
        s_rej=s_rej,
    )


def from_garbage_1qfa(spec: GarbageQfaSpec) -> AeqsFamily:
    """Compile onto the configuration space Q x G_n (``garbage_layout``).

    The compiled Hamiltonians mirror the measure-once compilation on this
    larger space.  Everything but psi_x depends on the input length alone
    and is built once per length; the run reads the spec's step tables.
    The run fills only the top grade, the words of length len(x) + 2, which
    are the last of each state's range of words.
    """
    threshold = decision_threshold(spec.error_bound)
    # One length: callers ask for the inputs of one length at a time, and a
    # layout of length n lists O(n^2) tape cells.
    layout_of = functools.lru_cache(maxsize=1)(functools.partial(garbage_layout, spec))

    def build(x: str) -> AeqsInstance:
        _check_symbols(spec, x)
        layout = layout_of(len(x))
        top = _garbage_run(spec, spec.tables, x)
        n_words = len(layout.words)
        psi = np.zeros(layout.schema.dim, dtype=complex)
        psi.reshape(spec.n_states, n_words)[:, n_words - len(top):] = top.T
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > RUN_NORM_TOL:
            raise CompileError(f"run lost norm ({norm}); rigid discipline violated?")
        psi /= norm
        return aeqs_instance(layout.schema, layout.h_ini, ProjectorComplement(psi),
                             layout.s_acc, layout.s_rej, epsilon=threshold)

    return AeqsFamily(
        alphabet=spec.alphabet,
        builder=build,
        tags=("1moqqaf", "linsize", "constgap", "0-energy"),
        name=f"compiled({spec.name})",
    )


# ---------------------------------------------------------------------------
# Random spec generators (test fodder)
# ---------------------------------------------------------------------------

def haar_unitaries(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """count Haar unitaries of size n, each drawn as its real then imaginary part."""
    g = rng.standard_normal((count, 2, n, n))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def random_moqfa_spec(rng: np.random.Generator, n_states: int,
                      alphabet=("0", "1")) -> MoQfaSpec:
    symbols = [CENT, DOLLAR, *alphabet]
    ops = dict(zip(symbols, haar_unitaries(rng, len(symbols), n_states)))
    labels = rng.integers(0, 3, size=n_states)
    return MoQfaSpec(
        n_states=n_states, alphabet=tuple(alphabet), ops=ops,
        q_acc=np.flatnonzero(labels == 0), q_rej=np.flatnonzero(labels == 1),
        initial=int(rng.integers(0, n_states)),
        name=f"random-moqfa-{n_states}",
    )


def random_garbage_spec(rng: np.random.Generator, n_states: int, xi_size: int,
                        alphabet=("0", "1")) -> GarbageQfaSpec:
    symbols = [CENT, DOLLAR, *alphabet]
    delta = {}
    for sym, big in zip(symbols, haar_unitaries(rng, len(symbols), n_states * xi_size)):
        for q in range(n_states):
            col = big[:, q]
            # Entry p xi_size + xi - 1 is the move to p writing xi.
            delta[(q, sym)] = [(i // xi_size, i % xi_size + 1, complex(col[i]))
                               for i in np.flatnonzero(np.abs(col) > 1e-14).tolist()]
    labels = rng.integers(0, 3, size=n_states)
    return GarbageQfaSpec(
        n_states=n_states, alphabet=tuple(alphabet), xi_size=xi_size,
        delta=delta, q_acc=np.flatnonzero(labels == 0), q_rej=np.flatnonzero(labels == 1),
        initial=int(rng.integers(0, n_states)),
        name=f"random-garbage-{n_states}x{xi_size}",
    )


def dfa_as_garbage_spec(transitions: dict, n_states: int, q_acc, q_rej,
                        alphabet=("0", "1"), name: str = "dfa") -> GarbageQfaSpec:
    """Classical DFA embedding: emit the source state as the garbage symbol,
    which keeps the induced per-symbol operators isometric even when the
    transition map is not injective."""
    delta = {}
    for sym in [CENT, DOLLAR, *alphabet]:
        for q in range(n_states):
            target = q if sym in (CENT, DOLLAR) else transitions[(q, sym)]
            delta[(q, sym)] = [(target, q + 1, 1.0)]
    return GarbageQfaSpec(
        n_states=n_states, alphabet=tuple(alphabet), xi_size=n_states,
        delta=delta, q_acc=q_acc, q_rej=q_rej, name=name,
    )
