"""Quantum quasi-automata: machine levels and Hamiltonian generation.

A quasi-automaton level is a quantum finite automaton stripped of initial and
halting semantics.  Reading the extended input (left endmarker, the symbols
of x, right endmarker) composes one quantum operation per symbol; applying
the composite to an initial mixture and sandwiching with the halting
projection yields a positive semidefinite Hamiltonian:

    E  =  Pi0 . A_cent_x_dollar(Lambda0) . Pi0

Levels come in two kinds.  A one-way level (``QqafLevel``) holds a Kraus
family per symbol; a measure-once level is the one-way level whose families
each hold one unitary.  A time-bounded two-way level (``TwoWayQqafLevel``)
is the data of one input: its Lambda0 and two Kraus families, the first
move and the step, on that input's surface-configuration space with a
circular tape (``surface_schema``), and the step's repeat count.

Every operator here is a ``linalg.SparseOp``: the Kraus operators, and the
channel's running state, which starts from Lambda0 itself (a
``SparseHermitian`` stores both triangles).  The families are applied in
runs (family, times): a two-way level's moves are one run of the first
move and one of ``steps`` repeats of the step family, and a run
conjugates only the entries its family moves, the states it maps to
themselves being set aside and merged back once.  Only the generated E is
rebuilt, as a ``SparseHermitian`` from its upper triangle with Pi0 applied.

``generate_moqqaf`` is the general measure-once construction: it serves the
machine documents of ``aeqslab compile`` and is the tests' oracle.  When
Lambda0 = I - |e_m><e_m| and nothing halts, E is exactly I - |g><g| for
g = U_cent_x_dollar e_m.  A ``MeasureOnceGrounds`` carrier checks that
shape once per level and returns g by carrying one state through the
unitaries, with no operator product formed, resuming from the prefix an
input shares with the one before.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import (CONJUGATE_PRUNE_TOL, OPERATOR_DEFECT_TOL, SparseHermitian, SparseOp, ilog,
                     integer)

CENT = "cent"
DOLLAR = "dollar"
STEP = "step"


class QqaError(Exception):
    pass


class UnknownSymbolError(QqaError):
    pass


# ---------------------------------------------------------------------------
# Basis schemas
# ---------------------------------------------------------------------------

class BasisSchema:
    """Named mixed-radix coordinates, most significant coordinate first.

    Each coordinate is (name, labels); a basis element is a tuple holding one
    label per coordinate.  By default the basis is the full product of the
    label sets, with the canonical linear index being the mixed-radix value.
    A curated schema restricts the basis to an explicit subset of tuples
    (used by constructions whose dynamically relevant sector is a small,
    exactly identified part of the full product space); the full-product
    index set is still recorded for provenance; ``size_bits`` = ceil(log2
    |IND|) is the qubit count of its enclosing register.

    ``all_states()`` lists the basis in index order, so a state's position
    in it is its column; ``index`` is the one lookup from a state.
    """

    def __init__(self, coords, states=None):
        self.coords = tuple((str(name), tuple(labels)) for name, labels in coords)
        self._label_pos = [
            {label: i for i, label in enumerate(labels)} for _, labels in self.coords
        ]
        self.full_dim = 1
        for _, labels in self.coords:
            self.full_dim *= len(labels)
        self.size_bits = ilog(self.full_dim)
        if states is None:
            self.states = None
            self.dim = self.full_dim
            self._state_index = None
        else:
            self.states = [tuple(s) for s in states]
            if len(set(self.states)) != len(self.states):
                raise QqaError("curated basis contains duplicate tuples")
            self.dim = len(self.states)
            self._state_index = {s: i for i, s in enumerate(self.states)}

    @property
    def curated(self) -> bool:
        return self.states is not None

    def index(self, state) -> int:
        state = tuple(state)
        if self._state_index is not None:
            try:
                return self._state_index[state]
            except KeyError:
                raise QqaError(f"state {state!r} not in curated basis") from None
        if len(state) != len(self.coords):
            raise QqaError(f"state {state!r} needs {len(self.coords)} coordinates")
        idx = 0
        for (name, labels), pos_map, part in zip(self.coords, self._label_pos, state):
            try:
                pos = pos_map[part]
            except KeyError:
                raise QqaError(f"label {part!r} invalid for coordinate {name!r}") from None
            idx = idx * len(labels) + pos
        return idx

    def indices_of(self, states) -> list:
        """Indices of the given tuples, silently skipping absent curated ones."""
        out = []
        for s in states:
            s = tuple(s)
            if self._state_index is not None and s not in self._state_index:
                continue
            out.append(self.index(s))
        return out

    def all_states(self) -> list:
        """The basis states in index order: the curated list, or the product
        of the label sets, most significant coordinate first."""
        if self._state_index is not None:
            return list(self.states)
        return list(itertools.product(*(labels for _, labels in self.coords)))

    def describe(self) -> dict:
        return {
            "coordinates": [
                {"name": name, "radix": len(labels), "labels": [str(l) for l in labels]}
                for name, labels in self.coords
            ],
            "dim": self.dim,
            "full_dim": self.full_dim,
            "size_bits": self.size_bits,
            "curated": self.curated,
        }


def flat_schema(dim: int) -> BasisSchema:
    return BasisSchema([("index", tuple(range(dim)))])


# ---------------------------------------------------------------------------
# Sparse channels
# ---------------------------------------------------------------------------

def _merged(dim: int, terms: list) -> SparseOp:
    """One SparseOp from a list of (rows, cols, vals) parts, merged once."""
    return SparseOp(dim, *(np.concatenate(part) for part in zip(*terms)))


def gram_defect(kraus: list) -> float:
    """Bound on the completeness defect || sum_j K_j^dag K_j - I ||.

    Exact for column-orthogonal families (everything generated here); a
    Gershgorin upper bound otherwise.  Nothing is pruned, so rounding
    residues count toward the bound as they do in a dense norm.
    """
    dim = kraus[0].dim
    idx = np.arange(dim)
    terms = [k.adjoint()._product_terms(k) for k in kraus] + [(idx, idx, -np.ones(dim))]
    gram = _merged(dim, terms)
    return float(np.bincount(gram.rows, np.abs(gram.vals), dim).max(initial=0.0))


def sparse_conjugate(kraus: list, h: SparseOp) -> SparseOp:
    """Apply the channel  H -> sum_j K_j H K_j^dag  to H, both triangles stored."""
    terms = []
    for k in kraus:
        kh = SparseOp(h.dim, *k._product_terms(h))        # merged, not pruned
        terms.append(kh._product_terms(k.adjoint()))
    return _merged(h.dim, terms)._pruned(CONJUGATE_PRUNE_TOL)


# ---------------------------------------------------------------------------
# Levels
# ---------------------------------------------------------------------------

@dataclass
class QqafLevel:
    """One-way level: a Kraus family (a list of SparseOp) per symbol.

    A measure-once level holds one unitary in every family; only such levels
    go through ``generate_moqqaf`` and ``drop_right_endmarker``.
    """

    schema: BasisSchema
    alphabet: tuple
    ops: dict                      # symbol -> list[SparseOp], keys CENT/DOLLAR/chars
    lam0: SparseHermitian
    q0_indices: frozenset = frozenset()
    name: str = "qqaf"

    @property
    def dim(self) -> int:
        return self.schema.dim

    @property
    def has_dollar(self) -> bool:
        return DOLLAR in self.ops

    def kraus(self, symbol: str) -> list:
        try:
            return list(self.ops[symbol])
        except KeyError:
            raise UnknownSymbolError(f"level {self.name!r} has no operator for {symbol!r}") from None

    def unitary(self, symbol: str) -> SparseOp:
        """The single operator of a measure-once family."""
        family = self.kraus(symbol)
        if len(family) != 1:
            raise QqaError(f"level {self.name!r} has {len(family)} operators for {symbol!r}; "
                           "a measure-once step takes one")
        return family[0]


def surface_schema(inner_labels: tuple, n: int) -> BasisSchema:
    """The surface space of an input of length n: inner_labels x head
    positions [0, n+1], the tape being circular (positions advance mod n+2)."""
    return BasisSchema([("inner", inner_labels), ("pos", tuple(range(n + 2)))])


@dataclass
class TwoWayQqafLevel:
    """Time-bounded two-way level of one input, on its surface space.

    ``ops`` holds two Kraus families: ``ops[CENT]``, the first move, applied
    once, and ``ops[STEP]``, the step, applied ``steps`` times after it.
    """

    schema: BasisSchema
    lam0: SparseHermitian
    ops: dict                      # CENT -> first move, STEP -> step (lists of SparseOp)
    steps: int
    name: str = "2qqaf"


@dataclass
class GeneratedHamiltonian:
    """A generated operator together with its basis schema."""

    operator: SparseHermitian
    basis: BasisSchema

    @property
    def dim(self) -> int:
        return self.operator.dim


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class SymbolDefect:
    symbol: str
    defect: float


@dataclass
class ValidationReport:
    level_name: str
    defects: list
    lam0_min_eigenvalue: float

    @property
    def passed(self) -> bool:
        return (
            all(d.defect <= OPERATOR_DEFECT_TOL for d in self.defects)
            and self.lam0_min_eigenvalue >= -OPERATOR_DEFECT_TOL
        )

    def worst(self) -> float:
        return max((d.defect for d in self.defects), default=0.0)


def validate_level(level) -> ValidationReport:
    """Report per-family completeness defects and Lambda0's least eigenvalue,
    for a level of either kind.

    Each defect is ``gram_defect``: ||sum K'K - I|| exactly on the
    column-orthogonal families every level here has, an upper bound
    otherwise.  The least eigenvalue is the Gershgorin bound: exact on a
    diagonal Lambda0, never above the true minimum otherwise.
    """
    lam0 = level.lam0
    on = lam0.rows == lam0.cols
    diag = np.zeros(lam0.dim)
    diag[lam0.rows[on]] = lam0.vals[on].real
    off = np.bincount(lam0.rows[~on], np.abs(lam0.vals[~on]), lam0.dim)
    return ValidationReport(
        level_name=level.name,
        defects=[SymbolDefect(symbol, gram_defect(family)) for symbol, family in level.ops.items()],
        lam0_min_eigenvalue=float((diag - off).min()),
    )


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def check_symbols(alphabet: tuple, x: str) -> None:
    for ch in x:
        if ch not in alphabet:
            raise UnknownSymbolError(f"symbol {ch!r} not in alphabet {alphabet}")


def _extended_symbols(level, x: str) -> list:
    symbols = [CENT] + list(x)
    if level.has_dollar:
        symbols.append(DOLLAR)
    return symbols


def _fixed_owner(family: list, dim: int) -> np.ndarray:
    """owner[c] = j for the family's fixed columns, -1 for the others.

    Column c is fixed by operator j when the family stores one entry in
    column c, the entry (c, c) = 1.0 of operator j, and no column outside
    the fixed set reaches row c.  A fixed column maps only to itself, so
    dropping the reached rows once leaves every rule holding.
    """
    count = np.zeros(dim, dtype=np.int64)
    owner = np.full(dim, -1)
    for j, k in enumerate(family):
        count += np.bincount(k.cols, minlength=dim)
        owner[k.cols[(k.rows == k.cols) & (k.vals == 1.0)]] = j
    owner[count != 1] = -1
    moving = owner < 0
    for k in family:
        owner[k.rows[moving[k.cols]]] = -1
    return owner


def _apply_run(family: list, times: int, h: SparseOp) -> SparseOp:
    """H after ``times`` applications of H -> sum_j K_j H K_j^dag.

    Only the entries the family moves are conjugated.  Let F be the fixed
    columns (``_fixed_owner``).  On an entry (r, c) of H with r and c in F,
    the channel is the identity when one operator fixes both, and zero
    otherwise: K_j H_FF K_j^dag summed over the family is H_FF's same-owner
    entries.  No column outside F reaches a row in F, so the conjugate of
    the other entries has no F x F key, and an F x F entry of H reaches no
    other key.  The two parts' keys are disjoint, every key's sum runs over
    the terms it had when H was conjugated whole, in the same order, and
    the bits do not change: the F x F part is merged once at the end,
    where adding 0.0 gives it the same signed zeros, and pruned as each
    step would have pruned it.  The other entries touch only their own
    indices and the columns outside F, so the operators are cut to those
    columns once per run; ``sparse_conjugate`` still runs once per step.
    """
    owner = _fixed_owner(family, h.dim)
    fixed = owner >= 0
    if not fixed.any():
        for _ in range(times):
            h = sparse_conjugate(family, h)
        return h
    both = fixed[h.rows] & fixed[h.cols]
    kept = h._masked(both & (owner[h.rows] == owner[h.cols]))
    rest = h._masked(~both)
    touched = ~fixed
    touched[rest.rows] = touched[rest.cols] = True
    cut = [k._masked(touched[k.cols]) for k in family]
    for _ in range(times):
        rest = sparse_conjugate(cut, rest)
    return _merged(h.dim, [(kept.rows, kept.cols, kept.vals),
                           (rest.rows, rest.cols, rest.vals)])._pruned(CONJUGATE_PRUNE_TOL)


def _channel_output(lam0: SparseHermitian, runs, schema: BasisSchema, dead=(),
                    return_trace: bool = False):
    """Pi0 . A(Lambda0) . Pi0, A applying each run (family, times) of Kraus
    families in order (``_apply_run``) and Pi0 removing the `dead` indices;
    with return_trace, also tr A(Lambda0).

    The output is rebuilt as a SparseHermitian from its upper triangle."""
    h = lam0
    for family, times in runs:
        if times:
            h = _apply_run(family, times, h)
    dead = np.fromiter(dead, dtype=np.int64)
    keep = (h.rows <= h.cols) & ~np.isin(h.rows, dead) & ~np.isin(h.cols, dead)
    generated = GeneratedHamiltonian(
        SparseHermitian(h.dim, h.rows[keep], h.cols[keep], h.vals[keep]), schema)
    if return_trace:
        return generated, float(h.vals[h.rows == h.cols].real.sum())
    return generated


def generate_moqqaf(level: QqafLevel, x: str) -> GeneratedHamiltonian:
    """E = Pi0 . U_cent_x_dollar Lambda0 U^dag . Pi0 (right-to-left product)
    for a measure-once level: the unitaries are multiplied first, then
    Lambda0 is conjugated once."""
    check_symbols(level.alphabet, x)
    u = SparseOp.identity(level.dim)
    for symbol in _extended_symbols(level, x):
        u = level.unitary(symbol) @ u
    return _channel_output(level.lam0, [([u], 1)], level.schema, level.q0_indices)


class MeasureOnceGrounds:
    """g = U_cent_x_dollar e_m for the inputs x of one measure-once level
    with Lambda0 = I - |e_m><e_m| and no halting indices.

    For such a level Pi0 removes nothing and U Lambda0 U^dag = I - |g><g|,
    so ``generate_moqqaf(level, x)`` is exactly that rank-one complement:
    e_m is carried through each symbol's unitary in turn and no operator
    product is formed.  The families must be unitary, as ``validate_level``
    checks.  The constructor checks the level's shape once and raises
    QqaError on a level of any other shape.

    ``ground(x)`` keeps the states of the longest extended-symbol prefix x
    shares with the previous call and carries on from there, so a sweep in
    lexicographic order makes one matvec per new prefix.  The states are
    handed out read-only.
    """

    def __init__(self, level: QqafLevel):
        for symbol in level.ops:
            level.unitary(symbol)      # raises unless the family holds one operator
        if level.q0_indices:
            raise QqaError(f"level {level.name!r} halts on {len(level.q0_indices)} indices")
        lam0 = level.lam0
        on = lam0.rows == lam0.cols
        if np.any(lam0.vals[~on] != 0):
            raise QqaError(f"level {level.name!r} has a non-diagonal Lambda0")
        diag = np.zeros(level.dim)
        diag[lam0.rows[on]] = lam0.vals[on].real
        zeros = np.flatnonzero(diag == 0)
        if len(zeros) != 1 or np.any(np.delete(diag, zeros) != 1):
            raise QqaError(f"level {level.name!r}: Lambda0 is not I - |e_m><e_m|")
        self.level = level
        self._start = np.zeros(level.dim, dtype=complex)
        self._start[zeros[0]] = 1.0
        self._start.flags.writeable = False
        # The state after each symbol of the last input's extended symbols:
        # at most len(x) + 2 vectors, bounded by the input length, not by
        # the number of inputs.
        self._symbols = []
        self._states = []

    def ground(self, x: str) -> np.ndarray:
        check_symbols(self.level.alphabet, x)
        symbols = _extended_symbols(self.level, x)
        shared = 0
        for old, new in zip(self._symbols, symbols):
            if old != new:
                break
            shared += 1
        del self._symbols[shared:], self._states[shared:]
        for symbol in symbols[shared:]:
            g = self.level.unitary(symbol).matvec(self._states[-1] if self._states
                                                  else self._start)
            g.flags.writeable = False
            self._symbols.append(symbol)
            self._states.append(g)
        return self._states[-1]


def generate_qqaf(level: QqafLevel, x: str, *, return_trace: bool = False):
    """E = Pi0 . A_cent_x_dollar(Lambda0) . Pi0 with per-symbol Kraus sums."""
    check_symbols(level.alphabet, x)
    runs = [(level.kraus(symbol), 1) for symbol in _extended_symbols(level, x)]
    return _channel_output(level.lam0, runs, level.schema, level.q0_indices, return_trace)


def generate_2qqaf(level: TwoWayQqafLevel, *, return_trace: bool = False):
    """E = (A^(n,x))^t (A_first(Lambda~0)) on the level's surface space, with
    t = ``level.steps``; no surface state is projected out."""
    integer(level.steps, "step count", QqaError)
    runs = [(level.ops[CENT], 1), (level.ops[STEP], level.steps)]
    return _channel_output(level.lam0, runs, level.schema, return_trace=return_trace)


def drop_right_endmarker(level: QqafLevel) -> QqafLevel:
    """Fold the right endmarker into the other operators of a measure-once level.

    New operators:  U~_cent = U_dollar U_cent,  U~_sigma = U_dollar U_sigma
    U_dollar^dag.  The composed product over any extended input telescopes to
    the original one, so generated Hamiltonians are unchanged.
    """
    if not level.has_dollar:
        raise QqaError("level has no right-endmarker operator")
    u_dollar = level.unitary(DOLLAR)
    u_dollar_adj = u_dollar.adjoint()
    new_ops = {CENT: [u_dollar @ level.unitary(CENT)]}
    for symbol in level.ops:
        if symbol in (CENT, DOLLAR):
            continue
        new_ops[symbol] = [(u_dollar @ level.unitary(symbol)) @ u_dollar_adj]
    return QqafLevel(
        schema=level.schema,
        alphabet=level.alphabet,
        ops=new_ops,
        lam0=level.lam0,
        q0_indices=level.q0_indices,
        name=f"{level.name}-dollarless",
    )
