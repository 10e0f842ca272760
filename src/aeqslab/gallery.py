"""Six worked language constructions with classical membership oracles.

Each entry pairs an AEQS family (its Hamiltonians generated by a
quasi-automaton construction) with a pure classical oracle on strings and
the expected spectral data, so sweeps can verify the quantum decision
against ordinary string predicates.

Two of the constructions (prefix language, letter-count equality) live on
their full index product space with genuinely unitary per-symbol operators.
Their Lambda0 is I - |e_m><e_m| and they halt on nothing, so the paper's
E = U Lambda0 U^dagger is exactly I - |g><g| with g = U e_m: H_fin is
stored as that ProjectorComplement, g from a ``qqa.MeasureOnceGrounds``
carrier per input length, which shares the states of an input's prefix
with the inputs after it, and its ground energy 0 and gap 1 are exact.
``generate_moqqaf`` builds the same operator from the same levels and is the
tests' oracle.
The three track-based constructions (symmetric coincidence, unary subset
sum, multiple duplication) are generated on the dynamically relevant
sub-basis of their index space: the nondeterministic-track chains plus
their landings.  On the full product space these constructions acquire
spurious extra ground directions from dynamically unreachable index tuples
(basis states that no computation produces still enter the operator's
spectrum), which would drown the intended witness energies; the curated
basis is closed under the generation maps and reproduces the constructions'
analyzed spectra exactly.  Each track class defines its registers and its
moves once (a ``_Track``): permutations F, and the right endmarker as Kraus
branches.  A layout function runs them on one input (``TrackLayout``), and
one skeleton, ``_track_entry``, makes each entry from its layout function:
the instance, the verify rows, and a validation report of one
``_register_level`` per track the layout ran, so the report checks every
move the instance was built from.  Lambda0 differs from the identity only
at the idle track's start, so the diagonal of F Lambda0 F^dagger is read
off forward runs: no step is inverted.  Every instance is assembled by
``aeqs.aeqs_instance``.  The marked-palindrome
construction is kept verbatim on its full surface-configuration space;
deviations of its ground support from the intended accept/reject spaces are
REPORTED as findings by verify(), never patched.

verify() decides a sweep without building instances: each group of inputs
of one length is one call of the decision kernel ``aeqs.decide_rows``, on
rows the entry reads off its carrier or its layouts (``GalleryEntry.rows``).
``family.build(x)`` stays for run, trace, gap and the time search.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .aeqs import (
    AeqsFamily,
    AeqsInstance,
    DEFAULT_ACCURACY_BOUND,
    ProjectorComplement,
    aeqs_instance,
    complement,
    criteria_arrays,
    decide_rows,
    deflation_hamiltonian,
    diagonal_lowest_two,
)
from .linalg import EXPECTATION_TOL, VERIFY_INPUTS_MAX, SparseHermitian, SparseOp, capacity, integer
from .qqa import (
    CENT,
    DOLLAR,
    STEP,
    BasisSchema,
    MeasureOnceGrounds,
    QqafLevel,
    TwoWayQqafLevel,
    check_symbols,
    generate_moqqaf,  # noqa: F401 -- the benchmark's tracer wraps gallery.generate_moqqaf
    surface_schema,
)

ACCEPT, REJECT, NOT_PROMISED = "accept", "reject", "not-promised"


class GalleryError(Exception):
    pass


class PromiseError(GalleryError):
    """Input does not have the block shape the promise problem requires."""


def permutation_op(schema: BasisSchema, step: Callable) -> SparseOp:
    """The permutation operator |step(s)><s| summed over the basis states s."""
    return SparseOp.permutation([schema.index(step(s)) for s in schema.all_states()])


@dataclass
class Expectation:
    """A spectral claim checked on every swept input whose oracle answer is
    ``side`` (ACCEPT or REJECT, before orientation), or on every promised
    input when ``side`` is None."""

    description: str
    side: str | None = None
    energy: Callable[[str], float] | None = None
    gap_lower: Callable[[str], float] | None = None


@dataclass
class GalleryEntry:
    name: str
    family: AeqsFamily
    oracle: Callable[[str], str]          # -> accept | reject | not-promised
    expectations: list = field(default_factory=list)
    notes: str = ""
    orientation: str = "direct"           # "swapped": construction accepts the oracle's reject side
    findings_mode: bool = False           # deviations become findings, not mismatches
    validation_levels: Callable[[str], list] = None
    # The arguments of aeqs.decide_rows for a list of inputs of one length,
    # built with no instance; None decides each input from family.build(x).
    rows: Callable[[list], tuple] | None = None

    def expected_outcome(self, side: str) -> str:
        """The construction's outcome on an input whose oracle answer is
        ``side``: the other side when the orientation is swapped."""
        if side != NOT_PROMISED and self.orientation == "swapped":
            return REJECT if side == ACCEPT else ACCEPT
        return side


# ---------------------------------------------------------------------------
# Parts shared by the entries
# ---------------------------------------------------------------------------

def _measure_once_entry(name: str, level_of: Callable[[int], QqafLevel], start,
                        criteria: Callable, oracle: Callable[[str], str], tags: tuple,
                        notes: str) -> GalleryEntry:
    """An entry on a measure-once level per input length.

    H_fin is I - |g><g| with g from the length's ``MeasureOnceGrounds``
    carrier, so its ground energy 0 and gap 1 are exact.
    ``criteria(n, schema)`` gives the two index collections of length n.
    One cache, keyed by length and so bounded by the lengths asked for, not
    by the inputs, holds each length's carrier, H_ini and criteria, formed
    once by ``criteria_arrays``.  ``build``, the verify rows and the
    validation report all read it, so the report checks the very level that
    built the instance, and every instance of a length shares its criteria.
    """
    @functools.cache
    def parts(n: int) -> tuple:
        carrier = MeasureOnceGrounds(level_of(n))
        schema = carrier.level.schema
        return (carrier, deflation_hamiltonian(schema.dim, schema.index(start)),
                *criteria_arrays(*criteria(n, schema)))

    def build(x: str) -> AeqsInstance:
        carrier, h_ini, s_acc, s_rej = parts(len(x))
        return aeqs_instance(carrier.level.schema, h_ini, ProjectorComplement(carrier.ground(x)),
                             s_acc, s_rej)

    def rows(xs: list) -> tuple:
        # |g|^2 per input, and the spectrum of I - |g><g| as
        # aeqs._projector_lowest_two reads it: ground energy 0, gap 1 (inf
        # on a one-dimensional space) and a unique ground state.
        carrier, _, acc_idx, rej_idx = parts(len(xs[0]))
        m, dim = len(xs), carrier.level.dim
        amps = np.empty((m, dim))
        for r, x in enumerate(xs):
            amps[r] = np.abs(carrier.ground(x)) ** 2
        return (amps, [0.0] * m, [1.0 if dim > 1 else math.inf] * m, [True] * m,
                acc_idx, rej_idx, DEFAULT_ACCURACY_BOUND)

    return GalleryEntry(
        name=name,
        family=AeqsFamily(alphabet=parts(0)[0].level.alphabet, builder=build, tags=tags,
                          name=name),
        oracle=oracle,
        expectations=[
            Expectation("ground energy 0 on every input", energy=lambda x: 0.0),
            Expectation("spectral gap exactly 1", gap_lower=lambda x: 1.0),
        ],
        notes=notes,
        validation_levels=lambda x: [parts(len(x))[0].level],
        rows=rows,
    )


@dataclass
class TrackLayout:
    """One input's curated basis for a track construction: the schema's
    coordinates, the curated states in order, the diagonal of H_fin on them,
    the start state, the accept and reject states, and the tracks the layout
    ran (key -> ``_Track``).  Criteria states outside the curated basis are
    skipped, as ``BasisSchema.indices_of`` skips them."""

    coords: list
    states: list
    diag: np.ndarray
    start: tuple
    acc: set
    rej: set
    tracks: dict


def _track_entry(name: str, alphabet: tuple, layout_of: Callable[[str], TrackLayout],
                 oracle: Callable[[str], str], expectations: list, tags: tuple, notes: str,
                 promise: Callable[[str], bool] | None = None, **entry_fields) -> GalleryEntry:
    """An entry on a track layout per input, the track analogue of
    ``_measure_once_entry``: the instance, the verify rows and the
    validation report all come from ``layout_of(x)``.  The report holds
    ``_register_level`` of every track in ``layout.tracks``, so it checks
    each move the instance was built from."""
    def build(x: str) -> AeqsInstance:
        layout = layout_of(x)
        schema = BasisSchema(layout.coords, states=layout.states)
        return aeqs_instance(schema, deflation_hamiltonian(schema.dim, schema.index(layout.start)),
                             SparseHermitian.diagonal(layout.diag),
                             schema.indices_of(layout.acc), schema.indices_of(layout.rej))

    def validation_levels(x: str) -> list:
        return [_register_level(track, alphabet, f"{name}[{','.join(map(str, key))}] on {x!r}")
                for key, track in layout_of(x).tracks.items()]

    family = AeqsFamily(alphabet=alphabet, builder=build, promise=promise, tags=tags, name=name)
    return GalleryEntry(name=name, family=family, oracle=oracle, expectations=expectations,
                        notes=notes, validation_levels=validation_levels,
                        rows=_layout_rows(layout_of), **entry_fields)


def _layout_rows(layout_of: Callable[[str], TrackLayout]) -> Callable:
    """The ``GalleryEntry.rows`` of a track entry, read off each input's
    layout with no instance built.

    H_fin is diagonal, so the ground state is the basis vector of the index
    ``diagonal_lowest_two`` picks, as in ``decide``.  Its squared amplitudes
    are 1 there and 0 elsewhere, so every sum the kernel forms over them has
    at most one nonzero term.  A row therefore keeps three bins, the accept
    states, the reject states and the rest, with the 1 in the ground
    state's bin, and the kernel's sums are the bits of the full row's.
    """
    acc_idx, rej_idx = criteria_arrays([0], [1])

    def rows(xs: list) -> tuple:
        amps = np.zeros((len(xs), 3))
        spectra = []
        for r, x in enumerate(xs):
            layout = layout_of(x)
            energy, ground, gap, unique = diagonal_lowest_two(layout.diag)
            state = layout.states[ground]
            amps[r, 0 if state in layout.acc else 1 if state in layout.rej else 2] = 1.0
            spectra.append((energy, gap, unique))
        return (amps, *zip(*spectra), acc_idx, rej_idx, DEFAULT_ACCURACY_BOUND)

    return rows


class _Track:
    """A deterministic register automaton of one nondeterministic track.

    A track class gives its coordinates as ``registers`` and its moves as
    ``move(state, c)``, a permutation for CENT, each input symbol and DOLLAR.
    ``endmarker(state)`` lists the right endmarker's Kraus branches, one
    (state, amplitude) per branch or None where the branch has no entry; by
    default the one branch is DOLLAR's permutation.  The layouts run these
    moves (``_run``) and the validation report checks them
    (``_register_level``).
    """

    def endmarker(self, state) -> list:
        return [(self.move(state, DOLLAR), 1.0)]


def _run(track: _Track, x: str, state):
    """The track's state after CENT, x and DOLLAR."""
    move = track.move
    state = move(state, CENT)
    for c in x:
        state = move(state, c)
    return move(state, DOLLAR)


def _register_level(track: _Track, alphabet: tuple, name: str) -> QqafLevel:
    """One track on its full register space, for the unitarity/completeness
    report: the permutation of each move, the endmarker's Kraus branches,
    and Lambda0 = I."""
    schema = BasisSchema(track.registers)
    ops = {c: [permutation_op(schema, lambda s, c=c: track.move(s, c))]
           for c in (CENT, *alphabet)}
    branches = {}
    for col, s in enumerate(schema.all_states()):
        for b, hit in enumerate(track.endmarker(s)):
            if hit is not None:
                branches.setdefault(b, []).append((schema.index(hit[0]), col, hit[1]))
    ops[DOLLAR] = [SparseOp.from_rules(schema.dim, rules) for rules in branches.values()]
    return QqafLevel(schema=schema, alphabet=alphabet, ops=ops,
                     lam0=SparseHermitian.diagonal(np.ones(schema.dim)), name=name)


def _layout_coords(track_coords: list, registers: list) -> list:
    """A track layout's coordinates: the track, its registers, and a copy of
    the registers (``name0``) holding the start."""
    return [*track_coords, *registers, *((name + "0", labels) for name, labels in registers)]


def _landing_layout(x: str, track_coords: list, tracks: dict, start: tuple, halting: set,
                    acc: set, rej: set) -> TrackLayout:
    """The layout of a track construction whose chain is a start and its
    landing: each track's start and, when it moves, its landing, in the
    order of ``tracks`` (its coordinates -> track).  The first track idles.
    Lambda0 is 1/2 at its start and 1 elsewhere, and the steps carry that
    start to the idle track's landing, so the diagonal of H_fin is 0 on the
    halting states, 1/2 on that landing and 1 on the rest."""
    states, deformed = [], None
    for key, track in tracks.items():
        landing = _run(track, x, start)
        states.append(key + start + start)
        if landing != start:
            states.append(key + landing + start)
        if deformed is None:
            deformed = len(states) - 1
    diag = np.ones(len(states))
    diag[deformed] = 0.5
    for idx, st in enumerate(states):
        if st in halting:
            diag[idx] = 0.0
    # Every track of one input has the same registers.
    return TrackLayout(_layout_coords(track_coords, track.registers), states, diag, states[0],
                       acc, rej, tracks)


# ---------------------------------------------------------------------------
# Entry: prefix language  L_a = { a x : x in {0,1}* },  |a| = 1
# ---------------------------------------------------------------------------

_PREFIX_STATES = ("q0", "q1", "q2", "q3")


def _prefix_level(n: int, a: str) -> QqafLevel:
    n_pos = n + 2
    schema = BasisSchema([("state", _PREFIX_STATES), ("pos", tuple(range(n_pos)))])

    def adv(pos):
        return (pos + 1) % n_pos

    # At cell 1 the first input symbol routes q0 to the accept track (q1)
    # when it equals a, and to the reject track (q2) otherwise.
    if a == "0":
        cell1 = {"0": {"q0": "q1", "q1": "q3", "q2": "q2", "q3": "q0"},
                 "1": {"q0": "q2", "q1": "q1", "q2": "q3", "q3": "q0"}}
    else:
        cell1 = {"1": {"q0": "q1", "q1": "q3", "q2": "q2", "q3": "q0"},
                 "0": {"q0": "q2", "q1": "q1", "q2": "q3", "q3": "q0"}}

    advance = [permutation_op(schema, lambda s: (s[0], adv(s[1])))]
    ops = {CENT: advance, DOLLAR: advance}
    for sym in ("0", "1"):
        ops[sym] = [permutation_op(
            schema, lambda s, sym=sym: (cell1[sym][s[0]] if s[1] == 1 else s[0], adv(s[1]))
        )]

    lam = np.ones(schema.dim)
    lam[schema.index(("q0", 0))] = 0.0
    return QqafLevel(
        schema=schema, alphabet=("0", "1"), ops=ops,
        lam0=SparseHermitian.diagonal(lam), name=f"prefix{a}[n={n}]",
    )


def _build_l_prefix(a: str) -> GalleryEntry:
    def criteria(n: int, schema: BasisSchema):
        s_rej = [("q2", 0)]
        if n == 0:
            # The empty string never reaches the branch cell; its ground
            # state stays on the start tuple, which we class as rejecting.
            s_rej.append(("q0", 0))
        return schema.indices_of([("q1", 0)]), schema.indices_of(s_rej)

    return _measure_once_entry(
        f"l_prefix_{a}", lambda n: _prefix_level(n, a), ("q0", 0), criteria,
        oracle=lambda x: ACCEPT if x.startswith(a) else REJECT,
        tags=("1moqqaf", "logsize", "constgap", "0-energy"),
        notes="start tuple added to the rejection set at n=0 so the empty "
              "string is decided rather than indeterminate",
    )


# ---------------------------------------------------------------------------
# Entry: Equal = { w : #a(w) = #b(w) } over {a, b}
# ---------------------------------------------------------------------------

def _equal_level(n: int) -> QqafLevel:
    clock = max(1, 2 ** (n - 1)) if n >= 1 else 1
    schema = BasisSchema([("state", ("q1", "q2")), ("clock", tuple(range(clock)))])
    inv = 1.0 / math.sqrt(2.0)

    def split_rules(advance: int):
        # W-style recombination: q1 -> (q1 + q2)/sqrt2, q2 -> (q1 - q2)/sqrt2.
        return [(schema.index((r, (i + advance) % clock)), col, -inv if q == r == "q2" else inv)
                for col, (q, i) in enumerate(schema.all_states()) for r in ("q1", "q2")]

    # The left endmarker splits the branches without moving the clock; the
    # right endmarker recombines them with one final clock tick.  Members
    # with l letters of each kind then land exactly on clock value 3l+1.
    cent_rules = split_rules(0)
    dollar_rules = split_rules(1)

    def stepper(d1, d2):
        shift = {"q1": d1, "q2": d2}
        return permutation_op(schema, lambda s: (s[0], (s[1] + shift[s[0]]) % clock))

    # Reading a advances the q1 clock twice as fast; b the other way round.
    ops = {
        CENT: [SparseOp.from_rules(schema.dim, cent_rules)],
        DOLLAR: [SparseOp.from_rules(schema.dim, dollar_rules)],
        "a": [stepper(2, 1)],
        "b": [stepper(1, 2)],
    }
    lam = np.ones(schema.dim)
    lam[schema.index(("q1", 0))] = 0.0
    return QqafLevel(
        schema=schema, alphabet=("a", "b"), ops=ops,
        lam0=SparseHermitian.diagonal(lam), name=f"equal[n={n}]",
    )


def _build_equal() -> GalleryEntry:
    def criteria(n: int, schema: BasisSchema):
        s_acc = []
        if n % 2 == 0:
            # Members have n = 2l symbols and land on clock value 3l+1; the
            # schema is (state, clock) with two states.
            s_acc = schema.indices_of([("q1", (3 * (n // 2) + 1) % (schema.dim // 2))])
        return s_acc, set(range(schema.dim)).difference(s_acc)

    return _measure_once_entry(
        "equal", _equal_level, ("q1", 0), criteria,
        oracle=lambda x: ACCEPT if x.count("a") == x.count("b") else REJECT,
        tags=("1moqqaf", "logsize", "0-energy"),
        notes="acceptance clock index uses the even member length n = 2l; "
              "clock arithmetic is mod 2^(n-1) with a floor of 1 at n = 0",
    )


# ---------------------------------------------------------------------------
# Entry: SymCoin = { x : exists i < j, i + j = |x| + 1, x_i = x_j }
# ---------------------------------------------------------------------------

_SYM_SYMBOLS = ("a", "b", "B", "acc", "rej")


class _SymCoinTrack(_Track):
    """Deterministic register automaton of one nondeterministic pair (i, j).

    Register space: (symbol, position) with position advancing each move
    mod n+2.  Reading the symbol at cell i records it (swap B <-> symbol);
    reading cell j flips the recorded symbol to the accept marker when it
    matches (swap symbol <-> acc); the right endmarker splits accept-marked
    mass sqrt(i/(n+1)) : sqrt((n-i+1)/(n+1)) between acc and rej landings.
    The pair (0, 0), the idle track, only advances.
    """

    def __init__(self, n: int, i: int, j: int):
        self.n_pos = n + 2
        self.i, self.j = i, j

    @property
    def registers(self) -> list:
        return [("sym", _SYM_SYMBOLS), ("pos", tuple(range(self.n_pos)))]

    def move(self, state, c: str):
        # Record at cell i, match at cell j, advance everywhere.
        sym, pos = state
        nxt = (pos + 1) % self.n_pos
        if pos == self.i and self.i > 0 and c != CENT and c != DOLLAR:
            if sym == "B":
                return (c, nxt)
            if sym == c:
                return ("B", nxt)
        if pos == self.j and self.j > 0 and c != CENT and c != DOLLAR:
            if sym == c:
                return ("acc", nxt)
            if sym == "acc":
                return (c, nxt)
        return (sym, nxt)

    def endmarker(self, state) -> list:
        # Kraus branches K1 (advance, accept-marked mass kept with sqrt(p))
        # and K2 (accept-marked mass switched to rej with sqrt(1 - p)).
        if state == ("acc", self.n_pos - 1):
            p = self.i / (self.n_pos - 1)
            return [(("acc", 0), math.sqrt(p)), (("rej", 0), math.sqrt(1.0 - p))]
        return [(self.move(state, DOLLAR), 1.0), None]


def _sym_coin_tracks(n: int):
    return [(i, n + 1 - i) for i in range(1, n // 2 + 1)]


def _sym_coin_layout(x: str) -> TrackLayout:
    """The idle track's start, then for each pair track its start and the
    landings of its chain, with the weight each state carries."""
    check_symbols(("a", "b"), x)
    n = len(x)
    start = ("B", 0)
    # Lambda0 = I - (1/3)|0,0,B,0,B,0><...|: the idle track holds only its
    # start, the one deformed state.
    states, diag = [(0, 0) + start + start], [2.0 / 3.0]
    tracks = {(i, j): _SymCoinTrack(n, i, j) for (i, j) in _sym_coin_tracks(n)}
    for (i, j), track in tracks.items():
        landing = _run(track, x, start)
        # Lambda0 is 1 on every other track, so the entry is the weight the
        # endmarker branches carry into the state from the last cell: 1 from
        # its own cell's advance, except where the two branches of the
        # accept-marked cell land.  A match also holds the start's preimage.
        weight = {start: 1.0, landing: 1.0}
        if landing[0] == "acc":
            (acc, keep), (rej, switch) = track.endmarker(("acc", n + 1))
            weight.update({acc: keep * keep, rej: 1.0 + switch * switch, (x[i - 1], 0): 1.0})
        for member in sorted(weight):
            states.append((i, j) + member + start)
            diag.append(weight[member])
    coords = _layout_coords([("i", tuple(range(n // 2 + 1))), ("j", tuple(range(n + 2)))],
                            _SymCoinTrack(n, 0, 0).registers)
    return TrackLayout(coords, states, np.array(diag), states[0],
                       acc={(i, j, "acc", 0, "B", 0) for (i, j) in tracks},
                       rej={states[0]}, tracks=tracks)


def _build_sym_coin() -> GalleryEntry:
    # One entry: the oracle reads an input's witnesses, and the accepting
    # energy claim reads them again before verify moves to the next input,
    # so the last input's witnesses serve both and the cache holds one tuple.
    @functools.lru_cache(maxsize=1)
    def witnesses(x: str) -> tuple:
        n = len(x)
        return tuple((i, j) for (i, j) in _sym_coin_tracks(n) if x[i - 1] == x[j - 1])

    def oracle(x: str) -> str:
        return ACCEPT if witnesses(x) else REJECT

    def min_witness_energy(x: str) -> float:
        ws = witnesses(x)
        return min(i for i, _ in ws) / (len(x) + 1)

    return _track_entry(
        "sym_coin", ("a", "b"), _sym_coin_layout, oracle,
        expectations=[
            Expectation("accepts: energy i_min/(n+1)", ACCEPT, energy=min_witness_energy),
            Expectation("accepts: gap at least 1/(n+1)", ACCEPT,
                        gap_lower=lambda x: 1.0 / (len(x) + 1)),
            Expectation("rejects: energy 2/3", REJECT, energy=lambda x: 2.0 / 3.0),
        ],
        tags=("1qqaf", "logsize", "polygap"),
        notes="basis curated to the pair-track chains and their landings; "
              "odd lengths use the same pair set (no middle self-pair)",
    )


# ---------------------------------------------------------------------------
# Entry: unary subset sum (promise problem)
# ---------------------------------------------------------------------------

def parse_usubsum(x: str):
    """Split 0^t # 1^(n1) # ... # 1^(nk); PromiseError on malformed shapes."""
    blocks = x.split("#")
    if len(blocks) < 2:
        raise PromiseError("need at least one # separator")
    zeros, ones = blocks[0], blocks[1:]
    if not zeros or set(zeros) != {"0"}:
        raise PromiseError("first block must be 0^t with t >= 1")
    counts = []
    for b in ones:
        if not b or set(b) != {"1"}:
            raise PromiseError("later blocks must be 1^n with n >= 1")
        counts.append(len(b))
    return len(zeros), counts


def usubsum_subset_count(t: int, counts: list) -> int:
    k = len(counts)
    hits = 0
    for mask in range(1, 2**k):
        total = sum(counts[i] for i in range(k) if mask >> i & 1)
        if total == t:
            hits += 1
    return hits


class _USubSumTrack(_Track):
    """Counter automaton of one subset choice s (a bit per block) over
    registers (i, j).

    i counts separators (mod k+1), j accumulates +1 per 0 in the first block
    and -1 per 1 inside chosen blocks, cyclically wrapped on [-kl, t].  The
    endmarkers leave both alone.
    """

    def __init__(self, t: int, counts: list, s: str):
        self.t = t
        self.k = len(counts)
        self.l = max(counts)
        self.chosen = frozenset(i + 1 for i, bit in enumerate(s) if bit == "1")
        self.j_span = self.k * self.l + self.t + 1  # covers [-kl, t]

    @property
    def registers(self) -> list:
        return [("i", tuple(range(self.k + 1))), ("j", tuple(range(-self.k * self.l, self.t + 1)))]

    def _wrap_j(self, j: int) -> int:
        lo = -self.k * self.l
        return (j - lo) % self.j_span + lo

    def move(self, state, ch: str):
        i, j = state
        if ch == "#":
            return ((i + 1) % (self.k + 1), j)
        if ch == "0":
            if i == 0:
                return (i, self._wrap_j(j + 1))
            return state
        if ch == "1":
            if i in self.chosen:
                return (i, self._wrap_j(j - 1))
            return state
        if ch == CENT or ch == DOLLAR:
            return state
        raise GalleryError(f"bad symbol {ch!r}")


def _usubsum_layout(x: str) -> TrackLayout:
    """Each subset track's start and, when it moves, its landing."""
    t, counts = parse_usubsum(x)
    k = len(counts)
    subsets = ["".join(bits) for bits in itertools.product("01", repeat=k)]
    zero_track = subsets[0]
    q0 = {(s, k, 0, 0, 0) for s in subsets}
    return _landing_layout(x, [("s", tuple(subsets))],
                           {(s,): _USubSumTrack(t, counts, s) for s in subsets}, (0, 0),
                           halting=q0, acc=q0 - {(zero_track, k, 0, 0, 0)},
                           rej={(zero_track, k, t, 0, 0)})


def _build_usubsum() -> GalleryEntry:
    def oracle(x: str) -> str:
        try:
            t, counts = parse_usubsum(x)
        except PromiseError:
            return NOT_PROMISED
        hits = usubsum_subset_count(t, counts)
        if hits > 1:
            return NOT_PROMISED
        return ACCEPT if hits == 1 else REJECT

    return _track_entry(
        "usubsum", ("0", "1", "#"), _usubsum_layout, oracle,
        expectations=[
            Expectation("accepts: ground energy 0", ACCEPT, energy=lambda x: 0.0),
            Expectation("rejects: ground energy 1/2", REJECT, energy=lambda x: 0.5),
            Expectation("gap at least 1/2 on both sides", gap_lower=lambda x: 0.5),
        ],
        tags=("1qqaf", "linsize", "constgap"),
        notes="basis curated to subset-track starts and landings; the "
              "rejection landing carries counter value t (the idle track "
              "accumulates the full first block)",
        promise=lambda x: oracle(x) != NOT_PROMISED,
    )


# ---------------------------------------------------------------------------
# Entry: multiple duplication (promise problem)
# ---------------------------------------------------------------------------

def parse_multdup(x: str):
    blocks = x.split("#")
    if len(blocks) < 2:
        raise PromiseError("need at least one # separator")
    l = len(blocks[0])
    if l == 0 or any(len(b) != l for b in blocks):
        raise PromiseError("blocks must share a positive common length")
    if any(set(b) - {"0", "1"} for b in blocks):
        raise PromiseError("blocks must be binary")
    return blocks


def multdup_differences(blocks: list) -> list:
    w0 = blocks[0]
    return [
        (i, j + 1)
        for i in range(1, len(blocks))
        for j in range(len(w0))
        if blocks[i][j] != w0[j]
    ]


_MD_SYMBOLS = ("0", "1", "B")


class _MultDupTrack(_Track):
    """Comparison automaton of one pair (block i, cell j) over registers
    (symbol, separators-seen, cell-in-block, position) on an input of k + 1
    blocks of length l."""

    def __init__(self, k: int, l: int, i: int, j: int):
        self.i, self.j = i, j
        self.k, self.l = k, l
        self.n_pos = (k + 1) * (l + 1) + 1   # k + 1 blocks, k separators, 2 endmarkers

    @property
    def registers(self) -> list:
        return [("sym", _MD_SYMBOLS), ("h", tuple(range(self.k + 1))),
                ("r", tuple(range(self.l + 1))), ("pos", tuple(range(self.n_pos)))]

    def _sym_map(self, sym, h, r, c):
        # Recording swap at (w0)_j, comparison swap at (w_i)_j.
        if h == 0 and r == self.j:
            return {"B": c, c: "B"}.get(sym, sym)
        if h == self.i and r == self.j and self.i > 0:
            other = "1" if c == "0" else "0"
            return {c: c, other: "B", "B": other}[sym]
        return sym

    def move(self, state, c: str):
        """Permutation of (sym, block-counter, cell-counter, pos)."""
        sym, h, r, pos = state
        nxt = (pos + 1) % self.n_pos
        if c == "#":
            # Separator: bump the block counter, rewind the in-block counter
            # (full blocks arrive with r = l, which maps back to 0).
            return (sym, (h + 1) % (self.k + 1), (r - self.l) % (self.l + 1), nxt)
        if c == CENT:
            return (sym, h, r, nxt)
        if c == DOLLAR:
            # Rewind the in-block counter as a separator does.
            return (sym, h, (r - self.l) % (self.l + 1), nxt)
        r2 = (r + 1) % (self.l + 1)
        return (self._sym_map(sym, h, r2, c), h, r2, nxt)


def _multdup_layout(x: str) -> TrackLayout:
    """Each comparison track's start and, when it moves, its landing."""
    blocks = parse_multdup(x)
    k, l = len(blocks) - 1, len(blocks[0])
    pairs = [(0, 0)] + [(i, j) for i in range(1, k + 1) for j in range(1, l + 1)]
    q0 = {(i, j, "B", k, 0, 0, "B", 0, 0, 0) for (i, j) in pairs[1:]}
    return _landing_layout(x, [("i", tuple(range(k + 1))), ("j", tuple(range(l + 1)))],
                           {(i, j): _MultDupTrack(k, l, i, j) for (i, j) in pairs},
                           ("B", 0, 0, 0), halting=q0, acc=q0,
                           rej={(0, 0, "B", k, 0, 0, "B", 0, 0, 0)})


def _build_multdup() -> GalleryEntry:
    def oracle(x: str) -> str:
        try:
            blocks = parse_multdup(x)
        except PromiseError:
            return NOT_PROMISED
        diffs = multdup_differences(blocks)
        if len(diffs) > 1:
            return NOT_PROMISED
        return ACCEPT if not diffs else REJECT

    return _track_entry(
        "multdup", ("0", "1", "#"), _multdup_layout, oracle,
        expectations=[
            Expectation("all blocks equal: ground energy 1/2", ACCEPT, energy=lambda x: 0.5),
            Expectation("one difference: ground energy 0", REJECT, energy=lambda x: 0.0),
            Expectation("gap at least 1/2 on promised inputs", gap_lower=lambda x: 0.5),
        ],
        tags=("1qqaf", "logsize", "constgap"),
        notes="verbatim orientation: the accepting space marks inequality "
              "witnesses (the complement side of the duplication problem); "
              "promise tightened to at most one differing symbol so the "
              "witness, and with it the ground state, stays unique",
        promise=lambda x: oracle(x) != NOT_PROMISED,
        # The construction marks difference witnesses as accepting, i.e. it
        # accepts the complement side of the duplication problem.
        orientation="swapped",
    )


def _build_multdup_complement() -> GalleryEntry:
    base = _build_multdup()

    def rows(xs: list) -> tuple:
        # multdup's rows with the criteria exchanged, as complement
        # exchanges them in every instance.
        *head, acc_idx, rej_idx, epsilon = base.rows(xs)
        return (*head, rej_idx, acc_idx, epsilon)

    return GalleryEntry(
        name="multdup_complement",
        family=complement(base.family),
        oracle=base.oracle,
        orientation="direct",
        expectations=[
            Expectation("all blocks equal: ground energy 1/2", ACCEPT, energy=lambda x: 0.5),
            Expectation("one difference: ground energy 0", REJECT, energy=lambda x: 0.0),
        ],
        notes="criteria-swapped wrapper whose accept side is the duplication "
              "problem's own accept side (all blocks equal)",
        validation_levels=base.validation_levels,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Entry: marked even-length palindromes (full surface space, verbatim)
# ---------------------------------------------------------------------------

_PAL_Q = ("q1", "q2", "q3", "q4", "q5")
# U_a and U_b on (q1, q2, q3), row = target, column = source; q4 and q5 are
# untouched.  Right of the marker the inverse rotation, the transpose, acts.
_PAL_ROT = {
    "a": np.array([[0.8, 0.6, 0.0], [-0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]),
    "b": np.array([[0.8, 0.0, 0.6], [0.0, 1.0, 0.0], [-0.6, 0.0, 0.8]]),
    "#": np.eye(3),
}
_PAL_DECAY_KEEP = 1.0 / 25.0
_PAL_DECAY_SWITCH = 4.0 * math.sqrt(39.0) / 25.0
_PAL_ALPHABET = ("a", "b", "#")
# The start surface state: both register groups read xi0 = (q1, phase 1,
# head 0), and the head is at 0.
_PAL_START = (("q1", 1, "q1", 1, 0), 0)


def _pal_level(x: str) -> TwoWayQqafLevel:
    """The palindrome level of x on its full surface space.

    The symbols are checked first, since the rotation table reads them.
    Surface index = mixed radix over (q, k, q0, k0, h0, pos), with q and q0
    counted from q1 = 0; Lambda0 and both Kraus families are built on these
    coordinate arrays.
    """
    check_symbols(_PAL_ALPHABET, x)
    n = len(x)
    n_pos = n + 2
    hash_pos = x.index("#") + 1 if "#" in x else n + 1
    phases = (0, 1, 2)
    inner = tuple(itertools.product(_PAL_Q, phases, _PAL_Q, phases, range(n_pos)))
    schema = surface_schema(inner, n)
    shape = (len(_PAL_Q), len(phases), len(_PAL_Q), len(phases), n_pos, n_pos)
    q, k, q0, k0, h0, pos = np.unravel_index(np.arange(schema.dim), shape)

    def kraus_pair(blocks) -> list:
        """blocks: (op, mask, new (q, k, q0, k0, h0, pos), amplitude), each
        coordinate and the amplitude a scalar or an array over the columns;
        each masked column gets one entry in Kraus operator `op`."""
        parts = ([], [])
        for op, mask, coords, amp in blocks:
            cols = np.flatnonzero(mask)
            coords = [at_columns(c, cols) for c in coords]
            parts[op].append((np.ravel_multi_index(coords, shape), cols, at_columns(amp, cols)))
        return [SparseOp(schema.dim, *map(np.concatenate, zip(*part))) for part in parts]

    def at_columns(c, cols) -> np.ndarray:
        return np.full(cols.size, c) if np.isscalar(c) else c[cols]

    # First move: the fixation pair folded with the endmarker scan (head
    # 0 -> 1): keep states whose leading registers already read xi0, park
    # the rest by swapping the two register groups.
    keep = (q == 0) & (k == 1) & (pos == 0)
    first = kraus_pair([
        (0, keep, (q, k, q0, k0, h0, 1), 1.0),
        (1, ~keep, (q0, k0, q, k, pos, (h0 + 1) % n_pos), 1.0),
    ])

    live = (q0 == 0) & (k0 == 1) & (h0 == 0)   # the parked registers read xi0
    nxt = (pos + 1) % n_pos
    end = pos == n + 1
    q23 = (q == 1) | (q == 2)
    q45 = q >= 3
    scan = live & (k == 1) & ~end
    rotate = scan & (pos > 0) & ~q45
    decay = live & (k == 2) & q23
    # Rotation amplitude table [pos, target, source] by scanned symbol.
    rot = np.zeros((n_pos, 3, 3))
    for p in range(1, n + 1):
        u = _PAL_ROT[x[p - 1]]
        rot[p] = u.T if p > hash_pos else u

    def after(*new):
        return new[:2] + (q0, k0, h0) + new[2:]

    blocks = [
        (0, ~live, after(q, k, pos), 1.0),                  # parked mass stays put
        # First phase at the right endmarker: q1 is done, q2 and q3 start
        # the second phase.
        (0, live & (k == 1) & end & (q == 0), after(0, 0, 0), 1.0),
        (0, live & (k == 1) & end & q23, after(q, 2, 0), 1.0),
        (0, live & (k == 1) & end & q45, after(q, 1, 0), 1.0),
        (0, scan & ~rotate, after(q, 1, nxt), 1.0),
        (1, live & (k == 0), after(q, 0, nxt), 1.0),       # done states cycle on K2
        # Second phase: q2 and q3 decay into q4 and q5.
        (0, decay & end, after(q + 2, 0, 0), 1.0),
        (0, decay & ~end, after(q, 2, nxt), _PAL_DECAY_KEEP),
        (1, decay & ~end, after(q + 2, 2, nxt), _PAL_DECAY_SWITCH),
        (0, live & (k == 2) & ~q23, after(q, 2, nxt), 1.0),
    ]
    src = np.minimum(q, 2)
    for dst in range(3):
        amp = rot[pos, dst, src]
        blocks.append((0, rotate & (amp != 0), after(dst, 1, nxt), amp))

    step = kraus_pair(blocks)
    lam0 = np.ones(schema.dim)
    lam0[schema.index(_PAL_START)] = _PAL_DECAY_KEEP
    return TwoWayQqafLevel(
        schema=schema,
        lam0=SparseHermitian.diagonal(lam0),
        ops={CENT: first, STEP: step},
        steps=2 * n + 3,
        name=f"pal_marked[n={n}]",
    )


def _build_pal_marked() -> GalleryEntry:
    # Imported here, not at the top, so that a wrap of qqa.generate_2qqaf
    # installed before the entry is built takes effect.
    from .qqa import generate_2qqaf

    def build(x: str) -> AeqsInstance:
        generated = generate_2qqaf(_pal_level(x))
        schema = generated.basis
        s_acc = [(("q1", 0, "q1", 1, 0), 0)]
        s_rej = [(("q4", 0, "q1", 1, 0), 0), (("q5", 0, "q1", 1, 0), 0)]
        return aeqs_instance(schema, deflation_hamiltonian(schema.dim, schema.index(_PAL_START)),
                             generated.operator, schema.indices_of(s_acc),
                             schema.indices_of(s_rej))

    family = AeqsFamily(
        alphabet=_PAL_ALPHABET, builder=build,
        tags=("ltime-2qqaf", "logsize"), name="pal_marked",
    )

    def oracle(x: str) -> str:
        if "#" not in x:
            return REJECT
        head, _, tail = x.partition("#")
        return ACCEPT if tail == head[::-1] and set(x) <= set(_PAL_ALPHABET) else REJECT

    return GalleryEntry(
        name="pal_marked",
        family=family,
        oracle=oracle,
        findings_mode=True,
        expectations=[],
        notes="kept verbatim on the full surface-configuration space; the "
              "register-parking first step leaves dynamically unreachable "
              "sectors with zero weight, so the operator's ground space is "
              "wider than the intended accept/reject supports -- verify() "
              "reports this as a finding rather than adjusting the "
              "construction",
        validation_levels=lambda x: [_pal_level(x)],
    )


def pal_lambda_witness(x: str) -> float:
    """<xi0,xi0| Lambda0 |xi0,xi0> of the palindrome level; exactly 1/25."""
    level = _pal_level(x)
    lam, idx = level.lam0, level.schema.index(_PAL_START)
    return float(lam.vals[(lam.rows == idx) & (lam.cols == idx)].real.sum())


# ---------------------------------------------------------------------------
# Registry, sweeps, verification
# ---------------------------------------------------------------------------

_BUILDERS = {
    "l_prefix_0": lambda: _build_l_prefix("0"),
    "l_prefix_1": lambda: _build_l_prefix("1"),
    "equal": _build_equal,
    "sym_coin": _build_sym_coin,
    "pal_marked": _build_pal_marked,
    "usubsum": _build_usubsum,
    "multdup": _build_multdup,
    "multdup_complement": _build_multdup_complement,
}

GALLERY_NAMES = tuple(_BUILDERS)


def build(name: str) -> GalleryEntry:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise GalleryError(
            f"unknown gallery entry {name!r}; known: {', '.join(GALLERY_NAMES)}"
        ) from None
    return builder()


def _check_sweep(sizes) -> None:
    """CapacityError once the running total of sizes, the inputs a sweep
    enumerates, passes VERIFY_INPUTS_MAX.  The sizes follow the sweep's own
    loops and the count stops at the limit, so it never costs more than the sweep."""
    for total in itertools.accumulate(sizes):
        capacity(total, VERIFY_INPUTS_MAX, "VERIFY_INPUTS_MAX", "a sweep of at least")


def strings_up_to(alphabet, max_len: int):
    """The words of length 0 .. max_len, shortest first; none for max_len = -1."""
    integer(max_len, "max_len", GalleryError, low=-1)
    _check_sweep(len(alphabet) ** length for length in range(max_len + 1))
    return ("".join(tup) for length in range(max_len + 1)
            for tup in itertools.product(alphabet, repeat=length))


def usubsum_inputs(t_max: int, k_max: int, l_max: int, promised_only: bool = True):
    integer(t_max, "t_max", GalleryError)
    integer(k_max, "k_max", GalleryError)
    integer(l_max, "l_max", GalleryError)
    _check_sweep(l_max ** k for _ in range(t_max) for k in range(1, k_max + 1))
    out = []
    for t in range(1, t_max + 1):
        for k in range(1, k_max + 1):
            for counts in itertools.product(range(1, l_max + 1), repeat=k):
                x = "0" * t + "".join("#" + "1" * c for c in counts)
                if not promised_only or usubsum_subset_count(t, list(counts)) <= 1:
                    out.append(x)
    return out


def multdup_inputs(k_max: int, l_max: int):
    """All promised inputs: identical blocks, or one single-symbol change."""
    integer(k_max, "k_max", GalleryError)
    integer(l_max, "l_max", GalleryError)
    _check_sweep(2**l * (1 + k * l) for k in range(1, k_max + 1) for l in range(1, l_max + 1))
    out = []
    for k in range(1, k_max + 1):
        for l in range(1, l_max + 1):
            for bits in itertools.product("01", repeat=l):
                w = "".join(bits)
                out.append("#".join([w] * (k + 1)))
                for i in range(1, k + 1):
                    for j in range(l):
                        changed = w[:j] + ("1" if w[j] == "0" else "0") + w[j + 1:]
                        blocks = [w] * (k + 1)
                        blocks[i] = changed
                        out.append("#".join(blocks))
    return out


# Per entry a promise-parameter sweep covers: its bounds with their defaults,
# in the order its input generator takes them, and the generator.
PARAMETER_SWEEPS = {
    "usubsum": ({"t": 3, "k": 2, "l": 2}, functools.partial(usubsum_inputs, promised_only=False)),
    "multdup": ({"k": 2, "l": 2}, multdup_inputs),
    "multdup_complement": ({"k": 2, "l": 2}, multdup_inputs),
}


@dataclass
class VerifyRecord:
    x: str
    expected: str
    verdict: object


@dataclass
class VerifyReport:
    entry: str
    checked: int = 0
    skipped_unpromised: int = 0
    mismatches: list = field(default_factory=list)
    expectation_failures: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    records: list = field(default_factory=list)
    expectation_hits: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.mismatches and not self.expectation_failures

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "entry": self.entry,
            "checked": self.checked,
            "skipped_unpromised": self.skipped_unpromised,
            "mismatches": self.mismatches,
            "expectation_failures": self.expectation_failures,
            "findings": self.findings,
            "passed": self.passed,
        }


def _verdicts(entry: GalleryEntry, xs: list) -> list:
    """The verdicts of xs, in order: one ``decide_rows`` call per length on
    ``entry.rows``, with no instance built, or ``family.decide(x)`` per
    input for an entry without rows."""
    if entry.rows is None:
        return [entry.family.decide(x) for x in xs]
    groups = {}
    for pos, x in enumerate(xs):
        groups.setdefault(len(x), []).append(pos)
    verdicts = [None] * len(xs)
    for positions in groups.values():
        decided = decide_rows(*entry.rows([xs[pos] for pos in positions]))
        for pos, verdict in zip(positions, decided):
            verdicts[pos] = verdict
    return verdicts


def verify(entry: GalleryEntry, inputs) -> VerifyReport:
    """Sweep the decisions against the classical oracle and the spectral
    claims.

    ``inputs`` is read once.  The oracle is asked once per input; its answer
    gives the expected outcome and the expectations that apply.
    Promise-problem inputs outside the promise are skipped, and the promised
    inputs are then decided by ``_verdicts``.
    Records, mismatches, findings and expectation failures come in input
    order.  For entries in findings mode, deviations are accumulated as
    structured findings naming the construction instead of as mismatches.
    """
    report = VerifyReport(entry=entry.name)
    checks = []           # (x, expected, [(description, wanted energy, wanted gap)])
    for x in inputs:
        side = entry.oracle(x)
        expected = entry.expected_outcome(side)
        if expected == NOT_PROMISED:
            report.skipped_unpromised += 1
            continue
        claims = []
        for exp in entry.expectations:
            if exp.side not in (None, side):
                continue
            report.expectation_hits[exp.description] = (
                report.expectation_hits.get(exp.description, 0) + 1
            )
            claims.append((exp.description,
                           None if exp.energy is None else exp.energy(x),
                           None if exp.gap_lower is None else exp.gap_lower(x)))
        checks.append((x, expected, claims))
    verdicts = _verdicts(entry, [x for x, _, _ in checks])
    for (x, expected, claims), verdict in zip(checks, verdicts):
        report.checked += 1
        report.records.append(VerifyRecord(x=x, expected=expected, verdict=verdict))
        if verdict.outcome != expected:
            item = {
                "x": x,
                "expected": expected,
                "got": verdict.outcome,
                "ground_energy": verdict.ground_energy,
                "unique_ground": verdict.unique_ground,
            }
            if entry.findings_mode:
                item["finding"] = (
                    f"{entry.name}: ground-state support deviates from the "
                    f"construction's intended criteria space on {x!r}"
                )
                report.findings.append(item)
            else:
                report.mismatches.append(item)
        for description, energy, gap in claims:
            if energy is not None and abs(verdict.ground_energy - energy) > EXPECTATION_TOL:
                report.expectation_failures.append(
                    {"x": x, "expectation": description,
                     "want_energy": energy, "got_energy": verdict.ground_energy}
                )
            if gap is not None and verdict.spectral_gap < gap - EXPECTATION_TOL:
                report.expectation_failures.append(
                    {"x": x, "expectation": description,
                     "want_gap_at_least": gap, "got_gap": verdict.spectral_gap}
                )
    return report
