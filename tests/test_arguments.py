"""The argument contract under hostile values.

Every numeric parameter the package checks goes through ``linalg.integer``
or ``linalg.real``.  For each (callable, parameter) pair below and each
hostile value, the call either succeeds or raises its module's documented
error class, never a bare TypeError or ValueError; a value outside the
parameter's range is always rejected, with a message that names the
parameter and the value; a value inside it always runs.  The inputs are
small, so no accepted value can make a call run long.
"""

import dataclasses
import math
import numbers

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aeqslab import aeqs, compilers, evolve, gallery, linalg, qqa, specdoc
from aeqslab.aeqs import AeqsError
from aeqslab.compilers import CompileError
from aeqslab.evolve import EvolveError, Schedule
from aeqslab.gallery import GalleryError
from aeqslab.linalg import LinalgError, SparseHermitian, SparseOp
from aeqslab.qqa import CENT, DOLLAR, STEP, QqaError
from aeqslab.specdoc import DocumentError, MachineSpecDocument

HOSTILE = [math.nan, math.inf, -math.inf, 0, -1, True, False, 2.5, 1e308,
           np.int64(3), np.float64(2.0)]

INSTANCE = gallery.build("l_prefix_0").family.build("0")
MOQFA = compilers.MoQfaSpec(
    n_states=2, alphabet=("0",), ops={sym: np.eye(2) for sym in (CENT, DOLLAR, "0")},
    q_acc=[0], q_rej=[1])
GARBAGE_DOC = {
    "schema": 1, "kind": "garbage-1qfa", "alphabet": ["0"], "states": 1,
    "garbage_symbols": 1, "accepting": [0],
    "transitions": [[0, sym, 0, 1, 1] for sym in ("cent", "dollar", "0")],
}
MOQFA_DOC = {
    "schema": 1, "kind": "moqfa", "alphabet": ["0"], "states": 2, "accepting": [0],
    "operators": {sym: [[0, 0, 1], [1, 1, 1]] for sym in ("cent", "dollar", "0")},
}


def garbage_spec(p=0, xi=1, **fields):
    delta = {(0, sym): [(p, xi, 1.0)] for sym in (CENT, DOLLAR, "0")}
    return compilers.GarbageQfaSpec(n_states=1, alphabet=("0",), xi_size=1, delta=delta,
                                    q_acc=[0], q_rej=[], **fields)


def document(**fields):
    return MachineSpecDocument.from_dict(dict(MOQFA_DOC, **fields)).to_moqfa()


def two_way_level(steps):
    schema = qqa.surface_schema(("s",), 1)
    return qqa.TwoWayQqafLevel(
        schema=schema, lam0=SparseHermitian.diagonal(np.arange(schema.dim, dtype=float)),
        ops={CENT: [SparseOp.identity(schema.dim)],
             STEP: [SparseOp.permutation([1, 2, 0])]},
        steps=steps)


def integers(low, high=math.inf, kinds=(int, np.integer)):
    return lambda v: isinstance(v, kinds) and not isinstance(v, bool) and low <= v <= high


def reals(low, high, closed_low=True, closed_high=True, kinds=numbers.Real):
    def accepts(v):
        if not isinstance(v, kinds) or isinstance(v, bool) or math.isnan(v):
            return False
        return ((low <= v if closed_low else low < v)
                and (v <= high if closed_high else v < high))
    return accepts


POSITIVE = reals(0.0, math.inf, closed_low=False, closed_high=False)
UNIT = reals(0.0, 1.0)
COUNTS = integers(0)

# (site, name in the message, call on the hostile value, error, accepts)
SITES = [
    ("Schedule.T", "evolution time T", lambda v: Schedule(v, 4), EvolveError,
     reals(0.0, math.inf, closed_high=False)),
    ("Schedule.R", "refinement count R", lambda v: Schedule(1.0, v), EvolveError,
     integers(1)),
    ("Schedule.hbar", "hbar", lambda v: Schedule(1.0, 4, hbar=v), EvolveError, POSITIVE),
    ("evolve_trace.record_every", "record_every",
     lambda v: evolve.evolve_trace(INSTANCE, Schedule(1.0, 4), record_every=v), EvolveError,
     integers(1)),
    ("find_sufficient_t.target", "target overlap",
     lambda v: evolve.find_sufficient_t(INSTANCE, v, t_cap=4.0), EvolveError,
     reals(0.0, 1.0, closed_low=False, closed_high=False)),
    ("find_sufficient_t.t_start", "t_start",
     lambda v: evolve.find_sufficient_t(INSTANCE, 0.5, t_start=v, t_cap=4.0), EvolveError,
     POSITIVE),
    ("find_sufficient_t.t_cap", "t_cap",
     lambda v: evolve.find_sufficient_t(INSTANCE, 0.5, t_cap=v), EvolveError,
     reals(0.0, math.inf, closed_low=False)),
    ("minimum_interpolation_gap.grid", "grid",
     lambda v: aeqs.minimum_interpolation_gap(INSTANCE, v), AeqsError, integers(2)),
    ("adiabatic_time_bound.epsilon", "epsilon",
     lambda v: aeqs.adiabatic_time_bound(INSTANCE, v, 1.0), AeqsError, POSITIVE),
    ("adiabatic_time_bound.delta", "delta",
     lambda v: aeqs.adiabatic_time_bound(INSTANCE, 0.1, v), AeqsError, POSITIVE),
    ("adiabatic_time_bound.c", "constant c",
     lambda v: aeqs.adiabatic_time_bound(INSTANCE, 0.1, 1.0, c=v), AeqsError, POSITIVE),
    ("adiabatic_time_bound.grid", "grid",
     lambda v: aeqs.adiabatic_time_bound(INSTANCE, 0.1, 1.0, grid=v), AeqsError, integers(2)),
    ("interpolated_hamiltonian.s", "interpolation parameter s",
     lambda v: aeqs.interpolated_hamiltonian(INSTANCE, v), AeqsError, UNIT),
    ("AeqsInstance.epsilon", "accuracy bound epsilon",
     lambda v: dataclasses.replace(INSTANCE, epsilon=v), AeqsError, UNIT),
    ("lowest_pairs.k", "pair count k", lambda v: aeqs.lowest_pairs(INSTANCE.h_fin, v),
     AeqsError, integers(1, INSTANCE.dim)),
    ("MoQfaSpec.error_bound", "error_bound",
     lambda v: dataclasses.replace(MOQFA, error_bound=v), CompileError, UNIT),
    ("MoQfaSpec.initial", "initial state", lambda v: dataclasses.replace(MOQFA, initial=v),
     CompileError, integers(0, 1)),
    ("GarbageQfaSpec.error_bound", "error_bound", lambda v: garbage_spec(error_bound=v),
     CompileError, UNIT),
    ("GarbageQfaSpec.initial", "initial state", lambda v: garbage_spec(initial=v),
     CompileError, integers(0, 0)),
    ("GarbageQfaSpec.target", "target state", lambda v: garbage_spec(p=v), CompileError,
     integers(0, 0)),
    ("GarbageQfaSpec.garbage", "garbage symbol", lambda v: garbage_spec(xi=v), CompileError,
     integers(1, 1)),
    # A document's numbers are JSON's: an int or a float, never a numpy scalar.
    ("document.error_bound", "error_bound", lambda v: document(error_bound=v), DocumentError,
     reals(0.0, 1.0, kinds=(int, float))),
    ("document.initial", "initial state", lambda v: document(initial=v), DocumentError,
     integers(0, 1, kinds=int)),
    ("document.row", "row",
     lambda v: document(operators=dict(MOQFA_DOC["operators"], cent=[[v, 0, 1], [1, 1, 1]])),
     DocumentError, integers(0, 1, kinds=int)),
    ("document.states", "states",
     lambda v: MachineSpecDocument.from_dict(dict(GARBAGE_DOC, states=v)).to_garbage_qfa(),
     DocumentError, integers(1, 1, kinds=int)),
    ("document.garbage_symbols", "garbage_symbols",
     lambda v: MachineSpecDocument.from_dict(dict(GARBAGE_DOC, garbage_symbols=v)).to_garbage_qfa(),
     DocumentError, integers(1, 1, kinds=int)),
    ("evaluate_amplitude", "amplitude", specdoc.evaluate_amplitude, DocumentError,
     reals(-math.inf, math.inf, closed_low=False, closed_high=False, kinds=(int, float))),
    ("lowest_eigenpairs.k", "pair count k",
     lambda v: linalg.lowest_eigenpairs(SparseHermitian.diagonal([0.0, 1.0, 2.0, 3.0]), v),
     LinalgError, integers(1, 4)),
    ("hadamard_power.k", "Hadamard power k", linalg.hadamard_power, LinalgError, COUNTS),
    ("generate_2qqaf.steps", "step count", lambda v: qqa.generate_2qqaf(two_way_level(v)),
     QqaError, COUNTS),
    ("strings_up_to.max_len", "max_len", lambda v: list(gallery.strings_up_to("ab", v)),
     GalleryError, integers(-1)),
    ("usubsum_inputs.t_max", "t_max", lambda v: gallery.usubsum_inputs(v, 2, 2),
     GalleryError, COUNTS),
    ("usubsum_inputs.k_max", "k_max", lambda v: gallery.usubsum_inputs(2, v, 2),
     GalleryError, COUNTS),
    ("usubsum_inputs.l_max", "l_max", lambda v: gallery.usubsum_inputs(2, 2, v),
     GalleryError, COUNTS),
    ("multdup_inputs.k_max", "k_max", lambda v: gallery.multdup_inputs(v, 2), GalleryError,
     COUNTS),
    ("multdup_inputs.l_max", "l_max", lambda v: gallery.multdup_inputs(2, v), GalleryError,
     COUNTS),
]


@pytest.mark.parametrize("name, call, error, accepts", [site[1:] for site in SITES],
                         ids=[site[0] for site in SITES])
@settings(max_examples=4 * len(HOSTILE), deadline=None)
@given(value=st.sampled_from(HOSTILE))
# Tried on every run: the values that used to pass a check (a bool, a
# fraction) or to raise a bare ValueError (a nan grid).
@example(value=True)
@example(value=2.5)
@example(value=math.nan)
def test_hostile_value_runs_or_raises_the_documented_error(name, call, error, accepts, value):
    if accepts(value):
        call(value)
    else:
        with pytest.raises(error) as rejected:
            call(value)
        assert name in str(rejected.value) and repr(value) in str(rejected.value)


@pytest.mark.parametrize("check, value, kwargs", [
    (linalg.integer, 3, {}),
    (linalg.integer, np.int64(3), {}),
    (linalg.real, 0.5, {"high": 1.0}),
    (linalg.real, 2, {}),
    (linalg.real, math.inf, {}),
])
def test_a_check_returns_the_value_unchanged(check, value, kwargs):
    assert check(value, "x", LinalgError, **kwargs) is value


@pytest.mark.parametrize("check, value, kwargs, message", [
    (linalg.integer, True, {}, "invalid x True: need an integer in [0, inf)"),
    (linalg.integer, -1, {}, "negative x -1: need an integer in [0, inf)"),
    (linalg.integer, 4, {"low": 1, "high": 3}, "invalid x 4: need an integer in [1, 3]"),
    (linalg.real, math.nan, {}, "invalid x nan: need a real in [0.0, inf]"),
    (linalg.real, math.inf, {"open_high": True}, "need a finite real in [0.0, inf)"),
    (linalg.real, 0.0, {"open_low": True}, "invalid x 0.0: need a real in (0.0, inf]"),
    (linalg.real, "1", {}, "invalid x '1': need a real in [0.0, inf]"),
])
def test_a_rejection_names_the_parameter_the_value_and_the_range(check, value, kwargs, message):
    with pytest.raises(LinalgError) as rejected:
        check(value, "x", LinalgError, **kwargs)
    assert message in str(rejected.value)
