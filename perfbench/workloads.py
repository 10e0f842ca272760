"""The benchmark workloads: seeded inputs, one timed pass, result checks.

The two workloads the runner offers each join two parts: ``evolve`` is the
sufficient-time search followed by the per-step evolution paths and the gap
scan, and ``decide`` is the large decides followed by the sweep of small
instances.  Each part makes its inputs from the seed alone, builds what a
user would build before the first operation (``setup``, which ends with one
untimed warm-up operation), and then runs a fixed list of operations per
``pass_``.
Every operation's result is checked; a wrong result or an exception counts
as a failed operation.  Calls into the package go through module attributes
(``aeqs.decide``, not a local alias) so that the traced run's patches see
them.

Operations run one after another from one thread: a closed loop with
a single client.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from aeqslab import aeqs, cli, compilers, evolve, gallery
from tracing import NullTracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

OVERLAP_TOL = 1e-7      # compiled overlaps against the direct simulators
SPECTRAL_TOL = 1e-8     # ground energy and gap against their analyzed values
NORM_TOL = 1e-9         # trace-record norms against 1
PHASE_TROTTER_TOL = 1e-10
REFERENCE_TOL = 1e-9    # gap absolute, time bound relative to its size


SAMPLE_EVERY_S = 2.0    # CPU seconds between host-speed samples


class Tally:
    """Operations attempted and failed in one pass, and the seconds taken by
    the operations whose results passed their checks.

    Only the call into the package is timed; checking its result is not.
    Times are kept as wall time and as process CPU time per part.  With a
    ``HostSpeed``, the CPU times are also kept rescaled to its reference
    speed (``norm``), by samples taken between operations once
    ``SAMPLE_EVERY_S`` has passed, from inside an operation through
    ``sample``, and by ``flush`` at the end of a pass.  Sampling time is
    left out of the operations.
    """

    def __init__(self, speed=None):
        self.attempted = 0
        self.failed = 0
        self.wall = {}          # part -> wall seconds
        self.cpu = {}           # part -> process CPU seconds
        self.norm = {}          # part -> CPU seconds at the reference speed
        self.speed = speed
        self._spans = []        # (part, CPU start, CPU end) not yet rescaled

    def sample(self):
        """Sample the host's speed now, if this tally rescales."""
        if self.speed:
            self.speed.sample()

    def ops(self, part, count, fn, failures):
        """Run ``fn`` as ``count`` operations of ``part``; ``failures(result)``
        says how many gave a wrong result.  An exception fails all of them,
        and a call with any failed operation adds no time."""
        if self.speed and self.speed.cpu_since_sample() >= SAMPLE_EVERY_S:
            self.speed.sample()
        self.attempted += count
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            result = fn()
            wall, cpu = (wall, time.perf_counter()), (cpu, time.process_time())
            failed = min(count, failures(result))
        except Exception:  # any error of the program is a failed operation
            traceback.print_exc(limit=3, file=sys.stderr)
            failed = count
        self.failed += failed
        if not failed:
            sampled_cpu, sampled_wall = self.speed.sampling(cpu, wall) if self.speed else (0, 0)
            self.wall[part] = self.wall.get(part, 0.0) + wall[1] - wall[0] - sampled_wall
            self.cpu[part] = self.cpu.get(part, 0.0) + cpu[1] - cpu[0] - sampled_cpu
            if self.speed:
                self._spans.append((part, *cpu))

    def flush(self):
        """Sample the host's speed and rescale the operations not yet
        rescaled."""
        if not self.speed:
            return
        self.speed.sample()
        for part, start, end in self._spans:
            self.norm[part] = self.norm.get(part, 0.0) + self.speed.rescaled(start, end)
        self._spans = []

    def op(self, part, fn, check):
        self.ops(part, 1, fn, lambda result: 0 if check(result) else 1)


# ---------------------------------------------------------------------------
# search (evolve): the sufficient-time search on a pinned prefix instance
# ---------------------------------------------------------------------------

def check_search(result, expect_t, expect_evaluations, target) -> bool:
    return (result.converged and result.t == expect_t and result.overlap_sq >= target
            and len(result.evaluations) == expect_evaluations)


class Search:
    """find_sufficient_t(inst, 0.99, t_cap=1e4) with the default T^3 policy."""

    PINNED = (("l_prefix_0", "0"), ("l_prefix_1", "1"))
    SIZES = {
        "full": {"target": 0.99, "expect_t": 70.0, "expect_evaluations": 13},
        "smoke": {"target": 0.5, "expect_t": 10.25, "expect_evaluations": 10},
    }

    def __init__(self, seed, size, workdir):
        self.size = self.SIZES[size]
        self.name, self.x = self.PINNED[int(np.random.default_rng(seed).integers(2))]

    def setup(self):
        self.instance = gallery.build(self.name).family.build(self.x)
        # Warm-up: the search's own first evaluation.
        evolve.final_overlap_sq(self.instance, evolve.Schedule(1.0, evolve.default_r_policy(1.0)))

    def pass_(self, tally, tracer):
        size = self.size

        def r_policy(t):
            # The default policy.  It is called before each evaluation, so
            # the host's speed is sampled there: the search is one long call,
            # and only samples taken during it track the speed it ran at.
            tally.sample()
            return evolve.default_r_policy(t)

        def search():
            result = evolve.find_sufficient_t(self.instance, size["target"], r_policy=r_policy,
                                              t_cap=1e4)
            tracer.add("evolve.useful_steps", evolve.default_r_policy(result.t))
            return result

        tally.op("search_s", search, lambda r: check_search(
            r, size["expect_t"], size["expect_evaluations"], size["target"]))


# ---------------------------------------------------------------------------
# decide_large (decide): one large input at a time, sparse (CLI) and dense
# ---------------------------------------------------------------------------

def palindrome_outcome(x: str) -> str:
    head, _, tail = x.partition("#")
    return "accept" if tail == head[::-1] else "reject"


def check_cli_run(code, report, x, dimension) -> bool:
    """A ``pal_marked`` run: a decided outcome must be the oracle's; an
    undecided one must be the documented finding (degenerate ground space)."""
    if code not in (0, 1, 2) or report["dimension"] != dimension:
        return False
    if abs(report["ground_energy"]) > SPECTRAL_TOL:
        return False
    if report["unique_ground"]:
        return report["outcome"] == palindrome_outcome(x)
    return report["outcome"] == "indeterminate" and code == 2


def xor_outcome(x: str) -> str:
    return "accept" if x.startswith("1") != x.endswith("0") else "reject"


def dense_family():
    """xor_product(l_prefix_1, inverse_image(l_prefix_0, reversal)): dense."""
    return aeqs.xor_product(
        gallery.build("l_prefix_1").family,
        aeqs.inverse_image(gallery.build("l_prefix_0").family, lambda s: s[::-1], "reversal"),
    )


class DecideLarge:
    SIZES = {
        "full": {"half": 2, "sparse_inputs": 8, "dimension": 11025,
                 "dense_lengths": (4, 4, 5, 5, 6, 6)},
        "smoke": {"half": 1, "sparse_inputs": 2, "dimension": 5625,
                  "dense_lengths": (2, 3)},
    }

    def __init__(self, seed, size, workdir):
        self.size = self.SIZES[size]
        self.seed = seed
        self.out = Path(workdir) / f"run-{os.getpid()}.json"

    def _inputs(self):
        rng = np.random.default_rng(self.seed)
        words = ["".join(w) for w in itertools.product("ab", repeat=self.size["half"])]
        palindromes = [w + "#" + w[::-1] for w in words]
        others = [w + "#" + v for w in words for v in words if v != w[::-1]]
        half = self.size["sparse_inputs"] // 2
        chosen = (list(rng.choice(palindromes, half, replace=False))
                  + list(rng.choice(others, half, replace=False)))
        sparse = [str(x) for x in rng.permutation(chosen)]
        dense = ["".join(rng.choice(["0", "1"], n)) for n in self.size["dense_lengths"]]
        return sparse, dense

    def setup(self):
        self.sparse, self.dense = self._inputs()
        # Warm-up: one operation of each kind, on the first input of each.
        self._cli_run(self.sparse[0], NullTracer())
        self._report()
        dense_family().decide(self.dense[0])

    def _cli_run(self, x, tracer):
        self.out.unlink(missing_ok=True)
        with tracer.span("cli"):
            return cli.main(["run", "pal_marked", x, "--out", str(self.out)])

    def _report(self):
        """The report the last CLI run wrote; the file is removed."""
        try:
            with open(self.out, encoding="utf-8") as fh:
                return json.load(fh)
        finally:
            self.out.unlink(missing_ok=True)

    def pass_(self, tally, tracer):
        dimension = self.size["dimension"]
        for x in self.sparse:
            tally.op("decide_sparse_s", lambda: self._cli_run(x, tracer),
                     lambda code: check_cli_run(code, self._report(), x, dimension))
        for x in self.dense:
            tally.op("decide_dense_s", lambda: dense_family().decide(x),
                     lambda v: v.outcome == xor_outcome(x))


# ---------------------------------------------------------------------------
# sweep (decide): thousands of small instances through verify and the compilers
# ---------------------------------------------------------------------------

def verify_failures(report, inputs) -> int:
    """Inputs the report marks wrong; a failed report counts at least one."""
    wrong = {item["x"] for item in report.mismatches + report.expectation_failures}
    if report.checked + report.skipped_unpromised != len(inputs):
        return len(inputs)
    return max(len(wrong), 0 if report.passed else 1)


def check_compiled(probabilities, verdict) -> bool:
    p_acc, p_rej = probabilities
    return (abs(verdict.acc_overlap ** 2 - p_acc) <= OVERLAP_TOL
            and abs(verdict.rej_overlap ** 2 - p_rej) <= OVERLAP_TOL
            and abs(verdict.ground_energy) <= SPECTRAL_TOL
            and abs(verdict.spectral_gap - 1.0) <= SPECTRAL_TOL)


def bitstrings(max_len):
    return list(gallery.strings_up_to(("0", "1"), max_len))


class Sweep:
    LANGUAGES = ("l_prefix_0", "l_prefix_1", "equal", "sym_coin")
    SIZES = {
        "full": {"max_len": 8, "usubsum": (4, 3, 3), "multdup": (3, 3),
                 "moqfa": (50, 5), "garbage": (20, 4)},
        "smoke": {"max_len": 3, "usubsum": (2, 2, 2), "multdup": (1, 2),
                  "moqfa": (3, 3), "garbage": (2, 2)},
    }

    def __init__(self, seed, size, workdir):
        self.size = self.SIZES[size]
        self.seed = seed

    def setup(self):
        size = self.size
        rng = np.random.default_rng(self.seed)
        self.verify_inputs = [
            (name, list(gallery.strings_up_to(gallery.build(name).family.alphabet,
                                              size["max_len"])))
            for name in self.LANGUAGES
        ]
        self.verify_inputs.append(
            ("usubsum", gallery.usubsum_inputs(*size["usubsum"], promised_only=False)))
        promised = gallery.multdup_inputs(*size["multdup"])
        self.verify_inputs += [("multdup", promised), ("multdup_complement", promised)]
        # The seed draws the amplitudes and labels; the shapes cycle through
        # criterion 8's ranges so that every seed does the same work.
        n, max_len = size["moqfa"]
        self.moqfa = ([compilers.random_moqfa_spec(rng, 2 + i % 3) for i in range(n)],
                      bitstrings(max_len))
        n, max_len = size["garbage"]
        self.garbage = ([compilers.random_garbage_spec(rng, 2 + i % 2, 1 + i // 2 % 2)
                         for i in range(n)], bitstrings(max_len))
        # Warm-up: a short verify and one compiled input.
        gallery.verify(gallery.build("l_prefix_0"), ["", "0", "1"])
        spec = self.moqfa[0][0]
        aeqs.decide(compilers.from_moqfa(spec).build("0"))

    def pass_(self, tally, tracer):
        for name, inputs in self.verify_inputs:
            def verify():
                entry = gallery.build(name)
                with tracer.span("gallery.verify"):
                    return gallery.verify(entry, tracer.timed(inputs, "gallery.verify_input"))

            tally.ops("sweep_s", len(inputs), verify,
                      lambda report: verify_failures(report, inputs))
        for (specs, strings), compile_, simulate in (
            (self.moqfa, compilers.from_moqfa, compilers.run_moqfa),
            (self.garbage, compilers.from_garbage_1qfa, compilers.run_garbage_1qfa),
        ):
            for spec in specs:
                def run():
                    family = compile_(spec)
                    return [self._compiled(family, spec, x, simulate, tracer) for x in strings]

                tally.ops("sweep_s", len(strings), run,
                          lambda results: sum(not check_compiled(*r) for r in results))

    @staticmethod
    def _compiled(family, spec, x, simulate, tracer):
        tracer.add("compilers.inputs")
        with tracer.span("compilers.sim"):
            probabilities = simulate(spec, x)
        return probabilities, aeqs.decide(family.build(x))


# ---------------------------------------------------------------------------
# trace (evolve): per-step evolution paths and the gap scan
# ---------------------------------------------------------------------------

def check_records(trace, expect_records) -> bool:
    return (len(trace.records) == expect_records
            and all(abs(r.norm - 1.0) <= NORM_TOL for r in trace.records)
            and 0.0 <= trace.final_overlap_sq <= 1.0 + NORM_TOL)


def check_gap(values, reference) -> bool:
    min_gap, bound = values
    return (abs(min_gap - reference["min_gap"]) <= REFERENCE_TOL
            and abs(bound - reference["time_bound"])
            <= REFERENCE_TOL * max(1.0, abs(reference["time_bound"])))


class Trace:
    SIZES = {
        "full": {"length": 8, "t": 8.0, "r": 256, "every": 16, "grid": 64},
        "smoke": {"length": 4, "t": 8.0, "r": 32, "every": 4, "grid": 8},
    }

    def __init__(self, seed, size, workdir):
        self.size = self.SIZES[size]
        rng = np.random.default_rng(seed)
        self.x = "".join(rng.choice(["a", "b"], self.size["length"]))
        with open(REFERENCE, encoding="utf-8") as fh:
            table = json.load(fh)
        self.epsilon, self.delta = table["epsilon"], table["delta"]
        self.reference = table["equal"][f"{self.x}/{self.size['grid']}"]

    def setup(self):
        self.instance = gallery.build("equal").family.build(self.x)
        # Warm-up: a four-step trace with each method.
        for method in ("midpoint", "trotter", "phase"):
            evolve.evolve_trace(self.instance, evolve.Schedule(self.size["t"], 4), method)

    def pass_(self, tally, tracer):
        size, inst = self.size, self.instance
        schedule = evolve.Schedule(size["t"], size["r"])
        expect_records = math.ceil(size["r"] / size["every"])
        overlaps = {}

        def trace(method):
            result = evolve.evolve_trace(inst, schedule, method, record_every=size["every"])
            overlaps[method] = result.final_overlap_sq
            return result

        def check(method, result):
            # The phase-shift factorization is exact, so it must match trotter.
            return check_records(result, expect_records) and (
                method != "phase"
                or abs(result.final_overlap_sq - overlaps["trotter"]) <= PHASE_TROTTER_TOL)

        for method in ("midpoint", "trotter", "phase"):
            tally.op(f"trace_{method}_s", lambda: trace(method), lambda r: check(method, r))

        def gap():
            return (aeqs.minimum_interpolation_gap(inst, grid=size["grid"]),
                    aeqs.adiabatic_time_bound(inst, self.epsilon, self.delta, grid=size["grid"]))

        tally.op("gap_s", gap, lambda values: check_gap(values, self.reference))


class Joined:
    """Parts run one after another: set up in turn, one pass of each per pass."""

    def __init__(self, parts):
        self.parts = parts

    def setup(self):
        for part in self.parts:
            part.setup()

    def pass_(self, tally, tracer):
        for part in self.parts:
            part.pass_(tally, tracer)


def joined(*classes):
    return lambda seed, size, workdir: Joined([cls(seed, size, workdir) for cls in classes])


# evolve: every path of the evolve layer and the aeqs gap scan; qqa and
# linalg do almost nothing.  decide: qqa, linalg, cli, gallery and
# compilers on large and on small inputs; evolve is not called.
WORKLOADS = {"evolve": joined(Search, Trace), "decide": joined(DecideLarge, Sweep)}
