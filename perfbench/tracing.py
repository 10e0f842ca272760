"""Spans and counters recorded around aeqslab's layer boundaries.

The traced run patches public functions of the package from outside, so
nothing under ``src`` knows about the benchmark.  A span is one call across
a boundary: (name, start, end, parent).  Spans stay in memory until the run
ends; a layer's self time is the duration of its spans minus the part their
child spans cover.  ``NullTracer`` has the same interface and records
nothing, for the untraced passes that give the end-to-end numbers.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class NullTracer:
    """Records nothing; used by the untraced passes."""

    @contextmanager
    def span(self, name):
        yield

    def add(self, counter, amount=1):
        pass

    def timed(self, inputs, sample):
        return inputs


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._open = []          # indices of the spans now open, innermost last
        self.counts = Counter()
        self.samples = defaultdict(list)
        self._patches = []       # (owner, attribute, original)

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else -1]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.perf_counter()

    def add(self, counter, amount=1):
        self.counts[counter] += amount

    def timed(self, inputs, sample):
        """Yield ``inputs``, sampling the seconds the consumer spends per item."""
        last = time.perf_counter()
        for item in inputs:
            yield item
            now = time.perf_counter()
            self.samples[sample].append(now - last)
            last = now

    # -- patching -----------------------------------------------------------

    def wrap(self, owner, attribute, name, after=None):
        """Replace ``owner.attribute`` with a spanned call.

        ``name`` is a span name or a function of the call's arguments giving
        one; ``after(result, args, kwargs)`` updates counters.
        """
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with tracer.span(label):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def count_calls(self, owner, attribute, counter):
        """Count calls of ``owner.attribute`` without opening a span."""
        original = getattr(owner, attribute)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attribute, counted)
        self._patches.append((owner, attribute, original))

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per span name, each span's children subtracted."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[i]
        return totals

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from.

    ``qqa.generate_2qqaf`` is wrapped in ``qqa`` itself because
    ``gallery`` imports it when the ``pal_marked`` entry is built, so the
    patch must be in place before that entry is built.
    """
    from aeqslab import aeqs, cli, evolve, gallery, linalg, qqa

    def generated(result, _args, _kwargs):
        operator = (result[0] if isinstance(result, tuple) else result).operator
        tracer.add("qqa.nnz", operator.nnz())

    def gap_points(_result, args, kwargs):
        tracer.add("aeqs.gap_scan_points", kwargs.get("grid", args[1] if len(args) > 1
                                                      else aeqs.GAP_SCAN_GRID))

    def schedule_of(args, kwargs):
        return kwargs.get("schedule", args[1] if len(args) > 1 else None)

    def eval_steps(_result, args, kwargs):
        tracer.add("evolve.eval_steps", schedule_of(args, kwargs).r_steps)

    def trace_method(*args, **kwargs):
        return "evolve.trace." + kwargs.get("method", args[2] if len(args) > 2 else "trotter")

    def trace_steps(result, args, kwargs):
        steps = schedule_of(args, kwargs).r_steps
        tracer.add(f"evolve.trace_steps.{result.method}", steps)
        tracer.add("evolve.useful_steps", steps)
        tracer.add("evolve.trace_records", len(result.records))

    def family_layer(family, *_args, **_kwargs):
        return "compilers.build" if family.name.startswith("compiled(") else "gallery.build"

    tracer.wrap(gallery, "generate_moqqaf", "qqa.generate", generated)
    tracer.wrap(qqa, "generate_2qqaf", "qqa.generate", generated)
    tracer.wrap(qqa, "sparse_conjugate", "qqa.sparse_conjugate")
    tracer.wrap(aeqs, "lowest_eigenpairs", "linalg.lanczos")
    tracer.wrap(aeqs, "hermitian_eig", "linalg.dense_eig")
    tracer.count_calls(linalg.SparseHermitian, "matvec", "linalg.matvecs")
    tracer.wrap(aeqs, "decide", "aeqs.decide")
    tracer.wrap(cli, "decide", "aeqs.decide")
    tracer.wrap(aeqs, "minimum_interpolation_gap", "aeqs.gap_scan", gap_points)
    tracer.wrap(evolve, "final_overlap_sq", "evolve.eval", eval_steps)
    tracer.wrap(evolve, "evolve_trace", trace_method, trace_steps)
    tracer.wrap(aeqs.AeqsFamily, "build", family_layer)


TRACE_METHODS = ("midpoint", "trotter", "phase")


def _percentile_ms(samples, q):
    if len(samples) < 2:
        return 1e3 * samples[0] if samples else 0.0
    return 1e3 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as {name: (value, unit)}."""
    own = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    trace_steps = sum(counts[f"evolve.trace_steps.{m}"] for m in TRACE_METHODS)
    steps = counts["evolve.eval_steps"] + trace_steps
    evolve_s = own["evolve.eval"] + sum(own[f"evolve.trace.{m}"] for m in TRACE_METHODS)
    verify_samples = tracer.samples["gallery.verify_input"]
    metrics = {
        "qqa.generate_s": (own["qqa.generate"], "s"),
        "qqa.generate_calls": (calls["qqa.generate"], "count"),
        "qqa.sparse_conjugate_s": (own["qqa.sparse_conjugate"], "s"),
        "qqa.sparse_conjugate_calls": (calls["qqa.sparse_conjugate"], "count"),
        "qqa.nnz": (counts["qqa.nnz"], "count"),
        "linalg.lanczos_s": (own["linalg.lanczos"], "s"),
        "linalg.lanczos_calls": (calls["linalg.lanczos"], "count"),
        "linalg.matvecs": (counts["linalg.matvecs"], "count"),
        "linalg.dense_eig_s": (own["linalg.dense_eig"], "s"),
        "linalg.dense_eig_calls": (calls["linalg.dense_eig"], "count"),
        "aeqs.decide_self_s": (own["aeqs.decide"], "s"),
        "aeqs.decide_calls": (calls["aeqs.decide"], "count"),
        "aeqs.gap_scan_s": (own["aeqs.gap_scan"], "s"),
        "aeqs.gap_scan_points": (counts["aeqs.gap_scan_points"], "count"),
        "evolve.eval_s": (own["evolve.eval"], "s"),
        "evolve.evaluations": (calls["evolve.eval"], "count"),
        "evolve.steps": (steps, "count"),
        "evolve.steps_per_s": (steps / evolve_s if evolve_s > 0 else 0.0, "1/s"),
        "evolve.useful_step_ratio": (counts["evolve.useful_steps"] / steps if steps else 0.0,
                                     "ratio"),
        "evolve.trace_records": (counts["evolve.trace_records"], "count"),
        "gallery.build_self_s": (own["gallery.build"], "s"),
        "gallery.verify_s": (own["gallery.verify"], "s"),
        "gallery.inputs": (len(verify_samples), "count"),
        "gallery.verify_p50_ms": (_percentile_ms(verify_samples, 50), "ms"),
        "gallery.verify_p99_ms": (_percentile_ms(verify_samples, 99), "ms"),
        "compilers.build_s": (own["compilers.build"], "s"),
        "compilers.sim_s": (own["compilers.sim"], "s"),
        "compilers.inputs": (counts["compilers.inputs"], "count"),
        "cli.self_s": (own["cli"], "s"),
        "cli.calls": (calls["cli"], "count"),
    }
    for m in TRACE_METHODS:
        n = counts[f"evolve.trace_steps.{m}"]
        metrics[f"evolve.trace_step_us.{m}"] = (
            1e6 * own[f"evolve.trace.{m}"] / n if n else 0.0, "us")
    return metrics
