"""Benchmark runner for aeqslab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

One process runs one workload as a closed loop with a single client.  It
pins BLAS threads, takes the package from this checkout's ``src``, sets the
workload up once, and then:

- ``--trace 0``: runs the workload's fixed pass a fixed number of times,
  ``--seconds`` divided by the workload's nominal pass time, and reports the
  end-to-end metrics; ``pass_norm_s`` is the median process CPU time of a
  pass, rescaled to a reference host speed (``hostspeed.py``);
- ``--trace 1``: runs one untraced pass and one traced pass, reports the
  per-layer metrics of the traced pass and the tracing overhead, and writes
  the spans to ``perfbench/out/``.

With ``--trace 0`` it then sets the workload up eight more times (each set-up
imports aeqslab afresh); ``setup_s`` is the median CPU time of the nine,
rescaled the same way.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs
tiny inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import env
import tracing

SETUP_REPEATS = 9
# CPU seconds of one pass of the code this benchmark was written against, on
# one core of a shared two-core Xeon host (evolve: search 28 + trace parts
# 10.5; decide: large decides 8.5 + sweep 6).  A run makes --seconds divided
# by this, rounded, passes (at least one): the count depends on the arguments
# alone, never on how fast the measured code runs, so two versions of the
# package are measured on the same number of passes.
NOMINAL_PASS_S = {"evolve": 38.5, "decide": 14.5}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    return parser.parse_args(argv)


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def timed_pass(workload, tracer, speed=None):
    """One pass; its tally holds the time of every operation that passed.

    Time is process CPU time: the loop is single-threaded and BLAS is pinned
    to one thread, so it leaves out the time the process waits for a core
    that another process on the host holds.  With ``speed`` it is also
    rescaled to the reference host speed.
    """
    from workloads import Tally

    tally = Tally(speed)
    workload.pass_(tally, tracer)
    tally.flush()
    return tally


def cpu_s(tally) -> float:
    return sum(tally.cpu.values())


def wall_s(tally) -> float:
    return sum(tally.wall.values())


def measure(workload, passes, speed):
    """End-to-end metrics of ``passes`` untraced passes."""
    tallies = [timed_pass(workload, tracing.NullTracer(), speed) for _ in range(passes)]
    for part in tallies[0].cpu:
        cpu = statistics.median(t.cpu.get(part, 0.0) for t in tallies)
        wall = statistics.median(t.wall.get(part, 0.0) for t in tallies)
        norm = statistics.median(t.norm.get(part, 0.0) for t in tallies)
        print(f"{part}: {cpu:.4f} s CPU, {wall:.4f} s wall, {norm:.4f} s rescaled (medians)")
    cpus = [cpu_s(t) for t in tallies]
    walls = [wall_s(t) for t in tallies]
    norms = [sum(t.norm.values()) for t in tallies]
    print(f"{passes} passes of {tallies[0].attempted} operations: "
          f"CPU {' '.join(f'{s:.4f}' for s in cpus)} s; "
          f"wall {' '.join(f'{s:.4f}' for s in walls)} s; "
          f"rescaled {' '.join(f'{s:.4f}' for s in norms)} s")
    metrics = {
        "pass_norm_s": (statistics.median(norms), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, tallies


def traced(workload, args, meta):
    """One untraced and one traced pass; per-layer metrics and overhead."""
    plain = timed_pass(workload, tracing.NullTracer())
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tally = timed_pass(workload, tracer)
    finally:
        tracer.uninstall()
    tracer.write(env.OUT / f"spans-{args.workload}-seed{args.seed}.json", meta)
    metrics = tracing.layer_metrics(tracer)
    untraced_s, traced_s = cpu_s(plain), cpu_s(tally)
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.traced_pass_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s if untraced_s else 0.0, "ratio")
    print(f"tracing overhead: {traced_s - untraced_s:+.4f} s CPU "
          f"(traced {traced_s:.4f} s, untraced {untraced_s:.4f} s)")
    return metrics, [plain, tally]


def set_up(args, size, speed):
    """Import aeqslab afresh and set the workload up; (workload, CPU s,
    wall s, CPU s rescaled to the reference speed)."""
    wall, cpu = time.perf_counter(), time.process_time()
    workloads = env.fresh_workloads()
    workload = workloads.WORKLOADS[args.workload](args.seed, size, env.OUT)
    workload.setup()
    cpu, wall = (cpu, time.process_time()), time.perf_counter() - wall
    speed.sample()
    return workload, cpu[1] - cpu[0], wall, speed.rescaled(*cpu)


def main(argv=None) -> int:
    args = parse_args(argv)
    meta = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            **env.pin_threads()}
    try:
        env.add_src()
    except env.MissingProgram as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    meta.update(env.versions())
    print("environment: " + " ".join(f"{k}={v}" for k, v in meta.items()))

    env.OUT.mkdir(exist_ok=True)
    size = "smoke" if args.smoke else "full"
    import hostspeed  # imports numpy, so only after the threads are pinned

    speed = hostspeed.HostSpeed()
    workload, *first_setup = set_up(args, size, speed)
    if args.trace:
        metrics, tallies = traced(workload, args, meta)
    else:
        metrics, tallies = measure(workload, pass_count(args.workload, args.seconds), speed)
        # The other set-ups come after the measurement, so that the copies
        # of the package they discard are not in peak_rss_mb.
        setups = [first_setup] + [set_up(args, size, speed)[1:]
                                  for _ in range(SETUP_REPEATS - 1)]
        print("set-ups (s): " + " ".join(f"{cpu:.4f} CPU/{wall:.4f} wall/{norm:.4f} rescaled"
                                         for cpu, wall, norm in setups))
        metrics["setup_s"] = (statistics.median(norm for *_, norm in setups), "s")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
