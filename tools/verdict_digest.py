"""Digest every verdict of the decide benchmark's inputs, and every result
of the evolve benchmark's, for comparing two versions of the package bit for
bit.

    python3 tools/verdict_digest.py --seed N [--smoke] [--dump DIR]

The inputs come from ``perfbench/workloads.py`` for the given seed and size,
and the package from this checkout's ``src``.  The script prints one JSON
line: per part, the SHA-256 of its results serialized as JSON (floats by
``repr``, so every bit counts) and the number of verdicts or reports.  The parts are:

- ``verify``: each sweep entry's ``VerifyReport.as_dict()``, then each of
  its records' input, expected outcome and ``Verdict.as_dict()``;
- ``moqfa`` and ``garbage``: the compiled families' verdicts on every input;
- ``compiled_runs``: for the same inputs, ``repr`` of the simulator's
  (accept, reject) pair and the SHA-256 of the bytes of the compiled
  ground vector, ``family.build(x).h_fin.vector``;
- ``pal_marked``: the ``aeqslab run pal_marked`` reports and exit codes, with
  the ``seconds`` field masked;
- ``pal_operators``: for the same inputs, the SHA-256 of the bytes of each
  generated H_fin's row, column and value arrays, read from
  ``family.build(x)``;
- ``xor``: the dense xor family's verdicts;
- ``levels``: for each sweep entry, the first swept input of each length,
  and of each level in ``entry.validation_levels(x)`` its name, then the
  SHA-256 of the bytes of the row, column and value arrays of every
  operator, symbols sorted, and of Lambda0.  Two level builders agree on
  this part only when their operators are byte-identical;
- ``evolve``: ``repr`` of the time search's result, evaluations included,
  on the seed's pinned instance; the trace instance's midpoint and trotter
  ``EvolutionTrace.to_json()``, each with the SHA-256 of the bytes of its
  final state; ``repr`` of its (minimum gap, time bound) pair;
- ``phase``: the same instance's phase trace, its ``to_json()`` and its
  final state as (real, imaginary) pairs, so that a ``--dump`` of two
  versions gives the largest difference of their states.

Two versions give equal digests on a part only when every one of its
results is byte-identical.  ``--dump DIR`` writes each part's hashed lines,
exactly the bytes fed to SHA-256, to ``DIR/<part>.jsonl``, so that two
versions' results can be compared line by line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import env  # noqa: E402


class Digest:
    def __init__(self):
        self.lines = []
        self.count = 0

    def add(self, *items, count: int = 1):
        """Hash the items, one JSON line each, as ``count`` results."""
        self.lines += [json.dumps(item, sort_keys=True).encode() + b"\n" for item in items]
        self.count += count

    def as_dict(self) -> dict:
        return {"sha256": hashlib.sha256(b"".join(self.lines)).hexdigest(),
                "count": self.count}


def op_bytes(op) -> list:
    """The dtype and the SHA-256 of the bytes of each of an operator's arrays."""
    return [(str(a.dtype), hashlib.sha256(a.tobytes()).hexdigest())
            for a in (op.rows, op.cols, op.vals)]


def digests(seed: int, size: str, workdir: Path, dump: Path | None = None) -> dict:
    workloads = env.fresh_workloads()
    from aeqslab import aeqs, cli, compilers, evolve, gallery

    sweep = workloads.Sweep(seed, size, workdir)
    sweep.setup()
    parts = {name: Digest() for name in ("verify", "moqfa", "garbage", "compiled_runs",
                                         "pal_marked", "pal_operators", "xor", "levels",
                                         "evolve", "phase")}
    for name, inputs in sweep.verify_inputs:
        report = gallery.verify(gallery.build(name), inputs)
        parts["verify"].add(report.as_dict(), [
            (record.x, record.expected, record.verdict.as_dict()) for record in report.records],
            count=len(report.records))
    for part, (specs, strings), compile_, simulate in (
        ("moqfa", sweep.moqfa, compilers.from_moqfa, compilers.run_moqfa),
        ("garbage", sweep.garbage, compilers.from_garbage_1qfa, compilers.run_garbage_1qfa),
    ):
        for spec in specs:
            family = compile_(spec)
            for x in strings:
                instance = family.build(x)
                parts[part].add(aeqs.decide(instance).as_dict())
                parts["compiled_runs"].add(
                    repr(simulate(spec, x)),
                    hashlib.sha256(instance.h_fin.vector.tobytes()).hexdigest())

    sparse, dense = workloads.DecideLarge(seed, size, workdir)._inputs()
    out = workdir / "run.json"
    for x in sparse:
        code = cli.main(["run", "pal_marked", x, "--out", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
        report["seconds"] = None
        parts["pal_marked"].add(code, report)
    pal_marked = gallery.build("pal_marked").family
    for x in sparse:
        h_fin = pal_marked.build(x).h_fin
        parts["pal_operators"].add(x, op_bytes(h_fin))
    for x in dense:
        parts["xor"].add(workloads.dense_family().decide(x).as_dict())
    for name, inputs in sweep.verify_inputs:
        entry = gallery.build(name)
        firsts = {}
        for x in inputs:
            firsts.setdefault(len(x), x)
        for x in firsts.values():
            for level in entry.validation_levels(x):
                parts["levels"].add(level.name, [(c, [op_bytes(op) for op in level.ops[c]])
                                                 for c in sorted(level.ops)],
                                    op_bytes(level.lam0))
    search = workloads.Search(seed, size, workdir)
    search.setup()
    parts["evolve"].add(repr(evolve.find_sufficient_t(search.instance, search.size["target"],
                                                      t_cap=1e4)))
    trace = workloads.Trace(seed, size, workdir)
    trace.setup()
    schedule = evolve.Schedule(trace.size["t"], trace.size["r"])
    for method in ("midpoint", "trotter", "phase"):
        result = evolve.evolve_trace(trace.instance, schedule, method,
                                     record_every=trace.size["every"])
        if method == "phase":
            parts["phase"].add(result.to_json(),
                               [[z.real, z.imag] for z in result.final_state.tolist()])
        else:
            parts["evolve"].add(result.to_json(),
                                hashlib.sha256(result.final_state.tobytes()).hexdigest())
    parts["evolve"].add(repr((
        aeqs.minimum_interpolation_gap(trace.instance, grid=trace.size["grid"]),
        aeqs.adiabatic_time_bound(trace.instance, trace.epsilon, trace.delta,
                                  grid=trace.size["grid"]))))
    if dump is not None:
        dump.mkdir(parents=True, exist_ok=True)
        for name, digest in parts.items():
            (dump / f"{name}.jsonl").write_bytes(b"".join(digest.lines))
    return {name: digest.as_dict() for name, digest in parts.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true", help="the benchmark's tiny inputs")
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="write each part's hashed lines to DIR/<part>.jsonl")
    args = parser.parse_args(argv)
    env.pin_threads()
    env.add_src()
    with tempfile.TemporaryDirectory() as workdir:
        parts = digests(args.seed, "smoke" if args.smoke else "full", Path(workdir), args.dump)
    print(json.dumps({"seed": args.seed, "smoke": args.smoke, "parts": parts}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
