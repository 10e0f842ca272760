"""Run the benchmark in alternating parent/change pairs and summarise them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed N [--pairs 10]

PARENT and CHANGE are two checkouts of this repository.  Each run is
``perfbench/run.py --workload W --seed N --seconds 36 --trace 0`` in its own
process, with the checkout as working directory.  Pair i runs the parent
first when i is even and the change first when it is odd, so that neither
side always runs on a host the other has just warmed.  The script stops at
the first run that fails or is not ``correct``.

The two checkouts' absolute paths must be of equal length: ``peak_rss_mb``
follows the length of the checkout's path, so siblings such as ``../pa`` and
``../ch`` are compared.

For each end-to-end metric of the parent's ``BENCHMARK.json`` the script
prints both medians, the parent's interquartile range (inclusive quartiles)
and the number of pairs the change wins; a tie counts for neither side.  The
last line of standard output is one JSON object: per metric, both sides'
median, quartiles and runs (``runs[i]`` of both sides belong to pair i),
``change_better_pairs``, ``median_gap`` (the parent's median minus the
change's, positive when the change is better) and ``relative_change``
((change - parent) / parent of the medians).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 36


def side(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def summarize(parent: list, change: list, better: str) -> dict:
    """One metric's summary from the two sides' values, pair by pair."""
    sign = 1 if better == "lower" else -1
    a, b = side(parent), side(change)
    return {
        "parent": a,
        "change": b,
        "change_better_pairs": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "median_gap": sign * (a["median"] - b["median"]),
        "parent_iqr": a["q3"] - a["q1"],
        "relative_change": (b["median"] - a["median"]) / a["median"],
    }


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The last stdout line of one benchmark run in the checkout, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct"):
        raise SystemExit(f"{checkout}: run failed or not correct (exit {proc.returncode})\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    parent, change = args.parent.resolve(), args.change.resolve()
    if len(str(parent)) != len(str(change)):
        parser.error(f"checkout paths differ in length: {parent} and {change}")
    spec = json.loads((parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            checkout = parent if name == "parent" else change
            values[name].append(run_once(checkout, args.workload, args.seed)["metrics"])
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        summary[name] = s = summarize(*([run[name]["value"] for run in values[k]]
                                        for k in ("parent", "change")), metric["better"])
        print(f"{name}: parent {s['parent']['median']:.5g} -> change {s['change']['median']:.5g}"
              f" ({s['relative_change']:+.1%}), parent IQR {s['parent_iqr']:.3g},"
              f" change better in {s['change_better_pairs']}/{args.pairs} pairs")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
