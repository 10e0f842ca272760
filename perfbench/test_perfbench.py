"""Self-checks of the benchmark at smoke size.

    python3 -m pytest perfbench -q

Every declared metric must be emitted with its declared unit, and a
corrupted result must be counted as a failed operation.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import env

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload, trace, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_emitted_with_unit(workload, trace):
    result = run(workload, trace, seed=1 + trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == declared


@pytest.fixture(scope="module")
def package():
    env.add_src()
    return env.fresh_workloads()


def test_tally_times_only_passing_operations(package):
    tally = package.Tally()
    tally.op("right", lambda: 1, lambda result: result == 1)
    tally.op("wrong", lambda: 2, lambda result: result == 1)
    tally.op("raises", lambda: 1 / 0, lambda result: True)
    tally.op("slow_check", lambda: 1, lambda result: time.sleep(0.2) or True)
    assert tally.attempted == 4 and tally.failed == 2
    assert set(tally.wall) == set(tally.cpu) == {"right", "slow_check"}
    assert tally.wall["slow_check"] < 0.1


def test_host_speed_rescales_pieces_between_samples():
    import hostspeed

    ref = hostspeed.REFERENCE_S
    speed = hostspeed.HostSpeed.__new__(hostspeed.HostSpeed)
    # Samples (CPU start, end): twice, twice and once the reference time.
    speed._starts, speed._ends = [0.0, 2.0, 5.0], [2 * ref, 2.0 + 2 * ref, 5.0 + ref]
    speed._wall_starts, speed._wall_ends = list(speed._starts), list(speed._ends)
    assert speed.rescaled(0.5, 1.5) == pytest.approx(0.5)
    # Across the middle sample: its time is left out, each piece is scaled
    # by the samples on either side of it.
    inside = 2.0 + 2 * ref
    assert speed.rescaled(1.0, 4.0) == pytest.approx(1.0 / 2 + (4.0 - inside) / 1.5)
    assert speed.sampling((1.0, 4.0), (1.0, 4.0)) == pytest.approx((2 * ref, 2 * ref))


def test_tally_leaves_sampling_out_of_operations(package):
    import hostspeed

    tally = package.Tally(hostspeed.HostSpeed())
    tally.op("part", lambda: tally.sample() or 1, lambda result: result == 1)
    tally.flush()
    assert tally.cpu["part"] < 0.01 and tally.wall["part"] < 0.01
    assert 0 < tally.norm["part"] < 0.01


def _flip(original):
    def flipped(*args, **kwargs):
        verdict = original(*args, **kwargs)
        verdict.outcome = "reject" if verdict.outcome == "accept" else "accept"
        return verdict

    return flipped


def _shifted(original, factor):
    return lambda *args, **kwargs: original(*args, **kwargs) * factor


def _corrupt(monkeypatch, corruption):
    from aeqslab import aeqs, cli, evolve

    if corruption == "overlap":
        monkeypatch.setattr(evolve, "final_overlap_sq", _shifted(evolve.final_overlap_sq, 0.9))
    elif corruption == "gap":
        monkeypatch.setattr(aeqs, "minimum_interpolation_gap",
                            _shifted(aeqs.minimum_interpolation_gap, 1 + 1e-6))
    else:
        monkeypatch.setattr(cli, "decide", _flip(cli.decide))
        monkeypatch.setattr(aeqs, "decide", _flip(aeqs.decide))


# Each corruption hits one part of a workload: the search (overlap) or the
# gap scan (gap) of evolve, the verdicts of decide.
CORRUPTIONS = [("evolve", "overlap"), ("evolve", "gap"), ("decide", "verdict")]


@pytest.mark.parametrize("workload,corruption", CORRUPTIONS)
def test_corrupted_result_counts_as_failed(package, workload, corruption, monkeypatch,
                                           tmp_path):
    from tracing import NullTracer

    bench = package.WORKLOADS[workload](3, "smoke", tmp_path)
    bench.setup()
    clean = package.Tally()
    bench.pass_(clean, NullTracer())
    assert clean.attempted >= 1 and clean.failed == 0

    _corrupt(monkeypatch, corruption)
    corrupted = package.Tally()
    bench.pass_(corrupted, NullTracer())
    assert corrupted.attempted == clean.attempted
    assert corrupted.failed >= 1
