"""tools/bench_pairs.py's summary on fixed numbers, and its refusals, without
starting a benchmark run."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_lower_is_better_summary():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 1.5, 4.5, 2.5]
    s = bench_pairs.summarize(parent, change, "lower")
    assert s["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": parent}
    assert s["change"] == {"median": 2.0, "q1": 1.5, "q3": 2.5, "runs": change}
    # Pairs 1, 3 and 5 are lower; pair 2 is a tie and counts for neither side.
    assert s["change_better_pairs"] == 3
    assert s["median_gap"] == 1.0
    assert s["parent_iqr"] == 2.0
    assert s["relative_change"] == pytest.approx(-1 / 3)


def test_higher_is_better_summary():
    # Pairs 1, 3 and 5 are higher; pairs 2 and 4 are ties.
    s = bench_pairs.summarize([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 2.0, 4.5, 4.0, 6.0], "higher")
    assert s["change_better_pairs"] == 3
    assert s["median_gap"] == 1.0
    assert s["relative_change"] == pytest.approx(1 / 3)


@pytest.mark.parametrize("names, pairs, message", [
    (("pa", "change"), "10", "checkout paths differ in length"),
    (("pa", "ch"), "1", "--pairs must be at least 2"),
])
def test_refusals_start_no_run(tmp_path, monkeypatch, capsys, names, pairs, message):
    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run was started")

    monkeypatch.setattr(subprocess, "run", no_run)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path / names[0]), str(tmp_path / names[1]),
                          "--workload", "decide", "--seed", "3", "--pairs", pairs])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
