"""tools/verdict_digest.py at smoke size: the digests depend on the seed's
verdicts alone."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "verdict_digest.py"


def digest(seed):
    proc = subprocess.run([sys.executable, str(TOOL), "--seed", str(seed), "--smoke"],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_two_smoke_runs_give_equal_digests():
    first, second = digest(3), digest(3)
    assert first == second
    assert set(first["parts"]) == {"verify", "moqfa", "garbage", "pal_marked",
                                   "pal_operators", "xor"}
    assert all(part["count"] > 0 for part in first["parts"].values())
    # The compiled specs are drawn from the seed, so another seed's differ.
    assert digest(4)["parts"]["moqfa"]["sha256"] != first["parts"]["moqfa"]["sha256"]
