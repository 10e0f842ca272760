"""tools/verdict_digest.py at smoke size: the digests depend on the seed's
verdicts alone, and ``--dump`` writes the very bytes each part hashes."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "verdict_digest.py"


def digest(seed, *extra):
    proc = subprocess.run([sys.executable, str(TOOL), "--seed", str(seed), "--smoke", *extra],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_two_smoke_runs_give_equal_digests(tmp_path):
    first, second = digest(3), digest(3, "--dump", str(tmp_path))
    assert first == second
    assert set(first["parts"]) == {"verify", "moqfa", "garbage", "compiled_runs",
                                   "pal_marked", "pal_operators", "xor", "levels",
                                   "evolve", "phase"}
    assert all(part["count"] > 0 for part in first["parts"].values())
    for name, part in second["parts"].items():
        dumped = (tmp_path / f"{name}.jsonl").read_bytes()
        assert hashlib.sha256(dumped).hexdigest() == part["sha256"]
    # The compiled specs are drawn from the seed, so another seed's differ.
    assert digest(4)["parts"]["moqfa"]["sha256"] != first["parts"]["moqfa"]["sha256"]
