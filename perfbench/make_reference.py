"""Regenerate ``reference.json``: the minimum interpolation gap and the
adiabatic time bound of every ``equal`` input the trace part of the ``evolve`` workload can draw.

Run from the repository root on a commit whose results are trusted:

    python3 perfbench/make_reference.py

The values are written with full precision; the benchmark compares against
them within 1e-9.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import env

# (input length, gap-scan grid) of the full and the smoke-size trace part.
CASES = ((8, 64), (4, 8))
EPSILON, DELTA = 0.1, 1.0
PATH = Path(__file__).resolve().parent / "reference.json"


def main() -> None:
    env.pin_threads()
    env.add_src()
    from aeqslab import aeqs, gallery

    family = gallery.build("equal").family
    table = {}
    for length, grid in CASES:
        for letters in itertools.product("ab", repeat=length):
            x = "".join(letters)
            inst = family.build(x)
            table[f"{x}/{grid}"] = {
                "min_gap": aeqs.minimum_interpolation_gap(inst, grid=grid),
                "time_bound": aeqs.adiabatic_time_bound(inst, EPSILON, DELTA, grid=grid),
            }
    PATH.write_text(json.dumps({"epsilon": EPSILON, "delta": DELTA, "equal": table},
                               indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
