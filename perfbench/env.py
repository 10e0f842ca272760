"""Process set-up shared by the benchmark scripts.

BLAS threads must be pinned before numpy is first imported, and the package
must come from this checkout's ``src`` directory, never from an installed
copy, so that the benchmark measures the code next to it.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# One thread: on a shared two-core host, two spin-waiting OpenBLAS threads
# made a small dense decide up to 30 times slower while another process ran.
MAX_BLAS_THREADS = 1


class MissingProgram(RuntimeError):
    """The checkout holds no aeqslab sources to measure."""


def pin_threads() -> dict:
    """Pin OpenBLAS and OpenMP to MAX_BLAS_THREADS, at most nproc."""
    nproc = len(os.sched_getaffinity(0))
    threads = str(min(MAX_BLAS_THREADS, nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = threads
    return {"nproc": nproc, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}


def add_src() -> None:
    """Put this checkout's ``src`` first on the import path."""
    if not (SRC / "aeqslab" / "__init__.py").is_file():
        raise MissingProgram(f"no aeqslab package under {SRC}")
    sys.path.insert(0, str(SRC))


def fresh_workloads():
    """Import the ``workloads`` module, and through it every aeqslab module,
    afresh, so that each set-up pays the package's import again.  numpy is
    a dependency: it stays loaded."""
    for name in list(sys.modules):
        if name in ("workloads", "aeqslab") or name.startswith("aeqslab."):
            del sys.modules[name]
    import aeqslab

    if Path(aeqslab.__file__).resolve().parent != (SRC / "aeqslab").resolve():
        raise MissingProgram(f"aeqslab imported from {aeqslab.__file__}, not {SRC}")
    import workloads

    return workloads


def versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }
