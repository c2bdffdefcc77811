"""Locate the checkout's own ``src`` tree and pin the numeric thread pools.

Imported first by the benchmark's entry scripts, before numpy loads. The
benchmark measures the package in the checkout it ships with and nothing
installed elsewhere, so a directory without ``src/oeeforecast`` is an error.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# One BLAS thread per process: the machine has two cores, the service runs
# two handler threads, and oversubscribed OpenBLAS threads slow the wide
# SARIMAX fits severalfold.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def use_checkout_src() -> None:
    """Put the checkout's package first on sys.path, or exit with code 2."""
    if not (SRC / "oeeforecast" / "__init__.py").is_file():
        print(f"perfbench: no oeeforecast sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for processes the benchmark starts."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env
