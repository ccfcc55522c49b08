"""Process set-up shared by the benchmark runner (run.py) and the child processes it
starts: thread pinning, locating the package source in the checkout, and
small statistics helpers.

Importing this module pins BLAS/OpenMP to one thread, so it must be
imported before numpy anywhere in the benchmark.
"""

from __future__ import annotations

import math
import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"


class MissingProgram(RuntimeError):
    """The checkout does not hold the package source."""


def use_checkout_source() -> None:
    """Make `import loopcool` resolve to the checkout's own source tree and
    nothing else (never an installed copy)."""
    if not (SRC / "loopcool" / "__init__.py").is_file():
        raise MissingProgram(f"no package source at {SRC / 'loopcool'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise MissingProgram(f"loopcool imported from {path}, not from {SRC}")


def child_env() -> dict:
    """Environment for every child process: this process's (so one
    BLAS/OpenMP thread) with the checkout source on the path."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample (numpy's default)."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)
