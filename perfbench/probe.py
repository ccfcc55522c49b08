"""Set-up probe: one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR

Prints on its last line the import and set-up times since the process's
own code started, raw and at reference speed (see speed.py).
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import env  # noqa: E402,F401  (pins BLAS/OpenMP threads before numpy loads)
import speed  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    probe = speed.SpeedProbe()
    probe.start()
    try:
        _, t_imported, t_ready = workloads.setup(name, seed, workdir)
    finally:
        probe.stop()
    model = speed.SpeedModel([probe.record()])
    print(json.dumps(workloads.setup_times(model, T0, t_imported, t_ready)))
