"""Workload registry and the set-up shared by run.py and the set-up
probes.  Nothing from the package is imported at module level, so the
set-up includes the package import."""

from __future__ import annotations

import importlib
from time import perf_counter

import env

#: workload name -> (module, class) in this directory
WORKLOADS = {
    "optimize_exact": ("inproc", "OptimizeExact"),
    "sweep_weak": ("inproc", "SweepWeak"),
    "cold_cli": ("coldcli", "ColdCli"),
}


def setup(name: str, seed: int, workdir, before_prepare=None):
    """Import the package and prepare the workload's presets and inputs.

    Returns (workload, t_imported, t_ready): the perf_counter readings when
    the package import and the whole set-up had finished.
    """
    env.use_checkout_source()
    import loopcool

    env.check_imported(loopcool)
    t_imported = perf_counter()
    module, cls_name = WORKLOADS[name]
    cls = getattr(importlib.import_module(module), cls_name)
    if before_prepare is not None:
        before_prepare()
    workdir.mkdir(parents=True, exist_ok=True)
    workload = cls.prepare(seed, workdir)
    return workload, t_imported, perf_counter()


def setup_times(model, t0: float, t_imported: float, t_ready: float) -> dict:
    """Import and set-up time of one process since its first line, at
    reference speed (`model`, a speed.SpeedModel) and raw."""
    return {"import_s": model.adjusted(t0, t_imported), "setup_s": model.adjusted(t0, t_ready),
            "raw_import_s": t_imported - t0, "raw_setup_s": t_ready - t0}
