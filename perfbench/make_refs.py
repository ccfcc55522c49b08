"""Regenerate the stored references in perfbench/refs/ from the current
package source.

    python3 perfbench/make_refs.py

refs/optimize_exact.json: the criterion-7 optimum occupancy of each Fig. 1
system, and the deterministic counts of those two optimisations (the
values the traced run compares its first two tasks with).
refs/sweep_weak.json: occupancy and stability verdict at every lattice
point of the sweep_weak workload.

Only regenerate when a change to the package is meant to change these
results; the benchmark's correctness gate compares against them.
"""

import json
import math

import env  # pins BLAS/OpenMP threads before numpy loads
import numpy as np

env.use_checkout_source()

from inproc import (  # noqa: E402
    AXES,
    FIG1,
    SWEEP_SYSTEMS,
    fig1_problem,
    lattice_axes,
    lattice_point,
    minimize_fig1,
)
from loopcool import optimize, presets  # noqa: E402
from spans import Tracer, raw_sums  # noqa: E402

REFS = env.BENCH_DIR / "refs"


def optimize_refs() -> dict:
    n_best, counts = {}, {}
    for name in FIG1:
        tracer = Tracer()
        tracer.install()
        result = minimize_fig1(*fig1_problem(name, 2.0))
        tracer.uninstall()
        sums = raw_sums(tracer.spans)
        n_best[name] = result.best_occupancy
        counts[name] = {
            "optimize.evaluate.calls": sums["calls"]["optimize.evaluate"],
            "optimize.evaluate.unstable": sums["n"]["optimize.evaluate"],
            "langevin.solve_rows.calls": sums["calls"]["langevin.solve_rows"],
            "langevin.solve_rows.points": sums["n"]["langevin.solve_rows"],
        }
        print(name, n_best[name], counts[name])
    return {"n_best": n_best, "counts": counts}


def sweep_refs() -> dict:
    systems = {}
    for name in SWEEP_SYSTEMS:
        s = getattr(presets, name)()
        axes = lattice_axes(s)
        stable, n_final = [], []
        for idx in np.ndindex(*[a.size for a in axes]):
            report = optimize.evaluate(*lattice_point(s, axes, idx), "weak_coupling")
            stable.append("1" if report.stable else "0")
            n_final.append(report.n_final if math.isfinite(report.n_final) else None)
        systems[name] = {"axes": [a.tolist() for a in axes], "stable": "".join(stable),
                         "n_final": n_final}
        print(name, len(n_final), "points,", stable.count("0"), "unstable")
    return {"axes": AXES, "systems": systems}


if __name__ == "__main__":
    REFS.mkdir(exist_ok=True)
    for fname, build in (("sweep_weak.json", sweep_refs), ("optimize_exact.json", optimize_refs)):
        (REFS / fname).write_text(json.dumps(build(), separators=(",", ":")) + "\n")
