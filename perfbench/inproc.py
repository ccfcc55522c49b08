"""The two in-process workloads.

optimize_exact: Fig. 1 optimum with the exact evaluator, i.e.
`optimize.minimize_occupancy(..., evaluator="langevin")` over gain amplitude
and homodyne phase on `fig1_optical` and `fig1_microwave`.

sweep_weak: seeded operating points on a fixed lattice (gain amplitude,
homodyne phase, detuning, delay) through `optimize.evaluate(...,
"weak_coupling")` and `optimize.sweep`, on both ports: `fig1_*` in
reflection, `experiment` in transmission.

Each workload is a deterministic sequence of tasks: task k depends only on
(seed, k), so a run that completes more tasks in its time is a longer
prefix of the same sequence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from env import BENCH_DIR
from loopcool import feedback, langevin, optimize, presets

REFS = BENCH_DIR / "refs"

# --------------------------------------------------------------------------
# optimize_exact

#: tolerance on the optimum occupancy against the stored reference: five
#: times the exact solver's quadrature tolerance rtol = 2e-4
OPTIMUM_RTOL = 5 * 2e-4
#: acceptance criterion 7: no-feedback over optimized occupancy
MIN_GAIN_RATIO = 5.0
FIG1 = ("fig1_optical", "fig1_microwave")


def fig1_problem(name: str, amp_factor: float):
    """Criterion-7 optimisation on a Fig. 1 system: gain amplitude in
    [0.02, amp_factor * |Stokes-suppressing gain|], phase on the full circle."""
    s = getattr(presets, name)()
    scale = abs(feedback.stokes_suppression_gain(s.cavity, s.loop, s.mechanics.omega_m))
    free = {"gain_amplitude": (0.02, amp_factor * scale),
            "homodyne_phase": (-math.pi, math.pi)}
    return s, free


def minimize_fig1(s, free):
    return optimize.minimize_occupancy(
        s.cavity, s.mechanics, s.loop, free=free, evaluator="langevin",
        coarse_points=9, max_cycles=4,
    )


@dataclass
class OptimizeExact:
    """Task k optimises fig1_optical (even k) or fig1_microwave (odd k).
    Tasks 0 and 1 are the criterion-7 problems as the tests pose them
    (amplitude bound 2x the suppressing gain); later tasks draw the bound
    factor from [1.8, 2.2] with the seed."""

    seed: int
    refs: dict
    no_feedback: dict
    min_tasks = 2
    prefix = 2

    @classmethod
    def prepare(cls, seed: int, workdir) -> "OptimizeExact":
        refs = json.loads((REFS / "optimize_exact.json").read_text())
        no_feedback = {}
        for name in FIG1:
            s = getattr(presets, name)()
            quiet = replace(s.loop, gain=replace(s.loop.gain, amplitude=0.0))
            no_feedback[name] = langevin.phonon_occupancy(s.cavity, s.mechanics, quiet)
        return cls(seed=seed, refs=refs, no_feedback=no_feedback)

    def task(self, k: int):
        factor = 2.0 if k < 2 else float(np.random.default_rng([self.seed, k]).uniform(1.8, 2.2))
        return FIG1[k % 2], factor

    def execute(self, task):
        name, factor = task
        result = minimize_fig1(*fig1_problem(name, factor))
        unstable = sum(1 for _, n in result.trace if not math.isfinite(n))
        return {"system": name, "amp_factor": factor, "n_best": result.best_occupancy,
                "evaluations": len(result.trace), "unstable": unstable}

    def check(self, out) -> tuple[int, list[str]]:
        """(operations attempted, failure messages) for one task's outcome."""
        ref = self.refs["n_best"][out["system"]]
        errors = []
        if not abs(out["n_best"] - ref) <= OPTIMUM_RTOL * ref:
            errors.append(f"{out['system']}: optimum {out['n_best']!r} vs reference {ref!r}")
        ratio = self.no_feedback[out["system"]] / out["n_best"]
        if not ratio >= MIN_GAIN_RATIO:
            errors.append(f"{out['system']}: n_no_feedback / n_best = {ratio:.3g} < 5")
        return 1, errors

    def seed_commit_counts(self) -> dict:
        """Counts of tasks 0 and 1 together at the commit that defined the
        benchmark (refs/optimize_exact.json)."""
        per_system = self.refs["counts"].values()
        return {name: sum(c[name] for c in per_system) for name in next(iter(per_system))}


# --------------------------------------------------------------------------
# sweep_weak

SWEEP_SYSTEMS = ("fig1_optical", "fig1_microwave", "experiment")
AXES = ("gain_amplitude", "homodyne_phase", "detuning", "delay")
#: lattice points per axis
AXIS_POINTS = (12, 12, 4, 4)
#: weak-coupling occupancies are elementwise closed forms
OCCUPANCY_RTOL = 1e-6
#: individually timed evaluations per task, besides its sweep
EVALS_PER_TASK = 16


def lattice_axes(s) -> list[np.ndarray]:
    """Axis values of a system's lattice.  Gain amplitude runs to the
    Stokes-suppressing gain (reflection) or to gain_norm 0.995
    (transmission); phase over the full circle; detuning and delay over
    +-10 % and 0.5x to 1.5x of the preset values."""
    p, m, fb = s.cavity, s.mechanics, s.loop
    if math.isfinite(s.gain_norm_per_amplitude):
        amp_hi = 0.995 / s.gain_norm_per_amplitude
    else:
        amp_hi = abs(feedback.stokes_suppression_gain(p, fb, m.omega_m))
    n_amp, n_phi, n_det, n_del = AXIS_POINTS
    return [
        np.linspace(0.0, amp_hi, n_amp),
        np.linspace(-math.pi, math.pi, n_phi),
        np.linspace(0.9 * p.detuning, 1.1 * p.detuning, n_det),
        np.linspace(0.5 * fb.gain.delay, 1.5 * fb.gain.delay, n_del),
    ]


def lattice_point(s, axes, idx):
    q = (s.cavity, s.mechanics, s.loop)
    for name, values, i in zip(AXES, axes, idx):
        q = optimize.apply_variable(*q, name, float(values[i]))
    return q


def flat_index(idx) -> int:
    return int(np.ravel_multi_index(tuple(idx), AXIS_POINTS))


@dataclass
class SweepWeak:
    """Task k belongs to system k mod 3.  It runs one `optimize.sweep` along
    the gain-amplitude or homodyne-phase axis from a seeded base point, then
    `EVALS_PER_TASK` seeded single `optimize.evaluate` calls.  Every point
    is a lattice point, so each result is checked against the stored
    reference occupancy and stability verdict."""

    seed: int
    systems: list
    axes: list
    refs: dict
    min_tasks = 3
    prefix = 30

    @classmethod
    def prepare(cls, seed: int, workdir) -> "SweepWeak":
        refs = json.loads((REFS / "sweep_weak.json").read_text())
        systems = [getattr(presets, name)() for name in SWEEP_SYSTEMS]
        axes = [lattice_axes(s) for s in systems]
        return cls(seed=seed, systems=systems, axes=axes, refs=refs)

    def task(self, k: int):
        rng = np.random.default_rng([self.seed, k])
        sys_idx = k % len(SWEEP_SYSTEMS)
        swept = int(rng.integers(2))
        base = [int(rng.integers(n)) for n in AXIS_POINTS]
        points = [[int(rng.integers(n)) for n in AXIS_POINTS] for _ in range(EVALS_PER_TASK)]
        return sys_idx, swept, base, points

    def execute(self, task):
        sys_idx, swept, base, points = task
        s, axes = self.systems[sys_idx], self.axes[sys_idx]
        values = axes[swept]
        spec = optimize.SweepSpec(AXES[swept], float(values[0]), float(values[-1]),
                                  values.size, evaluator="weak_coupling")
        fixed = list(base)
        fixed[swept] = 0
        t0 = perf_counter()
        rows = optimize.sweep(spec, *lattice_point(s, axes, fixed))
        sweep_iv = (t0, perf_counter())
        results = []
        for i, (_, report) in enumerate(rows):
            idx = list(base)
            idx[swept] = i
            results.append((flat_index(idx), report.stable, report.n_final))
        for idx in points:
            report = optimize.evaluate(*lattice_point(s, axes, idx), "weak_coupling")
            results.append((flat_index(idx), report.stable, report.n_final))
        return {"system": SWEEP_SYSTEMS[sys_idx], "unit_iv": sweep_iv,
                "evaluations": len(results), "results": results}

    def check(self, out) -> tuple[int, list[str]]:
        ref = self.refs["systems"][out["system"]]
        errors = []
        for flat, stable, n in out["results"]:
            ref_stable = ref["stable"][flat] == "1"
            ref_n = ref["n_final"][flat]
            ref_n = math.inf if ref_n is None else ref_n
            same = (n == ref_n) or abs(n - ref_n) <= OCCUPANCY_RTOL * abs(ref_n)
            if stable != ref_stable or not same:
                errors.append(f"{out['system']} point {flat}: stable={stable} n={n!r}, "
                              f"reference stable={ref_stable} n={ref_n!r}")
        return len(out["results"]), errors
