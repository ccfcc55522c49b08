"""Parameter sweeps, derivative-free occupancy minimization, and the
figure-study presets that emit CSV bundles.

The objective landscape has hard stability walls, so only derivative-free
search is used: a coarse full-factorial scan followed by cyclic Brent line
search (Brent 1973), each search after a coordinate's first opening one
last accepted step away.  Unstable evaluations are kept in traces as
infinite-occupancy sentinels rather than dropped.  An optimum reports its
exact delay margin (langevin.delay_margin).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import cooling, feedback, langevin, model, presets, spectra
from .cooling import CoolingReport, RatePair
from .errors import LoopcoolError, NoStablePointError, ValidationError
from .model import CavityParams, FeedbackConfig, FlatDelay, MechanicsParams, Tabulated

#: golden-section fraction of Brent's safeguarding step
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
#: relative parameter tolerance of the Brent line search
_REL_TOL = 1e-4

VARIABLES = ("gain_amplitude", "homodyne_phase", "detuning", "delay", "coupling")
EVALUATORS = ("weak_coupling", "langevin")


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    lo: float
    hi: float
    points: int
    evaluator: str = "weak_coupling"

    def __post_init__(self):
        if self.variable not in VARIABLES:
            raise ValidationError(f"unknown sweep variable {self.variable!r}")
        if self.evaluator not in EVALUATORS:
            raise ValidationError(f"unknown evaluator {self.evaluator!r}")
        if not self.lo < self.hi:
            raise ValidationError("sweep range must satisfy lo < hi")
        if self.points < 2:
            raise ValidationError("sweep needs at least 2 points")

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class OptimizationResult:
    best_params: dict
    best_occupancy: float
    delay_margin: float
    trace: tuple


def apply_variable(
    p: CavityParams,
    m: MechanicsParams,
    fb: FeedbackConfig,
    variable: str,
    value: float,
):
    """Return (p, m, fb) with one swept quantity replaced."""
    if variable == "gain_amplitude":
        if isinstance(fb.gain, FlatDelay):
            return p, m, replace(fb, gain=replace(fb.gain, amplitude=value))
        if isinstance(fb.gain, Tabulated):
            return p, m, replace(fb, gain=fb.gain.scaled(value))
        raise ValidationError("gain model does not support amplitude sweeps")
    if variable == "homodyne_phase":
        return p, m, replace(fb, phi=value)
    if variable == "detuning":
        return replace(p, detuning=value), m, fb
    if variable == "delay":
        if not isinstance(fb.gain, FlatDelay):
            raise ValidationError("delay sweeps need a flat-delay gain model")
        return p, m, replace(fb, gain=replace(fb.gain, delay=value))
    if variable == "coupling":
        return p, replace(m, G=value), fb
    raise ValidationError(f"unknown sweep variable {variable!r}")


def _unstable_report(m: MechanicsParams, reason: str) -> CoolingReport:
    return CoolingReport(
        rates=RatePair(a_plus=math.nan, a_minus=math.nan),
        n_backaction=math.inf,
        n_final=math.inf,
        kappa_eff=math.nan,
        delta_eff=math.nan,
        gain_norm=math.nan,
        stable=False,
        temperature_final=math.inf,
        warnings=(reason,),
    )


def evaluate(
    p: CavityParams,
    m: MechanicsParams,
    fb: FeedbackConfig,
    evaluator: str = "weak_coupling",
    *,
    rtol: float = 2e-4,
) -> CoolingReport:
    """One stability-checked operating point; the one place a verdict is
    decided.  Both evaluators build the weak-coupling report first, so its
    anti-damping raise (gamma_opt <= -gamma_m) is a cheap pre-filter.  The
    exact evaluator then hands the report's gamma_opt to phonon_occupancy,
    which integrates to `rtol`, and takes its closed-loop verdict, the weak
    one the G = 0 Nyquist test plus the rate sign.

    Unstable or boundary configurations come back flagged with infinite
    occupancy instead of raising, so sweep traces stay complete.  Invalid
    input raises ValidationError before any work: evaluator, rtol, loop phase.
    """
    if evaluator not in EVALUATORS:
        raise ValidationError(f"unknown evaluator {evaluator!r}")
    if evaluator == "langevin":
        langevin.check_rtol(rtol)
    model.check_loop_phase(p, m, fb)
    try:
        report = cooling.cooling_report(p, m, fb)
        if evaluator == "langevin":
            # the exact closed-loop verdict is taken inside phonon_occupancy
            n = langevin.phonon_occupancy(p, m, fb, rtol, gamma_opt=report.gamma_opt)
            return replace(
                report,
                n_final=n,
                temperature_final=model.occupancy_to_temperature(n, m.omega_m),
            )
        verdict = feedback.nyquist_stability(p, fb)
        # NaN rates fail the damping conjunct and so count as unstable
        stable = verdict.stable and report.gamma_opt > -m.gamma_m
    except ValidationError:
        raise
    except LoopcoolError as exc:
        return _unstable_report(m, f"unstable: {exc}")
    if not stable:
        return replace(report, stable=False, n_final=math.inf, temperature_final=math.inf)
    return report


def sweep(
    spec: SweepSpec,
    p: CavityParams,
    m: MechanicsParams,
    fb: FeedbackConfig,
) -> list[tuple[float, CoolingReport]]:
    """One report per grid point of the swept variable."""
    out = []
    for value in spec.grid():
        p2, m2, fb2 = apply_variable(p, m, fb, spec.variable, float(value))
        out.append((float(value), evaluate(p2, m2, fb2, spec.evaluator)))
    return out


def minimize_occupancy(
    p: CavityParams,
    m: MechanicsParams,
    fb: FeedbackConfig,
    free: dict[str, tuple[float, float]],
    evaluator: str = "weak_coupling",
    coarse_points: int = 9,
    max_cycles: int = 8,
    *,
    rtol: float = 2e-4,
) -> OptimizationResult:
    """Coarse grid scan over up to three free variables, then a cyclic Brent
    line search (Brent 1973) per coordinate from the current point, within
    one coarse spacing of it, down to a fixed 1e-4 relative parameter
    tolerance.  A coordinate's first search opens at a golden probe; each
    later one opens one step away, the step being its previous search's
    accepted move (0 if it did not move), at least that tolerance.  Every
    evaluation is stability-checked; the returned optimum is always a stable
    point, and its delay_margin (s) is langevin.delay_margin at the full G.
    `rtol` is the exact evaluator's quadrature tolerance (evaluate)."""
    if not 1 <= len(free) <= 3:
        raise ValidationError("minimize_occupancy takes 1 to 3 free variables")
    names = list(free)
    for name in names:
        if name not in VARIABLES:
            raise ValidationError(f"unknown sweep variable {name!r}")
    bounds = [free[name] for name in names]
    trace: list[tuple[dict, float]] = []

    def objective(values: list[float]) -> float:
        p2, m2, fb2 = p, m, fb
        for name, value in zip(names, values):
            p2, m2, fb2 = apply_variable(p2, m2, fb2, name, value)
        report = evaluate(p2, m2, fb2, evaluator, rtol=rtol)
        n = report.n_final if report.stable else math.inf
        trace.append((dict(zip(names, values)), n))
        return n

    grids = [np.linspace(lo, hi, coarse_points) for lo, hi in bounds]
    best_vals, best = None, math.inf
    for idx in np.ndindex(*[g.size for g in grids]):
        vals = [float(grids[k][i]) for k, i in enumerate(idx)]
        n = objective(vals)
        if n < best:
            best, best_vals = n, vals
    if best_vals is None or not math.isfinite(best):
        raise NoStablePointError("no stable point in bounds")

    spacing = [
        (hi - lo) / (coarse_points - 1) for lo, hi in bounds
    ]
    current = list(best_vals)
    # each coordinate's last accepted move; None until its first search
    moves: list[float | None] = [None] * len(names)
    for _ in range(max_cycles):
        moved = 0.0
        for k, name in enumerate(names):
            lo = max(bounds[k][0], current[k] - spacing[k])
            hi = min(bounds[k][1], current[k] + spacing[k])
            scale = max(abs(hi), abs(lo), 1e-30)
            tol = _REL_TOL * scale
            x, fx = _line_search(
                lambda v: objective([*current[:k], v, *current[k + 1 :]]),
                lo,
                hi,
                x=current[k],
                fx=best,
                tol=tol,
                step=None if moves[k] is None else max(moves[k], tol),
            )
            moves[k] = 0.0
            if fx < best:
                moves[k] = abs(x - current[k])
                moved = max(moved, moves[k] / scale)
                current[k], best = x, fx
        if moved < _REL_TOL:
            break

    p2, m2, fb2 = p, m, fb
    for name, value in zip(names, current):
        p2, m2, fb2 = apply_variable(p2, m2, fb2, name, value)
    return OptimizationResult(
        best_params=dict(zip(names, current)),
        best_occupancy=best,
        delay_margin=langevin.delay_margin(p2, m2, fb2),
        trace=tuple(trace),
    )


def _line_search(
    fn, lo: float, hi: float, x: float, fx: float, tol: float, *, step: float | None = None
) -> tuple[float, float]:
    """Brent's minimiser of `fn` on [lo, hi] (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5) from the known point x with
    finite fx = fn(x), to a bracket no wider than `tol`; returns (x, fx), never
    worse than the start.  Parabolic steps go only through three finite values,
    so an unstable (infinite) probe just shrinks the bracket by a golden step.

    A `step` of at least `tol` opens the search one step away rather than at a
    golden probe: it probes x + step and, if that is no better, x - step, each
    only if it lies strictly inside the bracket.  Both probes update the
    bracket and v, w by Brent's rules, and the search goes on as if its step
    before last had been `step`, so its next step may already be parabolic."""
    a, b = lo, hi
    w = v = start = x
    fw = fv = fx
    d = 0.0
    e = 0.0 if step is None else step
    openers = [] if step is None else [step, -step]
    tol1 = tol / 4.0
    while True:
        mid = 0.5 * (a + b)
        if abs(x - mid) <= 2.0 * tol1 - 0.5 * (b - a):
            return x, fx
        if openers:
            d = openers.pop(0)
            if x != start or not a < x + d < b:
                continue
        else:
            parabolic = False
            if abs(e) > tol1 and math.isfinite(fw) and math.isfinite(fv):
                r = (x - w) * (fx - fv)
                q = (x - v) * (fx - fw)
                p = (x - v) * q - (x - w) * r
                q = 2.0 * (q - r)
                p, q = (-p, q) if q > 0.0 else (p, -q)
                if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                    parabolic, e, d = True, d, p / q
                    if x + d - a < 2.0 * tol1 or b - x - d < 2.0 * tol1:
                        d = math.copysign(tol1, mid - x)
            if not parabolic:
                e = (a if x >= mid else b) - x
                d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = fn(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


# --------------------------------------------------------------------------
# figure-study presets

def figure_preset(name: str, outdir, points: int | None = None) -> dict:
    """Run a named figure study and write its CSV bundle plus a metadata
    JSON sidecar into `outdir`.  Returns the manifest."""
    if name not in PRESET_NAMES:
        raise ValidationError(f"unknown preset {name!r}; known: {PRESET_NAMES}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = _PRESETS[name](outdir, points)
    manifest["preset"] = name
    manifest["artifact"] = "loopcool"
    meta_path = outdir / f"{name}.json"
    with open(meta_path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest["metadata_file"] = str(meta_path)
    return manifest


def _describe_system(sys: presets.PresetSystem) -> dict:
    p, m, fb = sys.cavity, sys.mechanics, sys.loop
    return {
        "system": sys.name,
        "cavity_hz": {
            "kappa0": p.kappa0 / model.TWO_PI,
            "kappa1": p.kappa1 / model.TWO_PI,
            "kappa_prime": p.kappa_prime / model.TWO_PI,
            "detuning": p.detuning / model.TWO_PI,
        },
        "mechanics_hz": {
            "omega_m": m.omega_m / model.TWO_PI,
            "gamma_m": m.gamma_m / model.TWO_PI,
            "coupling": m.G / model.TWO_PI,
            "n_th": m.n_th,
        },
        "feedback": {
            "port": fb.port.value,
            "phi_rad": fb.phi,
            "eta": fb.eta,
        },
    }


def _preset_fig4_gain(outdir: Path, points: int | None) -> dict:
    sys = presets.experiment()
    pts = points or 25
    gain_norms = np.linspace(0.0, 0.995, pts)
    reports = []
    for g in gain_norms:
        fb = sys.with_gain_norm(float(g))
        reports.append(evaluate(sys.cavity, sys.mechanics, fb, "langevin"))
    files = {}
    path = outdir / "fig4_gain_occupancy.csv"
    n = np.array([r.n_final for r in reports])
    spectra.write_curve_csv(path, "gain_norm", "n_final", gain_norms, n)
    files[path.name] = "stationary occupancy vs normalized gain"
    temps = [r.temperature_final for r in reports]
    path = outdir / "fig4_gain_temperature.csv"
    spectra.write_curve_csv(path, "gain_norm", "temperature_k", gain_norms, temps)
    files[path.name] = "equivalent temperature vs normalized gain"
    return {
        **_describe_system(sys),
        "evaluator": "langevin",
        "files": files,
        "no_feedback_occupancy": reports[0].n_final,
    }


def _preset_fig4_detuning(outdir: Path, points: int | None) -> dict:
    sys = presets.experiment()
    pts = points or 21
    gain_norm = 0.9
    fb = sys.with_gain_norm(gain_norm)
    detunings = model.TWO_PI * np.linspace(320e3, 340e3, pts)
    rows = []
    for delta in detunings:
        p = replace(sys.cavity, detuning=float(delta))
        rows.append(evaluate(p, sys.mechanics, fb, "langevin").n_final)
    files = {}
    path = outdir / "fig4_detuning_occupancy.csv"
    spectra.write_curve_csv(
        path,
        "detuning_hz",
        "n_final",
        detunings / model.TWO_PI,
        rows,
    )
    files[path.name] = "stationary occupancy vs bare detuning at fixed gain"
    return {
        **_describe_system(sys),
        "evaluator": "langevin",
        "gain_norm": gain_norm,
        "files": files,
    }


def _preset_fig2_squash(outdir: Path, points: int | None) -> dict:
    sys = presets.experiment_empty()
    pts = points or 1200
    p = sys.cavity
    omega = np.linspace(p.detuning - 10 * p.kappa, p.detuning + 10 * p.kappa, pts)
    files = {}
    for label, sign in (("positive", +1.0), ("negative", -1.0)):
        fb = sys.with_gain_norm(sign * 0.6)
        s_i = feedback.squash_spectrum(p, fb, omega)
        path = outdir / f"fig2_squash_{label}.csv"
        spectra.write_spectrum_csv(path, spectra.Spectrum(omega, s_i))
        files[path.name] = f"in-loop photocurrent spectrum, {label} feedback"
    fb = sys.with_gain_norm(0.6)
    t = np.array([feedback.open_loop_transfer(p, fb, w) for w in omega])
    path = outdir / "fig2_open_loop_magnitude.csv"
    spectra.write_spectrum_csv(path, spectra.Spectrum(omega, np.abs(t)))
    files[path.name] = "open-loop transfer magnitude"
    path = outdir / "fig2_open_loop_phase.csv"
    spectra.write_spectrum_csv(path, spectra.Spectrum(omega, np.unwrap(np.angle(t))))
    files[path.name] = "open-loop transfer phase (rad, unwrapped)"
    return {**_describe_system(sys), "gain_norm": 0.6, "files": files}


def _preset_fig3_effective_cavity(outdir: Path, points: int | None) -> dict:
    sys = presets.experiment_empty()
    pts = points or 41
    gain_norms = np.linspace(-1.0, 0.99, pts)
    kappa_ratio, delta_shift = [], []
    for g in gain_norms:
        eff = feedback.effective_cavity(sys.cavity, sys.with_gain_norm(float(g)))
        kappa_ratio.append(eff.kappa_eff / sys.cavity.kappa)
        delta_shift.append((eff.delta_eff - sys.cavity.detuning) / model.TWO_PI)
    files = {}
    path = outdir / "fig3_kappa_eff.csv"
    spectra.write_curve_csv(path, "gain_norm", "kappa_eff_over_kappa", gain_norms, kappa_ratio)
    files[path.name] = "effective linewidth over bare linewidth vs normalized gain"
    path = outdir / "fig3_delta_eff_shift.csv"
    spectra.write_curve_csv(path, "gain_norm", "delta_shift_hz", gain_norms, delta_shift)
    files[path.name] = "effective detuning shift (Hz) vs normalized gain"
    # closed-loop seed response, normalized to its open-loop value (the
    # absolute seed scale is not fixed by the model)
    p = sys.cavity
    omega = np.linspace(p.detuning - 8 * p.kappa, p.detuning + 8 * p.kappa, 1200)
    for g in (-0.5, 0.5, 0.9):
        fb = sys.with_gain_norm(g)
        response = feedback.effective_susceptibility(
            p, fb, omega
        ) / model.cavity_susceptibility(p, omega)
        path = outdir / f"fig3_closed_loop_gain{g:+.1f}.csv"
        spectra.write_complex_csv(path, omega, response)
        files[path.name] = (
            f"closed-loop seed response over open loop, gain_norm = {g:+.1f}"
        )
    return {**_describe_system(sys), "files": files}


def _write_sweep(path: Path, column: str, rows) -> None:
    values, reports = zip(*rows)
    spectra.write_curve_csv(path, column, "n_final", values, [r.n_final for r in reports])


def _fig1_curves(outdir: Path, sys: presets.PresetSystem, points: int | None) -> dict:
    pts = points or 13
    m = sys.mechanics
    suppression = feedback.stokes_suppression_gain(sys.cavity, sys.loop, m.omega_m)
    amp_hi = 2.5 * abs(suppression)
    files = {}
    etas = {"ideal": 1.0, "realistic": sys.notes["realistic_eta"]}
    for tag, eta in etas.items():
        fb_eta = replace(sys.loop, eta=eta)
        spec = SweepSpec("gain_amplitude", 0.0, amp_hi, pts, evaluator="langevin")
        path = outdir / f"{sys.name}_gain_{tag}.csv"
        _write_sweep(path, "gain_amplitude", sweep(spec, sys.cavity, m, fb_eta))
        files[path.name] = f"occupancy vs gain amplitude, eta={eta}"

        _, _, fb_amp = apply_variable(
            sys.cavity, m, fb_eta, "gain_amplitude", abs(suppression)
        )
        spec = SweepSpec("homodyne_phase", -math.pi, math.pi, pts, evaluator="langevin")
        path = outdir / f"{sys.name}_phase_{tag}.csv"
        _write_sweep(path, "homodyne_phase_rad", sweep(spec, sys.cavity, m, fb_amp))
        files[path.name] = f"occupancy vs homodyne phase, eta={eta}"
    baseline = evaluate(sys.cavity, m, replace(sys.loop, gain=FlatDelay(0.0)), "langevin")
    return {
        **_describe_system(sys),
        "evaluator": "langevin",
        "files": files,
        "no_feedback_occupancy": baseline.n_final,
        "suppression_gain_magnitude": abs(suppression),
    }


def _smfig1(outdir: Path, variable: str, points: int | None) -> dict:
    pts = points or 15
    files = {}
    meta_systems = []
    for sys in (presets.fig1_optical(), presets.fig1_microwave()):
        m = sys.mechanics
        suppression = feedback.stokes_suppression_gain(sys.cavity, sys.loop, m.omega_m)
        _, _, fb0 = apply_variable(
            sys.cavity, m, sys.loop, "gain_amplitude", abs(suppression)
        )
        if variable == "delay":
            lo, hi = 0.0, 3.0 * math.pi / m.omega_m
        elif variable == "detuning":
            lo, hi = 0.5 * sys.cavity.detuning, 1.5 * sys.cavity.detuning
        else:
            lo, hi = 0.02 * m.omega_m, 0.15 * m.omega_m
        spec = SweepSpec(variable, lo, hi, pts, evaluator="weak_coupling")
        path = outdir / f"smfig1_{variable}_{sys.name}.csv"
        _write_sweep(path, variable, sweep(spec, sys.cavity, m, fb0))
        files[path.name] = f"occupancy vs {variable} ({sys.name})"
        meta_systems.append(_describe_system(sys))
    return {"systems": meta_systems, "evaluator": "weak_coupling", "files": files}


#: preset name -> builder(outdir, points) returning the manifest
_PRESETS = {
    "fig1_optical": lambda outdir, points: _fig1_curves(
        outdir, presets.fig1_optical(), points
    ),
    "fig1_microwave": lambda outdir, points: _fig1_curves(
        outdir, presets.fig1_microwave(), points
    ),
    "smfig1_delay": lambda outdir, points: _smfig1(outdir, "delay", points),
    "smfig1_detuning": lambda outdir, points: _smfig1(outdir, "detuning", points),
    "smfig1_coupling": lambda outdir, points: _smfig1(outdir, "coupling", points),
    "fig4_gain": _preset_fig4_gain,
    "fig4_detuning": _preset_fig4_detuning,
    "fig2_squash": _preset_fig2_squash,
    "fig3_effective_cavity": _preset_fig3_effective_cavity,
}
PRESET_NAMES = tuple(_PRESETS)
