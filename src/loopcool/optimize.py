"""Parameter sweeps, derivative-free occupancy minimization, and the
figure-study presets that emit CSV bundles.

The objective landscape has hard stability walls, so only derivative-free
search is used: a coarse full-factorial scan followed by cyclic Brent line
search (Brent 1973), each search after a coordinate's first opening one
last accepted step away.  Unstable evaluations are kept in traces as
infinite-occupancy sentinels rather than dropped.  An optimum reports its
exact delay margin (langevin.delay_margin).

Each figure study's builder computes its curves and returns the manifest's
study fields with one (file name, description, writer, data) entry per
file; figure_preset writes every entry through _write_bundle, which calls
writer(path, *data) and returns the manifest's files map.  A manifest
names its system and echoes its records in the config keys (spectra.echo),
as a CLI sidecar's config does.  The fig1 and smfig1 studies share the
Stokes-suppressing loop (_suppressing_loop) and the sweep-to-curve step
(_sweep_curve).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import cooling, feedback, langevin, model, presets, quasipoly, spectra
from .cooling import CoolingReport
from .errors import INSTABILITIES, NoStablePointError, ValidationError
from .model import CavityParams, FeedbackConfig, FlatDelay, MechanicsParams, Tabulated

#: golden-section fraction of Brent's safeguarding step
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
#: relative parameter tolerance of the Brent line search
_REL_TOL = 1e-4

VARIABLES = ("gain_amplitude", "homodyne_phase", "detuning", "delay", "coupling")
EVALUATORS = ("weak_coupling", "langevin")


def _check_points(points, what: str) -> int:
    """`points` as an int, if it is an integer of at least 2."""
    try:
        points = operator.index(points)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {points!r}") from None
    if points < 2:
        raise ValidationError(f"{what} must be at least 2, got {points}")
    return points


def _check_range(lo, hi, what: str) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValidationError(f"{what} needs finite bounds with lo < hi, got ({lo}, {hi})")


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
        _check_range(self.lo, self.hi, "sweep range")
        _check_points(self.points, "sweep points")

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
            # amplitude 0 is the zero loop, whatever the measured shape
            return p, m, replace(fb, gain=fb.gain.scaled(value) if value else FlatDelay(0.0))
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


def evaluate(
    p: CavityParams,
    m: MechanicsParams,
    fb: FeedbackConfig,
    evaluator: str = "weak_coupling",
    *,
    rtol: float = 2e-4,
) -> CoolingReport:
    """One stability-checked operating point; the one place a verdict is
    decided.  A report is stable exactly when its n_final is finite, and
    every report keeps the rates it solved.  Both evaluators build the
    weak-coupling report first (cooling.cooling_report).  The exact
    evaluator then always hands its gamma_opt to phonon_occupancy, which
    integrates to `rtol`; the closed-loop zero count inside it is the exact
    evaluator's only verdict.  The weak verdict is the exact count's neutral
    band (a flat loop with model.direct_ratio within quasipoly.NEUTRAL_TOL of
    1 is on the neutral boundary, at any delay), then the rate sign (an
    anti-damped report comes back as it is), then the neutral-type rule (a
    delayed flat loop past the band is unstable), then the G = 0 Nyquist test
    (a Tabulated gain's exact test at G = 0, where R = D); its `unstable: `
    warning names the rule that decided.

    Unstable or boundary loops come back with infinite occupancy instead of
    raising, so sweep traces stay complete.  Invalid input raises
    ValidationError before any work: evaluator, rtol, loop phase; a band,
    curve-domain, convergence or singular rate-solve failure raises as it is.
    """
    if evaluator not in EVALUATORS:
        raise ValidationError(f"unknown evaluator {evaluator!r}")
    if evaluator == "langevin":
        langevin.check_rtol(rtol)
    model.check_loop_phase(p, m, fb)
    report = cooling.cooling_report(p, m, fb)
    if evaluator == "langevin":
        try:
            n = langevin.phonon_occupancy(p, m, fb, rtol, gamma_opt=report.gamma_opt)
        except INSTABILITIES as exc:
            return _settle(report, m, reason=exc)
        return _settle(report, m, n)
    ratio = model.direct_ratio(p, fb) if isinstance(fb.gain, FlatDelay) else math.nan
    if abs(ratio - 1.0) <= quasipoly.NEUTRAL_TOL:
        return _settle(report, m, reason="loop on the neutral boundary")
    if not report.stable:  # anti-damped: the weak formula has no occupancy
        return report
    if isinstance(fb.gain, Tabulated):
        stable = langevin.closed_loop_stability(p, replace(m, G=0.0), fb)
    elif fb.gain.delay > 0.0 and ratio > 1.0:
        return _settle(report, m, reason="delayed loop on or past the neutral boundary")
    else:
        stable = feedback.nyquist_stability(p, fb).stable
    return report if stable else _settle(
        report, m, reason="decoupled loop fails the G = 0 Nyquist test")


def _settle(report: CoolingReport, m: MechanicsParams, n=math.inf, reason=None) -> CoolingReport:
    """`report` with the occupancy `n` and its temperature; a `reason` marks an
    unstable loop (n = inf) and becomes the last warning, `unstable: <reason>`."""
    warnings = report.warnings if reason is None else (*report.warnings, f"unstable: {reason}")
    return replace(report, n_final=n, warnings=warnings,
                   temperature_final=model.occupancy_to_temperature(n, m.omega_m))


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
    accepted move (0 if it did not move), at least that tolerance.  The
    objective is evaluate's n_final, which is inf at every unstable point;
    the returned optimum is always a stable point, and its delay_margin (s)
    is langevin.delay_margin at the full G.
    `rtol` is the exact evaluator's quadrature tolerance (evaluate).  Each
    free variable needs finite bounds with lo < hi, and coarse_points is an
    integer of at least 2; otherwise ValidationError, before any evaluation."""
    if not 1 <= len(free) <= 3:
        raise ValidationError("minimize_occupancy takes 1 to 3 free variables")
    names = list(free)
    for name in names:
        if name not in VARIABLES:
            raise ValidationError(f"unknown sweep variable {name!r}")
        _check_range(*free[name], f"free variable {name!r}")
    coarse_points = _check_points(coarse_points, "coarse_points")
    bounds = [free[name] for name in names]
    trace: list[tuple[dict, float]] = []

    def objective(values: list[float]) -> float:
        p2, m2, fb2 = p, m, fb
        for name, value in zip(names, values):
            p2, m2, fb2 = apply_variable(p2, m2, fb2, name, value)
        n = evaluate(p2, m2, fb2, evaluator, rtol=rtol).n_final
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
    JSON sidecar into `outdir`.  `points` is None (each study's default grid)
    or an integer of at least 2.  Returns the manifest."""
    if name not in PRESET_NAMES:
        raise ValidationError(f"unknown preset {name!r}; known: {PRESET_NAMES}")
    if points is not None:
        points = _check_points(points, "points")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest, entries = _PRESETS[name](points)
    manifest.update(files=_write_bundle(outdir, entries), preset=name, artifact="loopcool")
    meta_path = outdir / f"{name}.json"
    spectra.write_json(meta_path, manifest)
    manifest["metadata_file"] = str(meta_path)
    return manifest


def _write_bundle(outdir: Path, entries) -> dict:
    """Write each (file name, description, writer, data) entry as
    writer(outdir / name, *data); returns the manifest's files map."""
    files = {}
    for name, description, writer, data in entries:
        writer(outdir / name, *data)
        files[name] = description
    return files


def _describe_system(sys: presets.PresetSystem) -> dict:
    return {"system": sys.name, **spectra.echo(sys.cavity, sys.mechanics, sys.loop)}


def _sweep_curve(spec: SweepSpec, column: str, p, m, fb) -> tuple:
    """write_curve_csv's data for the occupancy along `spec`."""
    values, reports = zip(*sweep(spec, p, m, fb))
    return column, "n_final", values, [r.n_final for r in reports]


def _suppressing_loop(sys: presets.PresetSystem, fb: FeedbackConfig) -> tuple:
    """(|g_s|, `fb` at gain amplitude |g_s|); g_s suppresses Stokes in the preset's loop."""
    m = sys.mechanics
    amplitude = abs(feedback.stokes_suppression_gain(sys.cavity, sys.loop, m.omega_m))
    return amplitude, apply_variable(sys.cavity, m, fb, "gain_amplitude", amplitude)[2]


def _preset_fig4_gain(points: int | None) -> tuple:
    sys = presets.experiment()
    gain_norms = np.linspace(0.0, 0.995, points or 25)
    reports = [
        evaluate(sys.cavity, sys.mechanics, sys.with_gain_norm(float(g)), "langevin")
        for g in gain_norms
    ]
    n = [r.n_final for r in reports]
    temps = [r.temperature_final for r in reports]
    return {**_describe_system(sys), "evaluator": "langevin", "no_feedback_occupancy": n[0]}, [
        ("fig4_gain_occupancy.csv", "stationary occupancy vs normalized gain",
         spectra.write_curve_csv, ("gain_norm", "n_final", gain_norms, n)),
        ("fig4_gain_temperature.csv", "equivalent temperature vs normalized gain",
         spectra.write_curve_csv, ("gain_norm", "temperature_k", gain_norms, temps)),
    ]


def _preset_fig4_detuning(points: int | None) -> tuple:
    sys, gain_norm = presets.experiment(), 0.9
    fb = sys.with_gain_norm(gain_norm)
    detunings = model.TWO_PI * np.linspace(320e3, 340e3, points or 21)
    n = [
        evaluate(replace(sys.cavity, detuning=float(delta)), sys.mechanics, fb, "langevin").n_final
        for delta in detunings
    ]
    return {**_describe_system(sys), "evaluator": "langevin", "gain_norm": gain_norm}, [
        ("fig4_detuning_occupancy.csv", "stationary occupancy vs bare detuning at fixed gain",
         spectra.write_curve_csv, ("detuning_hz", "n_final", detunings / model.TWO_PI, n)),
    ]


def _preset_fig2_squash(points: int | None) -> tuple:
    sys = presets.experiment_empty()  # G = 0: the i_fb spectrum is the squash spectrum
    p = sys.cavity
    omega = np.linspace(p.detuning - 10 * p.kappa, p.detuning + 10 * p.kappa, points or 1200)
    entries = []
    for label, sign in (("positive", +1.0), ("negative", -1.0)):
        fb = sys.with_gain_norm(sign * 0.6)
        s_i = langevin.observable_spectrum(p, sys.mechanics, fb, omega, "i_fb")
        entries.append((f"fig2_squash_{label}.csv",
                        f"in-loop photocurrent spectrum, {label} feedback",
                        spectra.write_spectrum_csv, (spectra.Spectrum(omega, s_i),)))
    fb = sys.with_gain_norm(0.6)
    t = feedback.open_loop_transfer(p, fb, omega)
    return {**_describe_system(sys), "gain_norm": 0.6}, [
        *entries,
        ("fig2_open_loop_magnitude.csv", "open-loop transfer magnitude",
         spectra.write_spectrum_csv, (spectra.Spectrum(omega, np.abs(t)),)),
        ("fig2_open_loop_phase.csv", "open-loop transfer phase (rad, unwrapped)",
         spectra.write_spectrum_csv, (spectra.Spectrum(omega, np.unwrap(np.angle(t))),)),
    ]


def _preset_fig3_effective_cavity(points: int | None) -> tuple:
    sys = presets.experiment_empty()
    p = sys.cavity
    gain_norms = np.linspace(-1.0, 0.99, points or 41)
    effs = [feedback.effective_cavity(p, sys.with_gain_norm(float(g))) for g in gain_norms]
    kappa_ratio = [eff.kappa_eff / p.kappa for eff in effs]
    delta_shift = [(eff.delta_eff - p.detuning) / model.TWO_PI for eff in effs]
    entries = [
        ("fig3_kappa_eff.csv", "effective linewidth over bare linewidth vs normalized gain",
         spectra.write_curve_csv, ("gain_norm", "kappa_eff_over_kappa", gain_norms, kappa_ratio)),
        ("fig3_delta_eff_shift.csv", "effective detuning shift (Hz) vs normalized gain",
         spectra.write_curve_csv, ("gain_norm", "delta_shift_hz", gain_norms, delta_shift)),
    ]
    # closed-loop seed response, normalized to its open-loop value (the
    # absolute seed scale is not fixed by the model)
    omega = np.linspace(p.detuning - 8 * p.kappa, p.detuning + 8 * p.kappa, 1200)
    open_loop = model.cavity_susceptibility(p, omega)
    for g in (-0.5, 0.5, 0.9):
        response = feedback.effective_susceptibility(p, sys.with_gain_norm(g), omega) / open_loop
        entries.append((f"fig3_closed_loop_gain{g:+.1f}.csv",
                        f"closed-loop seed response over open loop, gain_norm = {g:+.1f}",
                        spectra.write_complex_csv, (omega, response)))
    return _describe_system(sys), entries


def _fig1_curves(system, points: int | None) -> tuple:
    sys = system()
    pts, p, m = points or 13, sys.cavity, sys.mechanics
    entries = []
    for tag, eta in (("ideal", 1.0), ("realistic", sys.notes["realistic_eta"])):
        fb_eta = replace(sys.loop, eta=eta)
        suppression, fb_amp = _suppressing_loop(sys, fb_eta)
        gain = SweepSpec("gain_amplitude", 0.0, 2.5 * suppression, pts, evaluator="langevin")
        phase = SweepSpec("homodyne_phase", -math.pi, math.pi, pts, evaluator="langevin")
        entries += [
            (f"{sys.name}_gain_{tag}.csv", f"occupancy vs gain amplitude, eta={eta}",
             spectra.write_curve_csv, _sweep_curve(gain, "gain_amplitude", p, m, fb_eta)),
            (f"{sys.name}_phase_{tag}.csv", f"occupancy vs homodyne phase, eta={eta}",
             spectra.write_curve_csv, _sweep_curve(phase, "homodyne_phase_rad", p, m, fb_amp)),
        ]
    baseline = evaluate(p, m, replace(sys.loop, gain=FlatDelay(0.0)), "langevin")
    return {
        **_describe_system(sys),
        "evaluator": "langevin",
        "no_feedback_occupancy": baseline.n_final,
        "suppression_gain_magnitude": suppression,
    }, entries


#: smfig1 sweep variable -> its (lo, hi) from a preset's cavity and mechanics
_SMFIG1_RANGES = {
    "delay": lambda p, m: (0.0, 3.0 * math.pi / m.omega_m),
    "detuning": lambda p, m: (0.5 * p.detuning, 1.5 * p.detuning),
    "coupling": lambda p, m: (0.02 * m.omega_m, 0.15 * m.omega_m),
}


def _smfig1(variable: str, points: int | None) -> tuple:
    systems, entries = (presets.fig1_optical(), presets.fig1_microwave()), []
    for sys in systems:
        p, m = sys.cavity, sys.mechanics
        spec = SweepSpec(variable, *_SMFIG1_RANGES[variable](p, m), points or 15)
        fb = _suppressing_loop(sys, sys.loop)[1]
        entries.append((f"smfig1_{variable}_{sys.name}.csv",
                        f"occupancy vs {variable} ({sys.name})",
                        spectra.write_curve_csv, _sweep_curve(spec, variable, p, m, fb)))
    systems = [_describe_system(sys) for sys in systems]
    return {"systems": systems, "evaluator": "weak_coupling"}, entries


#: preset name -> builder(points), which returns the manifest's study fields
#: and its (file name, description, writer, data) entries for _write_bundle
_PRESETS = {
    "fig1_optical": partial(_fig1_curves, presets.fig1_optical),
    "fig1_microwave": partial(_fig1_curves, presets.fig1_microwave),
    **{f"smfig1_{variable}": partial(_smfig1, variable) for variable in _SMFIG1_RANGES},
    "fig4_gain": _preset_fig4_gain,
    "fig4_detuning": _preset_fig4_detuning,
    "fig2_squash": _preset_fig2_squash,
    "fig3_effective_cavity": _preset_fig3_effective_cavity,
}
PRESET_NAMES = tuple(_PRESETS)
