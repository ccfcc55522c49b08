"""Batch command-line front end.

All human-facing numbers are ordinary frequencies in Hz; conversion to the
angular-frequency internals happens here.  Results land as CSV files plus
a JSON sidecar holding the fully resolved configuration, so identical
invocations produce byte-identical artifacts.

Exit codes: 0 success, 2 validation/parse error, 3 instability where a
stable result was required.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import feedback, ingest, langevin, model, optimize, presets, spectra
from .errors import (
    InstabilityBoundaryError,
    LoopcoolError,
    NoStablePointError,
    OptomechanicalInstabilityError,
    ValidationError,
)
from .model import CavityParams, FeedbackConfig, FlatDelay, MechanicsParams, Port

TWO_PI = 2.0 * math.pi

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNSTABLE = 3

_INSTABILITY_ERRORS = (
    OptomechanicalInstabilityError,
    InstabilityBoundaryError,
    NoStablePointError,
)


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {sorted(unknown)}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {"system": "experiment"}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("config document must be a JSON object")
    _reject_unknown(
        doc, {"system", "cavity", "mechanics", "feedback", "evaluator", "output"},
        "config",
    )
    return doc


def _build_gain(section: dict, base: FeedbackConfig, sys) -> FeedbackConfig:
    _reject_unknown(
        section,
        {"type", "amplitude", "delay_s", "phase_offset_rad", "path", "value"},
        "feedback.gain",
    )
    kind = section.get("type", "flat_delay")
    if kind == "flat_delay":
        gain = FlatDelay(
            amplitude=float(section.get("amplitude", 0.0)),
            delay=float(section.get("delay_s", 0.0)),
            phase_offset=float(section.get("phase_offset_rad", 0.0)),
        )
        return replace(base, gain=gain)
    if kind == "tabulated":
        if "path" not in section:
            raise ValidationError("tabulated gain needs a 'path'")
        trace = ingest.parse_bode(section["path"])
        curve = model.TransferCurve(TWO_PI * trace.frequency_hz, trace.values())
        return replace(base, gain=model.Tabulated(curve))
    if kind == "preset_gain_norm":
        if sys is None:
            raise ValidationError("preset_gain_norm requires a 'system' entry")
        return sys.with_gain_norm(float(section.get("value", 0.0)))
    raise ValidationError(f"unknown gain type {kind!r}")


def resolve_config(doc: dict):
    """Build (CavityParams, MechanicsParams, FeedbackConfig, evaluator dict)
    from a config document, starting from the named system when given."""
    sys_obj = None
    if "system" in doc:
        sys_obj = presets.get_system(doc["system"])
        p, m, fb = sys_obj.cavity, sys_obj.mechanics, sys_obj.loop
    else:
        p = m = fb = None

    cav = doc.get("cavity", {})
    _reject_unknown(
        cav,
        {"kappa0_hz", "kappa1_hz", "kappa_prime_hz", "detuning_hz", "drive_power_w",
         "laser_wavelength_m"},
        "cavity",
    )
    if p is None and not cav:
        raise ValidationError("config needs a 'system' or a 'cavity' section")
    if cav:
        defaults = p or CavityParams(kappa0=1.0, kappa1=0.0, kappa_prime=0.0, detuning=0.0)
        p = CavityParams(
            kappa0=TWO_PI * cav.get("kappa0_hz", defaults.kappa0 / TWO_PI),
            kappa1=TWO_PI * cav.get("kappa1_hz", defaults.kappa1 / TWO_PI),
            kappa_prime=TWO_PI * cav.get("kappa_prime_hz", defaults.kappa_prime / TWO_PI),
            detuning=TWO_PI * cav.get("detuning_hz", defaults.detuning / TWO_PI),
            drive_power=cav.get("drive_power_w", defaults.drive_power),
            laser_wavelength=cav.get("laser_wavelength_m", defaults.laser_wavelength),
        )

    mech = doc.get("mechanics", {})
    _reject_unknown(
        mech,
        {"omega_m_hz", "gamma_m_hz", "n_th", "bath_temperature_k", "g0_hz",
         "coupling_hz"},
        "mechanics",
    )
    if m is None and not mech:
        raise ValidationError("config needs a 'system' or a 'mechanics' section")
    if mech:
        defaults = m or MechanicsParams(omega_m=1.0, gamma_m=1.0, n_th=0.0)
        omega_m = TWO_PI * mech.get("omega_m_hz", defaults.omega_m / TWO_PI)
        if "n_th" in mech and "bath_temperature_k" in mech:
            raise ValidationError("give n_th or bath_temperature_k, not both")
        if "bath_temperature_k" in mech:
            n_th = model.temperature_to_occupancy(mech["bath_temperature_k"], omega_m)
        else:
            n_th = mech.get("n_th", defaults.n_th)
        g0 = mech.get("g0_hz", None)
        m = MechanicsParams(
            omega_m=omega_m,
            gamma_m=TWO_PI * mech.get("gamma_m_hz", defaults.gamma_m / TWO_PI),
            n_th=n_th,
            g0=TWO_PI * g0 if g0 is not None else defaults.g0,
            G=TWO_PI * mech.get("coupling_hz", defaults.G / TWO_PI),
        )

    fbs = doc.get("feedback", {})
    _reject_unknown(fbs, {"port", "phi_rad", "eta", "gain"}, "feedback")
    if fb is None:
        fb = FeedbackConfig()
    if fbs:
        port = fbs.get("port", fb.port.value)
        try:
            port = Port(port)
        except ValueError:
            raise ValidationError(
                f"port must be 'reflection' or 'transmission', got {port!r}"
            ) from None
        fb = replace(
            fb,
            port=port,
            phi=float(fbs.get("phi_rad", fb.phi)),
            eta=float(fbs.get("eta", fb.eta)),
        )
        if "gain" in fbs:
            fb = _build_gain(fbs["gain"], fb, sys_obj)

    ev = doc.get("evaluator", {})
    _reject_unknown(ev, {"kind", "rtol"}, "evaluator")
    kind = ev.get("kind", "weak_coupling")
    if kind == "weak":
        kind = "weak_coupling"
    evaluator = {"kind": kind, "rtol": float(ev.get("rtol", 2e-4))}
    if evaluator["kind"] not in optimize.EVALUATORS:
        raise ValidationError(f"unknown evaluator {evaluator['kind']!r}")

    out = doc.get("output", {})
    _reject_unknown(out, {"label"}, "output")
    label = out.get("label", "run")
    return p, m, fb, evaluator, label


def _resolved_dict(p, m, fb, evaluator) -> dict:
    gain = fb.gain
    if isinstance(gain, FlatDelay):
        gain_doc = {
            "type": "flat_delay",
            "amplitude": gain.amplitude,
            "delay_s": gain.delay,
            "phase_offset_rad": gain.phase_offset,
        }
    else:
        lo, hi = gain.curve.domain
        gain_doc = {
            "type": "tabulated",
            "band_hz": [lo / TWO_PI, hi / TWO_PI],
            "samples": int(gain.curve.omega.size),
        }
    return {
        "units": "frequencies in Hz at this boundary; rad/s internally",
        "cavity": {
            "kappa0_hz": p.kappa0 / TWO_PI,
            "kappa1_hz": p.kappa1 / TWO_PI,
            "kappa_prime_hz": p.kappa_prime / TWO_PI,
            "detuning_hz": p.detuning / TWO_PI,
            "drive_power_w": p.drive_power,
            "laser_wavelength_m": p.laser_wavelength,
        },
        "mechanics": {
            "omega_m_hz": m.omega_m / TWO_PI,
            "gamma_m_hz": m.gamma_m / TWO_PI,
            "n_th": m.n_th,
            "g0_hz": (m.g0 / TWO_PI) if m.g0 is not None else None,
            "coupling_hz": m.G / TWO_PI,
        },
        "feedback": {
            "port": fb.port.value,
            "phi_rad": fb.phi,
            "eta": fb.eta,
            "gain": gain_doc,
        },
        "evaluator": evaluator,
    }


def _write_sidecar(outdir: Path, label: str, command: str, resolved: dict, extra: dict):
    doc = {"command": command, "config": resolved, **extra}
    path = outdir / f"{label}_{command}.json"
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _parse_band(text: str | None, default: tuple[float, float]) -> tuple[float, float]:
    if text is None:
        return default
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError:
        raise ValidationError(f"--band expects lo:hi in Hz, got {text!r}") from None
    if not lo < hi:
        raise ValidationError("--band needs lo < hi")
    return TWO_PI * lo, TWO_PI * hi


# --------------------------------------------------------------------------
# commands


def _cmd_cooling(args, outdir: Path) -> int:
    p, m, fb, evaluator, label = resolve_config(_load_config(args.config))
    kind = args.evaluator or evaluator["kind"]
    report = optimize.evaluate(p, m, fb, kind)
    resolved = _resolved_dict(p, m, fb, {"kind": kind})
    _write_sidecar(
        outdir,
        label,
        "cooling",
        resolved,
        {
            "result": {
                "a_plus": report.rates.a_plus,
                "a_minus": report.rates.a_minus,
                "gamma_opt": report.rates.gamma_opt,
                "n_backaction": report.n_backaction,
                "n_final": report.n_final,
                "temperature_final_k": report.temperature_final,
                "kappa_eff_hz": report.kappa_eff / TWO_PI,
                "delta_eff_hz": report.delta_eff / TWO_PI,
                "gain_norm": report.gain_norm,
                "stable": report.stable,
                "warnings": list(report.warnings),
            }
        },
    )
    print(
        f"cooling: n_final={report.n_final:.6g} "
        f"T={report.temperature_final:.6g} K stable={report.stable}"
    )
    return EXIT_OK if report.stable else EXIT_UNSTABLE


def _cmd_effective_cavity(args, outdir: Path) -> int:
    p, m, fb, evaluator, label = resolve_config(_load_config(args.config))
    eff = feedback.effective_cavity(p, fb)
    resolved = _resolved_dict(p, m, fb, evaluator)
    _write_sidecar(
        outdir,
        label,
        "effective-cavity",
        resolved,
        {
            "result": {
                "kappa_eff_hz": eff.kappa_eff / TWO_PI,
                "delta_eff_hz": eff.delta_eff / TWO_PI,
                "gain_norm": eff.gain_norm,
                "single_pole_valid": eff.valid,
            }
        },
    )
    print(
        f"effective-cavity: kappa_eff={eff.kappa_eff / TWO_PI:.6g} Hz "
        f"delta_eff={eff.delta_eff / TWO_PI:.6g} Hz gain_norm={eff.gain_norm:.6g}"
    )
    return EXIT_OK


def _cmd_spectrum(args, outdir: Path) -> int:
    p, m, fb, evaluator, label = resolve_config(_load_config(args.config))
    observable = args.observable
    if observable in ("q_mech", "n_mech"):
        width = 60.0 * m.gamma_m + 4.0 * abs(m.G)
        default = (m.omega_m - width, m.omega_m + width)
    else:
        default = (p.detuning - 10 * p.kappa, p.detuning + 10 * p.kappa)
    lo, hi = _parse_band(args.band, default)
    omega = np.linspace(lo, hi, args.points)
    if observable == "squash":
        values = feedback.squash_spectrum(p, fb, omega)
    else:
        values = langevin.observable_spectrum(p, m, fb, omega, observable)
    spec = spectra.Spectrum(omega, values)
    csv_path = outdir / f"{label}_spectrum_{observable}.csv"
    spectra.write_spectrum_csv(csv_path, spec)
    resolved = _resolved_dict(p, m, fb, evaluator)
    _write_sidecar(
        outdir,
        label,
        f"spectrum-{observable}",
        resolved,
        {"files": {csv_path.name: f"spectral density of {observable}"},
         "band_hz": [lo / TWO_PI, hi / TWO_PI], "points": args.points},
    )
    print(
        f"spectrum: {observable} over [{lo / TWO_PI:.6g}, {hi / TWO_PI:.6g}] Hz "
        f"-> {csv_path.name}"
    )
    return EXIT_OK


def _cmd_solve(args, outdir: Path) -> int:
    p, m, fb, evaluator, label = resolve_config(_load_config(args.config))
    n = langevin.phonon_occupancy(p, m, fb, rtol=evaluator["rtol"])
    spec = langevin.displacement_spectrum(p, m, fb, check_stability=False)
    csv_path = outdir / f"{label}_displacement.csv"
    spectra.write_spectrum_csv(csv_path, spec)
    temperature = model.occupancy_to_temperature(n, m.omega_m)
    resolved = _resolved_dict(p, m, fb, evaluator)
    _write_sidecar(
        outdir,
        label,
        "solve",
        resolved,
        {
            "result": {"n_final": n, "temperature_final_k": temperature},
            "files": {csv_path.name: "mechanical displacement spectrum (natural units)"},
        },
    )
    print(f"solve: n_final={n:.6g} T={temperature:.6g} K -> {csv_path.name}")
    return EXIT_OK


def _cmd_optimize(args, outdir: Path) -> int:
    p, m, fb, evaluator, label = resolve_config(_load_config(args.config))
    kind = args.evaluator or evaluator["kind"]
    free = {}
    for spec in args.free:
        try:
            name, lo, hi = spec.split(":")
            lo, hi = float(lo), float(hi)
        except ValueError:
            raise ValidationError(
                f"--free expects name:lo:hi, got {spec!r}"
            ) from None
        if name in ("detuning", "coupling"):
            lo, hi = TWO_PI * lo, TWO_PI * hi
        free[name] = (lo, hi)
    if not free:
        raise ValidationError("optimize needs at least one --free variable")
    result = optimize.minimize_occupancy(
        p, m, fb, free, evaluator=kind, coarse_points=args.points or 9
    )
    best = dict(result.best_params)
    for name in ("detuning", "coupling"):
        if name in best:
            best[name] /= TWO_PI
    resolved = _resolved_dict(p, m, fb, {"kind": kind})
    _write_sidecar(
        outdir,
        label,
        "optimize",
        resolved,
        {
            "result": {
                "best_params": best,
                "best_occupancy": result.best_occupancy,
                "stability_margin": result.stability_margin,
                "evaluations": len(result.trace),
            }
        },
    )
    print(
        f"optimize: n_min={result.best_occupancy:.6g} at {best} "
        f"margin={result.stability_margin:.4g}"
    )
    return EXIT_OK


def _cmd_preset(args, outdir: Path) -> int:
    manifest = optimize.figure_preset(args.name, outdir, points=args.points)
    print(f"preset {args.name}: wrote {len(manifest['files'])} curves to {outdir}")
    return EXIT_OK


def _cmd_ingest(args, outdir: Path) -> int:
    p, m, fb, evaluator, label = resolve_config(_load_config(args.config))
    trace = ingest.parse_bode(args.bode)
    filt = ingest.decompose_electronic_filter(trace, p, fb.port, eta=1.0)
    curve = filt.curve
    csv_path = outdir / f"{label}_filter.csv"
    spectra.write_complex_csv(csv_path, curve.omega, curve.values)
    lo, hi = _parse_band(args.band, curve.domain)
    delay = ingest.delay_from_phase(filt, (lo, hi))
    resolved = _resolved_dict(p, m, fb, evaluator)
    _write_sidecar(
        outdir,
        label,
        "ingest",
        resolved,
        {
            "result": {"delay_s": delay, "samples": int(curve.omega.size)},
            "files": {csv_path.name: "decomposed electronic filter (re, im)"},
            "note": "filter absorbs sqrt(eta); eta defaults to 1 downstream",
        },
    )
    print(f"ingest: filter with delay={delay * 1e9:.4g} ns -> {csv_path.name}")
    return EXIT_OK


def _cmd_membrane(args, outdir: Path) -> int:
    given = {
        name: getattr(args, name)
        for name in ("radius", "thickness", "density")
        if getattr(args, name) is not None
    }
    if args.sound_speed is not None or args.stress is not None:
        given.update(sound_speed=args.sound_speed, stress=args.stress)
    geom = replace(presets.membrane(), **given)
    modes = model.membrane_modes(geom, args.n, args.j)
    csv_path = outdir / "membrane_modes.csv"
    with open(csv_path, "w", newline="\n") as fh:
        fh.write("n,j,frequency_hz,m_eff_ratio\n")
        for mode in modes:
            fh.write(
                f"{mode.n},{mode.j},{format(mode.omega / TWO_PI, '.17g')},"
                f"{format(mode.m_eff_ratio, '.17g')}\n"
            )
    for mode in modes:
        print(
            f"({mode.n},{mode.j}) f={mode.omega / TWO_PI / 1e3:.3f} kHz "
            f"m_eff/m={mode.m_eff_ratio:.5f}"
        )
    print(f"membrane: {len(modes)} modes -> {csv_path.name}")
    return EXIT_OK


def _common_options(defaults: bool) -> argparse.ArgumentParser:
    # the subcommand copies use SUPPRESS so a flag given before the
    # subcommand is not clobbered by the copy's default
    d = (lambda v: v) if defaults else (lambda v: argparse.SUPPRESS)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration", default=d(None))
    common.add_argument("--out", help="output directory", default=d("."))
    common.add_argument(
        "--evaluator", choices=["weak", *optimize.EVALUATORS], default=d(None),
        help="override the configured evaluator",
    )
    common.add_argument("--points", type=int, default=d(None), help="grid size override")
    common.add_argument("--band", default=d(None), help="frequency band lo:hi in Hz")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopcool",
        parents=[_common_options(defaults=True)],
        description="Feedback-controlled sideband cooling: spectra, effective "
        "cavities, occupancies, and optimization.",
    )
    common = _common_options(defaults=False)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("cooling", parents=[common],
                   help="rates, occupancy and stability at one point")
    sub.add_parser("effective-cavity", parents=[common],
                   help="single-pole closed-loop cavity")
    sp = sub.add_parser("spectrum", parents=[common], help="sampled spectral density")
    sp.add_argument(
        "observable",
        choices=["i_fb", "x_cavity", "q_mech", "n_mech", "squash"],
        nargs="?",
        default="squash",
    )
    sub.add_parser("solve", parents=[common],
                   help="exact occupancy and displacement spectrum")
    op = sub.add_parser("optimize", parents=[common],
                        help="minimize occupancy over loop settings")
    op.add_argument(
        "--free", action="append", default=[],
        help="variable:lo:hi (Hz for detuning/coupling); repeatable",
    )
    pr = sub.add_parser("preset", parents=[common],
                        help="emit a named figure-study bundle")
    pr.add_argument("name", choices=list(optimize.PRESET_NAMES))
    ig = sub.add_parser("ingest", parents=[common],
                        help="decompose a measured open-loop trace")
    ig.add_argument("--bode", required=True, help="trace CSV path")
    mb = sub.add_parser("membrane", parents=[common],
                        help="circular-membrane mode table")
    mb.add_argument("--radius", type=float, default=None)
    mb.add_argument("--thickness", type=float, default=None)
    mb.add_argument("--density", type=float, default=None)
    mb.add_argument("--sound-speed", dest="sound_speed", type=float, default=None)
    mb.add_argument("--stress", type=float, default=None)
    mb.add_argument("--n", type=int, default=1)
    mb.add_argument("--j", type=int, default=3)
    return parser


_COMMANDS = {
    "cooling": _cmd_cooling,
    "effective-cavity": _cmd_effective_cavity,
    "spectrum": _cmd_spectrum,
    "solve": _cmd_solve,
    "optimize": _cmd_optimize,
    "preset": _cmd_preset,
    "ingest": _cmd_ingest,
    "membrane": _cmd_membrane,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    outdir = Path(args.out)
    if args.evaluator == "weak":
        args.evaluator = "weak_coupling"
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        if args.points is not None and args.points < 2:
            raise ValidationError("--points must be at least 2")
        if args.command == "spectrum" and args.points is None:
            args.points = 801
        return _COMMANDS[args.command](args, outdir)
    except _INSTABILITY_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except LoopcoolError as exc:
        # validation, parse, band, curve-domain and convergence failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
