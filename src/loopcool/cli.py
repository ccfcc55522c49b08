"""Batch command-line front end.

All human-facing numbers are ordinary frequencies in Hz; conversion to the
angular-frequency internals happens here, through spectra's config key
tables.  Results land as CSV files plus a JSON sidecar holding the fully
resolved configuration (spectra.echo), all written by spectra, so
identical invocations produce byte-identical artifacts.

Exit codes: 0 success, 2 validation/parse error (band, curve-domain and
convergence failures included), 3 instability where a stable result was
required.
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
    INSTABILITIES,
    CurveDomainError,
    LoopcoolError,
    NoStablePointError,
    OptomechanicalInstabilityError,
    ValidationError,
)
from .model import TWO_PI, CavityParams, FeedbackConfig, MechanicsParams, Port

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNSTABLE = 3

#: the records a config without a 'system' starts from
_BARE_CAVITY = CavityParams(kappa0=1.0, kappa1=0.0, kappa_prime=0.0, detuning=0.0)
_BARE_MECHANICS = MechanicsParams(omega_m=1.0, gamma_m=1.0, n_th=0.0)
_JSON_TYPES = {dict: "a JSON object", str: "a string", float: "a number"}


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = set(section).difference(allowed)
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {sorted(unknown)}")


def _get(section: dict, key: str, kind: type, where: str, default=None):
    """section[key] if it is of `kind` (dict, str or float; numbers are
    parsed as floats, so a bool is not one), `default` if it is absent.
    No name or path can hold NUL, so a string with one is rejected."""
    if key not in section:
        return default
    value = section[key]
    if not isinstance(value, kind) or (kind is str and "\0" in value):
        name = f"{where}.{key}" if where else key
        raise ValidationError(f"{name} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _override(record, section: dict, table, where: str):
    """`record` with every field `section` names read through `table` as
    factor * a number."""
    return replace(record, **{field: factor * _get(section, key, float, where)
                              for key, (field, factor) in table.items() if key in section})


def _load_config(path: str | None) -> dict:
    if path is None:
        return {"system": "experiment"}
    try:
        with open(path) as fh:
            # every JSON number is a float, so 80 and 80.0 read alike
            doc = json.load(fh, parse_int=float)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ValidationError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("config document must be a JSON object")
    sections = {"system", "cavity", "mechanics", "feedback", "evaluator", "output"}
    _reject_unknown(doc, sections, "config")
    return doc


#: the feedback.gain keys each gain type reads, besides 'type'
_GAIN_KEYS = {
    "flat_delay": spectra.FLAT_DELAY_KEYS.keys(),
    "tabulated": {"path"},
    "preset_gain_norm": {"value"},
}


def _build_gain(section: dict, p: CavityParams, fb: FeedbackConfig) -> FeedbackConfig:
    """The resolved loop (p, fb) with the gain that `section` describes."""
    kind = _get(section, "type", str, "feedback.gain", "flat_delay")
    if kind not in _GAIN_KEYS:
        raise ValidationError(f"unknown gain type {kind!r}")
    _reject_unknown(section, _GAIN_KEYS[kind] | {"type"}, f"feedback.gain of type {kind!r}")
    if kind == "preset_gain_norm":
        value = _get(section, "value", float, "feedback.gain", 0.0)
        return feedback.scaled_to_gain_norm(fb, value, feedback.unit_gain_norm(p, fb))
    if kind == "flat_delay":
        gain = _override(fb.gain, section, spectra.FLAT_DELAY_KEYS, "feedback.gain")
    else:
        path = _get(section, "path", str, "feedback.gain")
        if path is None:
            raise ValidationError("tabulated gain needs a 'path'")
        trace = ingest.parse_bode(path)
        gain = model.Tabulated(TWO_PI * trace.frequency_hz, trace.values())
    return replace(fb, gain=gain)


def _evaluator_kind(kind: str) -> str:
    kind = "weak_coupling" if kind == "weak" else kind
    if kind not in optimize.EVALUATORS:
        raise ValidationError(f"unknown evaluator {kind!r}")
    return kind


def resolve_config(doc: dict):
    """Build (CavityParams, MechanicsParams, FeedbackConfig, evaluator dict,
    label) from a config document, starting from the named system when
    given; a section changes only the fields it names."""
    p = m = fb = None
    if "system" in doc:
        system = presets.get_system(_get(doc, "system", str, ""))
        p, m, fb = system.cavity, system.mechanics, system.loop

    cav = _get(doc, "cavity", dict, "", {})
    _reject_unknown(cav, spectra.CAVITY_KEYS, "cavity")
    if p is None and not cav:
        raise ValidationError("config needs a 'system' or a 'cavity' section")
    p = _override(p or _BARE_CAVITY, cav, spectra.CAVITY_KEYS, "cavity")

    mech = _get(doc, "mechanics", dict, "", {})
    _reject_unknown(mech, spectra.MECHANICS_KEYS.keys() | {"bath_temperature_k"}, "mechanics")
    if m is None and not mech:
        raise ValidationError("config needs a 'system' or a 'mechanics' section")
    if "n_th" in mech and "bath_temperature_k" in mech:
        raise ValidationError("give n_th or bath_temperature_k, not both")
    m = _override(m or _BARE_MECHANICS, mech, spectra.MECHANICS_KEYS, "mechanics")
    if "bath_temperature_k" in mech:
        temperature = _get(mech, "bath_temperature_k", float, "mechanics")
        m = replace(m, n_th=model.temperature_to_occupancy(temperature, m.omega_m))

    fbs = _get(doc, "feedback", dict, "", {})
    _reject_unknown(fbs, spectra.FEEDBACK_KEYS.keys() | {"port", "gain"}, "feedback")
    fb = _override(fb or FeedbackConfig(), fbs, spectra.FEEDBACK_KEYS, "feedback")
    port = _get(fbs, "port", str, "feedback", fb.port.value)
    if port not in ("reflection", "transmission"):
        raise ValidationError(f"port must be 'reflection' or 'transmission', got {port!r}")
    fb = replace(fb, port=Port(port))
    if "gain" in fbs:
        fb = _build_gain(_get(fbs, "gain", dict, "feedback"), p, fb)
    model.check_loop_phase(p, m, fb)

    ev = _get(doc, "evaluator", dict, "", {})
    _reject_unknown(ev, {"kind", "rtol"}, "evaluator")
    evaluator = {
        "kind": _evaluator_kind(_get(ev, "kind", str, "evaluator", "weak_coupling")),
        "rtol": _get(ev, "rtol", float, "evaluator", 2e-4),
    }
    langevin.check_rtol(evaluator["rtol"])

    out = _get(doc, "output", dict, "", {})
    _reject_unknown(out, {"label"}, "output")
    label = _get(out, "label", str, "output", "run")
    if label in ("", "..") or Path(label).name != label:
        raise ValidationError(f"output.label must be a plain file name, got {label!r}")
    return p, m, fb, evaluator, label


def _parse_band(text: str | None, default: tuple[float, float]) -> tuple[float, float]:
    if text is None:
        return default
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError:
        raise ValidationError(f"--band expects lo:hi in Hz, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"--band bounds must be finite, got {text!r}")
    if not lo < hi:
        raise ValidationError("--band needs lo < hi")
    return TWO_PI * lo, TWO_PI * hi


# --------------------------------------------------------------------------
# commands: each config-reading one takes the resolved records and returns
# (sidecar name, sidecar payload, message, exit code); `artifact` maps a
# file suffix to its labelled path under --out


def _single_pole(eff: feedback.EffectiveCavity) -> dict:
    """The sidecar keys of a single-pole cavity, in Hz."""
    return {"kappa_eff_hz": eff.kappa_eff / TWO_PI, "delta_eff_hz": eff.delta_eff / TWO_PI,
            "gain_norm": eff.gain_norm}


def _cmd_cooling(args, artifact, p, m, fb, evaluator):
    try:
        eff = feedback.effective_cavity(p, fb)
    except CurveDomainError:  # a trace that misses the detuning has no single pole
        eff = feedback.NO_SINGLE_POLE
    report = optimize.evaluate(p, m, fb, evaluator["kind"], rtol=evaluator["rtol"])
    result = {
        "a_plus": report.rates.a_plus,
        "a_minus": report.rates.a_minus,
        "gamma_opt": report.rates.gamma_opt,
        "n_backaction": report.n_backaction,
        "n_final": report.n_final,
        "temperature_final_k": report.temperature_final,
        **_single_pole(eff),
        "stable": report.stable,
        "warnings": list(report.warnings),
    }
    message = (
        f"cooling: n_final={report.n_final:.6g} "
        f"T={report.temperature_final:.6g} K stable={report.stable}"
    )
    if not report.stable:  # its last warning is `unstable: <reason>`
        print("error:", report.warnings[-1].removeprefix("unstable: "), file=sys.stderr)
    return "cooling", {"result": result}, message, EXIT_OK if report.stable else EXIT_UNSTABLE


def _cmd_effective_cavity(args, artifact, p, m, fb, evaluator):
    if fb.port is not Port.TRANSMISSION:
        raise ValidationError("effective-cavity needs a transmission-port loop (feedback.port)")
    eff = feedback.effective_cavity(p, fb)
    result = {**_single_pole(eff), "single_pole_valid": eff.valid}
    message = (
        f"effective-cavity: kappa_eff={eff.kappa_eff / TWO_PI:.6g} Hz "
        f"delta_eff={eff.delta_eff / TWO_PI:.6g} Hz gain_norm={eff.gain_norm:.6g}"
    )
    return "effective-cavity", {"result": result}, message, EXIT_OK


def _cmd_spectrum(args, artifact, p, m, fb, evaluator):
    observable, points = args.observable, args.points or 801
    # squash is i_fb with the membrane decoupled (G = 0): verdict and spectrum
    decoupled = replace(m, G=0.0) if observable == "squash" else m
    if observable in ("q_mech", "n_mech"):
        width = 60.0 * m.gamma_m + 4.0 * abs(m.G)
        default = (m.omega_m - width, m.omega_m + width)
    else:
        default = (p.detuning - 10 * p.kappa, p.detuning + 10 * p.kappa)
    lo, hi = _parse_band(args.band, default)
    if not langevin.closed_loop_stability(p, decoupled, fb):
        raise OptomechanicalInstabilityError("closed loop unstable; no stationary spectrum")
    omega = np.linspace(lo, hi, points)
    row = "i_fb" if observable == "squash" else observable
    values = langevin.observable_spectrum(p, decoupled, fb, omega, row)
    csv_path = artifact(f"spectrum_{observable}.csv")
    spectra.write_spectrum_csv(csv_path, spectra.Spectrum(omega, values))
    payload = {
        "files": {csv_path.name: f"spectral density of {observable}"},
        "band_hz": [lo / TWO_PI, hi / TWO_PI],
        "points": points,
    }
    message = (
        f"spectrum: {observable} over [{lo / TWO_PI:.6g}, {hi / TWO_PI:.6g}] Hz "
        f"-> {csv_path.name}"
    )
    return f"spectrum-{observable}", payload, message, EXIT_OK


def _cmd_solve(args, artifact, p, m, fb, evaluator):
    n = langevin.phonon_occupancy(p, m, fb, rtol=evaluator["rtol"])
    spec = langevin.displacement_spectrum(p, m, fb)
    csv_path = artifact("displacement.csv")
    spectra.write_spectrum_csv(csv_path, spec)
    temperature = model.occupancy_to_temperature(n, m.omega_m)
    payload = {
        "result": {"n_final": n, "temperature_final_k": temperature},
        "files": {csv_path.name: "mechanical displacement spectrum (natural units)"},
    }
    message = f"solve: n_final={n:.6g} T={temperature:.6g} K -> {csv_path.name}"
    return "solve", payload, message, EXIT_OK


def _cmd_optimize(args, artifact, p, m, fb, evaluator):
    free = {}
    for spec in args.free:
        try:
            name, lo, hi = spec.split(":")
            lo, hi = float(lo), float(hi)
        except ValueError:
            raise ValidationError(f"--free expects name:lo:hi, got {spec!r}") from None
        if name in free:
            raise ValidationError(f"--free names {name!r} more than once")
        if name in ("detuning", "coupling"):
            lo, hi = TWO_PI * lo, TWO_PI * hi
        free[name] = (lo, hi)
    if not free:
        raise ValidationError("optimize needs at least one --free variable")
    result = optimize.minimize_occupancy(
        p, m, fb, free, evaluator=evaluator["kind"], coarse_points=args.points or 9,
        rtol=evaluator["rtol"],
    )
    best = dict(result.best_params)
    for name in ("detuning", "coupling"):
        if name in best:
            best[name] /= TWO_PI
    payload = {
        "result": {
            "best_params": best,
            "best_occupancy": result.best_occupancy,
            "delay_margin_s": result.delay_margin,
            "evaluations": len(result.trace),
        }
    }
    message = (
        f"optimize: n_min={result.best_occupancy:.6g} at {best} "
        f"delay_margin={result.delay_margin:.4g} s"
    )
    return "optimize", payload, message, EXIT_OK


def _cmd_ingest(args, artifact, p, m, fb, evaluator):
    trace = ingest.parse_bode(args.bode)
    filt = ingest.decompose_electronic_filter(trace, p, fb.port)
    delay = ingest.delay_from_phase(filt, _parse_band(args.band, filt.domain))
    csv_path = artifact("filter.csv")
    spectra.write_complex_csv(csv_path, filt.omega, filt.values)
    payload = {
        "result": {"delay_s": delay, "samples": int(filt.omega.size)},
        "files": {csv_path.name: "decomposed electronic filter (re, im)"},
        "note": "filter absorbs sqrt(eta); eta defaults to 1 downstream",
    }
    message = f"ingest: filter with delay={delay * 1e9:.4g} ns -> {csv_path.name}"
    return "ingest", payload, message, EXIT_OK


def _cmd_preset(args, outdir: Path) -> int:
    manifest = optimize.figure_preset(args.name, outdir, points=args.points)
    print(f"preset {args.name}: wrote {len(manifest['files'])} curves to {outdir}")
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
    spectra.write_rows(
        csv_path, ("n", "j", "frequency_hz", "m_eff_ratio"),
        *zip(*((mode.n, mode.j, mode.omega / TWO_PI, mode.m_eff_ratio) for mode in modes)),
    )
    for mode in modes:
        print(
            f"({mode.n},{mode.j}) f={mode.omega / TWO_PI / 1e3:.3f} kHz "
            f"m_eff/m={mode.m_eff_ratio:.5f}"
        )
    print(f"membrane: {len(modes)} modes -> {csv_path.name}")
    return EXIT_OK


#: each command once: its handler, the shared flags besides --out that it
#: reads (any other exits 2) and its help.  A command that reads --config
#: resolves one and writes a sidecar; the others write their own files.
_COMMANDS = {
    "cooling": (_cmd_cooling, {"config", "evaluator"},
                "rates, occupancy and stability at one point"),
    "effective-cavity": (_cmd_effective_cavity, {"config"}, "single-pole closed-loop cavity"),
    "spectrum": (_cmd_spectrum, {"config", "points", "band"}, "sampled spectral density"),
    "solve": (_cmd_solve, {"config"}, "exact occupancy and displacement spectrum"),
    "optimize": (_cmd_optimize, {"config", "evaluator", "points"},
                 "minimize occupancy over loop settings"),
    "preset": (_cmd_preset, {"points"}, "emit a named figure-study bundle"),
    "ingest": (_cmd_ingest, {"config", "band"}, "decompose a measured open-loop trace"),
    "membrane": (_cmd_membrane, set(), "circular-membrane mode table"),
}


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
    cmd = {name: sub.add_parser(name, parents=[common], help=text)
           for name, (_, _, text) in _COMMANDS.items()}
    cmd["spectrum"].add_argument(
        "observable",
        choices=[*langevin.OBSERVABLES, "squash"],
        nargs="?",
        default="squash",
    )
    cmd["optimize"].add_argument(
        "--free", action="append", default=[],
        help="variable:lo:hi (Hz for detuning/coupling); repeatable",
    )
    cmd["preset"].add_argument("name", choices=list(optimize.PRESET_NAMES))
    cmd["ingest"].add_argument("--bode", required=True, help="trace CSV path")
    mb = cmd["membrane"]
    mb.add_argument("--radius", type=float, default=None)
    mb.add_argument("--thickness", type=float, default=None)
    mb.add_argument("--density", type=float, default=None)
    mb.add_argument("--sound-speed", dest="sound_speed", type=float, default=None)
    mb.add_argument("--stress", type=float, default=None)
    mb.add_argument("--n", type=int, default=1)
    mb.add_argument("--j", type=int, default=3)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        handler, reads, _ = _COMMANDS[args.command]
        unread = [
            f"--{flag}" for flag in ("config", "evaluator", "points", "band")
            if getattr(args, flag) is not None and flag not in reads
        ]
        if unread:
            raise ValidationError(f"{args.command} does not read {', '.join(unread)}")
        if args.points is not None and args.points < 2:
            raise ValidationError("--points must be at least 2")
        if "config" not in reads:
            return handler(args, outdir)
        p, m, fb, evaluator, label = resolve_config(_load_config(args.config))
        if args.evaluator:
            evaluator = {**evaluator, "kind": _evaluator_kind(args.evaluator)}

        def artifact(suffix: str) -> Path:
            return outdir / f"{label}_{suffix}"

        name, payload, message, code = handler(args, artifact, p, m, fb, evaluator)
        config = {"units": "frequencies in Hz at this boundary; rad/s internally",
                  **spectra.echo(p, m, fb), "evaluator": evaluator}
        spectra.write_json(artifact(f"{name}.json"),
                           {"command": name, "config": config, **payload})
        print(message)
        return code
    except (*INSTABILITIES, NoStablePointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (LoopcoolError, OSError) as exc:
        # validation, parse, band, curve-domain and convergence failures,
        # and files that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
