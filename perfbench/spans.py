"""Span tracing of the package from outside, and the per-layer numbers
derived from the spans.

The package calls across and within its modules through module globals,
so replacing a module attribute with a wrapper (`setattr(langevin,
"solve_rows", wrapped)`) sees every call, including calls a module makes
to its own functions.  Nothing in the package changes.

A span is `[name, start, end, parent, n]`: `parent` is the index of the
enclosing span (-1 at top level) and `n` a per-call quantity that depends
on the wrapped function (frequency points, integrand calls, an unstable or
failed flag, bytes written).  Spans stay in memory and are written out when
the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
from time import perf_counter

import numpy as np

LAYERS = ("presets", "feedback", "cooling", "langevin", "optimize", "ingest", "spectra", "cli")

# (module, attribute, span name, what `n` records)
WRAPPED = (
    ("presets", "experiment", "presets.experiment", None),
    ("presets", "experiment_empty", "presets.experiment_empty", None),
    ("presets", "fig1_optical", "presets.fig1_optical", None),
    ("presets", "fig1_microwave", "presets.fig1_microwave", None),
    ("presets", "get_system", "presets.get_system", None),
    ("feedback", "nyquist_stability", "feedback.nyquist_stability", None),
    ("feedback", "loop_denominator", "feedback.loop_denominator", ("points", 2)),
    ("cooling", "scattering_rates", "cooling.scattering_rates", None),
    ("cooling", "cooling_report", "cooling.cooling_report", None),
    ("langevin", "solve_rows", "langevin.solve_rows", ("points", 3)),
    ("langevin", "adaptive_integral", "langevin.adaptive_integral", ("integrand",)),
    ("langevin", "phonon_occupancy", "langevin.phonon_occupancy", None),
    ("langevin", "closed_loop_stability", "langevin.closed_loop_stability", ("false",)),
    ("langevin", "displacement_spectrum", "langevin.displacement_spectrum", None),
    ("langevin", "lorentzian_extract", "langevin.lorentzian_extract", ("raised",)),
    ("langevin", "observable_spectrum", "langevin.observable_spectrum", ("points", 3)),
    ("optimize", "evaluate", "optimize.evaluate", ("unstable",)),
    ("optimize", "sweep", "optimize.sweep", None),
    ("optimize", "minimize_occupancy", "optimize.minimize_occupancy", None),
    ("optimize", "figure_preset", "optimize.figure_preset", None),
    ("ingest", "parse_bode", "ingest.parse_bode", None),
    ("ingest", "decompose_electronic_filter", "ingest.decompose_electronic_filter", None),
    ("spectra", "write_spectrum_csv", "spectra.write", ("bytes",)),
    ("spectra", "write_complex_csv", "spectra.write", ("bytes",)),
    ("spectra", "write_curve_csv", "spectra.write", ("bytes",)),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Installs span-recording wrappers on package module attributes and
    restores the originals on `uninstall`."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self, with_cli: bool = False) -> None:
        for mod_name, attr, name, kind in WRAPPED:
            if mod_name == "cli" and not with_cli:
                continue
            module = importlib.import_module(f"loopcool.{mod_name}")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, kind))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, kind):
        spans, stack = self.spans, self._stack
        tag = kind[0] if kind else None

        def wrapped(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            if tag == "integrand":
                fvec = args[0]

                def counted(x):
                    rec[4] += 1
                    return fvec(x)

                args = (counted, *args[1:])
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = perf_counter()
                stack.pop()
                if tag == "raised":
                    rec[4] = 1
                raise
            rec[2] = perf_counter()
            stack.pop()
            if tag == "points":
                rec[4] = int(np.size(args[kind[1]] if len(args) > kind[1] else kwargs["omega"]))
            elif tag == "false":
                rec[4] = int(result is False)
            elif tag == "unstable":
                rec[4] = int(not result.stable)
            elif tag == "bytes":
                rec[4] = os.path.getsize(args[0])
            return result

        return wrapped

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def raw_sums(spans, lo: int = 0, hi: int | None = None) -> dict:
    """Per-name and per-layer sums over the spans with index in [lo, hi).

    The window must start at a top-level span so every parent is inside it.
    Self time is a span's duration minus its direct children's durations;
    a layer's cover is the time of its outermost spans (those with no
    ancestor in the same layer).
    """
    hi = len(spans) if hi is None else hi
    bit = {layer: 1 << k for k, layer in enumerate(LAYERS)}
    child = {}
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + spans[i][2] - spans[i][1]
    out = {"calls": {}, "n": {}, "self": {}, "incl": {}, "layer_self": {},
           "layer_cover": {}, "presets_occupancy_calls": 0}
    mask = {}
    for i in range(lo, hi):
        name, start, end, parent, n = spans[i]
        layer = _layer(name)
        above = 0 if parent < 0 else mask[parent] | bit[_layer(spans[parent][0])]
        mask[i] = above
        dur = end - start
        own = dur - child.get(i, 0.0)
        for key, val in (("calls", 1), ("n", n), ("self", own), ("incl", dur)):
            out[key][name] = out[key].get(name, 0) + val
        out["layer_self"][layer] = out["layer_self"].get(layer, 0.0) + own
        if not above & bit[layer]:
            out["layer_cover"][layer] = out["layer_cover"].get(layer, 0.0) + dur
        if name == "langevin.phonon_occupancy" and above & bit["presets"]:
            out["presets_occupancy_calls"] += 1
    return out


def merge(a: dict, b: dict) -> dict:
    out = {}
    for key in a.keys() | b.keys():
        x, y = a.get(key), b.get(key)
        if isinstance(x, dict) or isinstance(y, dict):
            x, y = x or {}, y or {}
            out[key] = {k: x.get(k, 0) + y.get(k, 0) for k in x.keys() | y.keys()}
        else:
            out[key] = (x or 0) + (y or 0)
    return out


def per_layer_metrics(counted: dict, timed: dict, wall_s: float, presets_build_s: float,
                      presets_occupancy_calls: int, cli_import_s: float,
                      overhead_pct: float) -> dict:
    """The per-layer metric set of a traced run, as {name: (value, unit)}.

    Counts come from `counted`, the span sums of the run's deterministic
    prefix; `*_pct` are shares of the traced timed wall time `wall_s`,
    from `timed`, the span sums over all of it.
    """
    # a run whose traced children all failed has empty sums
    calls, n = counted.get("calls", {}), counted.get("n", {})
    own, incl = timed.get("self", {}), timed.get("incl", {})

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall_s if wall_s else 0.0

    def count(name: str) -> int:
        return int(calls.get(name, 0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    evals = count("optimize.evaluate")
    lorentz = count("langevin.lorentzian_extract")
    m = {
        "langevin.solve_rows.calls": (count("langevin.solve_rows"), "count"),
        "langevin.solve_rows.points": (int(n.get("langevin.solve_rows", 0)), "count"),
        "langevin.solve_rows.self_pct": (pct(own.get("langevin.solve_rows", 0.0)), "%"),
        "langevin.adaptive_integral.calls": (count("langevin.adaptive_integral"), "count"),
        "langevin.adaptive_integral.integrand_calls": (
            int(n.get("langevin.adaptive_integral", 0)), "count"),
        "langevin.adaptive_integral.self_pct": (
            pct(own.get("langevin.adaptive_integral", 0.0)), "%"),
        "langevin.phonon_occupancy.calls": (count("langevin.phonon_occupancy"), "count"),
        "langevin.phonon_occupancy.self_pct": (
            pct(own.get("langevin.phonon_occupancy", 0.0)), "%"),
        "langevin.closed_loop_stability.calls": (
            count("langevin.closed_loop_stability"), "count"),
        "langevin.closed_loop_stability.unstable": (
            int(n.get("langevin.closed_loop_stability", 0)), "count"),
        "langevin.closed_loop_stability.self_pct": (
            pct(own.get("langevin.closed_loop_stability", 0.0)), "%"),
        "langevin.lorentzian_extract.calls": (lorentz, "count"),
        "langevin.lorentzian_extract.fit_fail_ratio": (
            ratio(n.get("langevin.lorentzian_extract", 0), lorentz), "ratio"),
        "langevin.observable_spectrum.points": (
            int(n.get("langevin.observable_spectrum", 0)), "count"),
        "feedback.nyquist_stability.calls": (count("feedback.nyquist_stability"), "count"),
        "feedback.nyquist_stability.self_pct": (
            pct(own.get("feedback.nyquist_stability", 0.0)), "%"),
        "feedback.nyquist_stability.cover_pct": (
            pct(incl.get("feedback.nyquist_stability", 0.0)), "%"),
        "feedback.loop_denominator.points": (
            int(n.get("feedback.loop_denominator", 0)), "count"),
        "cooling.scattering_rates.calls": (count("cooling.scattering_rates"), "count"),
        "cooling.scattering_rates.per_eval": (
            ratio(count("cooling.scattering_rates"), evals), "ratio"),
        "cooling.cooling_report.self_pct": (pct(own.get("cooling.cooling_report", 0.0)), "%"),
        "optimize.evaluate.calls": (evals, "count"),
        "optimize.evaluate.unstable": (int(n.get("optimize.evaluate", 0)), "count"),
        "optimize.evaluate.stable_ratio": (
            ratio(evals - n.get("optimize.evaluate", 0), evals), "ratio"),
        "optimize.evaluate.self_pct": (pct(own.get("optimize.evaluate", 0.0)), "%"),
        "optimize.minimize_occupancy.calls": (count("optimize.minimize_occupancy"), "count"),
        "presets.build_s": (presets_build_s, "s"),
        "presets.phonon_occupancy.calls": (presets_occupancy_calls, "count"),
        "cli.import_pct": (pct(cli_import_s), "%"),
        "cli.main.self_pct": (pct(own.get("cli.main", 0.0)), "%"),
        "ingest.parse_bode.self_pct": (pct(own.get("ingest.parse_bode", 0.0)), "%"),
        "ingest.decompose_electronic_filter.self_pct": (
            pct(own.get("ingest.decompose_electronic_filter", 0.0)), "%"),
        "spectra.write.calls": (count("spectra.write"), "count"),
        "spectra.write.bytes": (int(n.get("spectra.write", 0)), "count"),
        "spectra.write.self_pct": (pct(own.get("spectra.write", 0.0)), "%"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_pct"] = (pct(timed.get("layer_self", {}).get(layer, 0.0)), "%")
        m[f"{layer}.cover_pct"] = (pct(timed.get("layer_cover", {}).get(layer, 0.0)), "%")
    return m


class CallTimer:
    """Start and end time of every call to one module attribute: the only
    instrumentation of an untraced run (it gives the per-evaluation
    latencies)."""

    def __init__(self, module, attr: str):
        self.intervals: list[tuple[float, float]] = []
        self._target = (module, attr, getattr(module, attr))
        fn, sink = self._target[2], self.intervals

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append((t0, perf_counter()))

        setattr(module, attr, timed)

    def uninstall(self) -> None:
        module, attr, fn = self._target
        setattr(module, attr, fn)
