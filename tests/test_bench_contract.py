"""The traced benchmark (perfbench/spans.py) wraps package functions by
module attribute and reads the frequency grid of some of them by position,
and the untraced run times every optimize.evaluate call the same way.
These tests hold that contract against the live package."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from loopcool import optimize

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets(spans):
    return [
        (importlib.import_module(f"loopcool.{mod}"), attr, kind)
        for mod, attr, _name, kind in spans.WRAPPED
    ]


def test_tracer_wraps_and_restores_every_target():
    spans = load_spans()
    before = [getattr(module, attr) for module, attr, _ in targets(spans)]
    tracer = spans.Tracer()
    tracer.install(with_cli=True)
    try:
        during = [getattr(module, attr) for module, attr, _ in targets(spans)]
    finally:
        tracer.uninstall()
    after = [getattr(module, attr) for module, attr, _ in targets(spans)]
    assert all(w is not b for w, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_points_position_is_omega():
    spans = load_spans()
    for module, attr, kind in targets(spans):
        if kind and kind[0] == "points":
            params = inspect.signature(getattr(module, attr)).parameters.values()
            positional = [p.name for p in params if p.kind in POSITIONAL]
            assert positional[kind[1]] == "omega", f"{module.__name__}.{attr}"


def test_every_evaluation_reaches_the_call_timer(experiment):
    # CallTimer wraps optimize.evaluate by module attribute, and evals_per_s,
    # eval_p50_ms and eval_p90_ms come from its intervals: sweep must call it
    # once per grid point and minimize_occupancy once per trace entry, so
    # an evaluation path that bypassed the attribute would fail here
    spans = load_spans()
    p, m, fb = experiment.cavity, experiment.mechanics, experiment.with_gain_norm(0.5)
    top = 2.0 * fb.gain.amplitude
    spec = optimize.SweepSpec("gain_amplitude", 0.0, top, 5)
    timer = spans.CallTimer(optimize, "evaluate")
    try:
        points = optimize.sweep(spec, p, m, fb)
    finally:
        timer.uninstall()
    assert len(timer.intervals) == len(points) == spec.points

    timer = spans.CallTimer(optimize, "evaluate")
    try:
        result = optimize.minimize_occupancy(
            p, m, fb, {"gain_amplitude": (0.0, top)}, coarse_points=3, max_cycles=1
        )
    finally:
        timer.uninstall()
    assert len(timer.intervals) == len(result.trace) > 3
