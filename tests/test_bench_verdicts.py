"""The sweep_weak benchmark's stored verdicts (perfbench/refs/sweep_weak.json)
checked in the suite, on a seeded sample of its lattice.  The refs are only
read here; perfbench/make_refs.py is what writes them."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from loopcool import cooling, feedback, langevin, optimize, presets
from loopcool.errors import LoopcoolError

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "sweep_weak.json"
AXES = ("gain_amplitude", "homodyne_phase", "detuning", "delay")
AXIS_POINTS = (12, 12, 4, 4)
#: the benchmark's occupancy tolerance: the stored occupancies predate small
#: rounding changes of the preset calibration (up to 1.7e-9 relative)
OCCUPANCY_RTOL = 1e-6
SAMPLES_PER_SYSTEM = 100
SYSTEMS = ("fig1_optical", "fig1_microwave", "experiment")


def lattice_axes(s):
    """The lattice as perfbench/inproc.py builds it: gain amplitude up to the
    Stokes-suppressing gain (reflection) or gain_norm 0.995 (transmission),
    phase over the full circle, detuning +-10 %, delay 0.5x to 1.5x."""
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


def exact_g0_verdict(p, m, fb) -> bool:
    """The rate sign and the exact zero count of the membrane-decoupled loop."""
    try:
        damped = cooling.cooling_report(p, m, fb).gamma_opt > -m.gamma_m
        return damped and langevin.closed_loop_stability(p, replace(m, G=0.0), fb)
    except LoopcoolError:
        return False


def sample(name):
    s = getattr(presets, name)()
    ref = json.loads(REFS.read_text())["systems"][name]
    axes = lattice_axes(s)
    for stored, rebuilt in zip(ref["axes"], axes):
        np.testing.assert_allclose(stored, rebuilt, rtol=1e-12, atol=0.0)
    # half of the sample from each stored verdict: experiment has only 63
    # unstable lattice points in 2304
    rng = np.random.default_rng([21, SYSTEMS.index(name)])
    verdicts = np.array(list(ref["stable"]))
    flats = np.concatenate([
        rng.choice(np.flatnonzero(verdicts == v), SAMPLES_PER_SYSTEM // 2, replace=False)
        for v in "01"
    ])
    for flat in sorted(int(f) for f in flats):
        idx = np.unravel_index(flat, AXIS_POINTS)
        n_ref = ref["n_final"][flat]
        yield lattice_point(s, axes, idx), ref["stable"][flat] == "1", n_ref


@pytest.mark.parametrize("name", SYSTEMS)
def test_weak_evaluate_and_exact_g0_verdict_match_the_refs(name):
    verdicts = []
    for (p, m, fb), stable, n_ref in sample(name):
        report = optimize.evaluate(p, m, fb, "weak_coupling")
        assert report.stable == stable
        if stable:
            assert report.n_final == pytest.approx(n_ref, rel=OCCUPANCY_RTOL, abs=0.0)
        else:
            assert n_ref is None and math.isinf(report.n_final)
        # the G = 0 exact count plus the rate sign gives the same verdict
        assert exact_g0_verdict(p, m, fb) == stable
        verdicts.append(stable)
    assert len(verdicts) == SAMPLES_PER_SYSTEM and set(verdicts) == {True, False}
