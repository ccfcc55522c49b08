"""Anchor tests of the pinned preset values.

The presets are literal records.  Each calibrated number is checked here
against what it was calibrated to; the calibration search itself is not
repeated.  The 2 K anchor of the experiment's coupling G is held by
test_cooling.py::TestOccupancy::test_room_temperature_to_sideband_benchmark.
"""

import cmath
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import loopcool
from loopcool import cooling, feedback, model, optimize, presets


@pytest.mark.parametrize("name", ["experiment", "experiment_empty"])
def test_phi_sets_loop_phase_at_optimal_detuning(name):
    sys_ = presets.get_system(name)
    p, m = sys_.cavity, sys_.mechanics
    margin = sys_.notes["loop_phase_at_optimum"]
    assert margin == -0.59
    d = m.omega_m + p.kappa * math.tan(margin)
    t = feedback.open_loop_transfer(replace(p, detuning=d), sys_.with_gain_norm(1.0), d)
    miss = math.remainder(cmath.phase(t) + sys_.loop.phi - margin, 2.0 * math.pi)
    assert abs(miss) < 1e-12


def test_eta_sets_exact_loop_minimum_to_350_mk(experiment):
    # the exact occupancy minimized over gain_norm in [0.6, 0.95]
    sys_ = experiment
    per_amp = sys_.gain_norm_per_amplitude
    res = optimize.minimize_occupancy(
        sys_.cavity,
        sys_.mechanics,
        sys_.loop,
        {"gain_amplitude": (0.6 / per_amp, 0.95 / per_amp)},
        evaluator="langevin",
    )
    n_loop = sys_.notes["n_loop_min"]
    assert model.occupancy_to_temperature(n_loop, sys_.mechanics.omega_m) == (
        pytest.approx(0.35, rel=1e-12)
    )
    assert res.best_occupancy == pytest.approx(n_loop, rel=5e-5)


@pytest.mark.parametrize("name", ["fig1_optical", "fig1_microwave"])
def test_fig1_detuning_minimizes_bare_occupancy(name):
    sys_ = presets.get_system(name)
    p, m = sys_.cavity, sys_.mechanics
    assert sys_.loop.gain.amplitude == 0.0

    def occupancy(detuning):
        rates = cooling.scattering_rates(replace(p, detuning=detuning), m, sys_.loop)
        return cooling.occupancy_weak_coupling(m, rates).n_final

    n0 = occupancy(p.detuning)
    step = 1e-4 * m.omega_m
    assert occupancy(p.detuning - step) > n0
    assert occupancy(p.detuning + step) > n0


def run_fresh(code: str) -> None:
    """Run `code` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(loopcool.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_presets_build_without_scipy():
    run_fresh(
        "import sys, loopcool\n"
        "from loopcool import presets\n"
        "for name in presets.SYSTEMS:\n"
        "    presets.get_system(name)\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, f'{len(loaded)} scipy modules, e.g. {loaded[:3]}'\n"
    )


def test_package_exports_its_modules_only():
    # each public name has one import path, its module; importing the
    # package still loads every module (errors comes with them)
    run_fresh(
        "import sys, loopcool\n"
        "public = {k for k in vars(loopcool) if not k.startswith('_')}\n"
        "modules = {'cooling', 'errors', 'feedback', 'ingest', 'langevin', 'model',\n"
        "           'optimize', 'presets', 'quasipoly', 'spectra'}\n"
        "assert public == modules, sorted(public ^ modules)\n"
        "assert all(f'loopcool.{k}' in sys.modules for k in modules)\n"
        "assert isinstance(loopcool.__version__, str)\n"
    )


def test_readme_quick_start_runs():
    # README's one Python block runs as printed, and its `# ~n_exact` holds
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["n_measured"] == pytest.approx(namespace["n_exact"], rel=1e-9, abs=0.0)


def test_import_loads_no_numpy_polynomial():
    # the quadrature rule is pinned, so import runs no leggauss
    run_fresh(
        "import sys, loopcool, loopcool.cli\n"
        "assert 'numpy.polynomial' not in sys.modules\n"
    )


def test_physical_constants_match_scipy():
    constants = pytest.importorskip("scipy.constants")
    assert model.hbar == constants.hbar
    assert model.k_B == constants.k
