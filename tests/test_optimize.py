import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcool import cooling, feedback, langevin, optimize
from loopcool.errors import BandError, LoopcoolError, ValidationError
from loopcool.model import (
    CavityParams, FeedbackConfig, FlatDelay, MechanicsParams, Tabulated,
)
from loopcool.optimize import SweepSpec

TWO_PI = 2 * math.pi


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SweepSpec("nonsense", 0.0, 1.0, 5)
        with pytest.raises(ValidationError):
            SweepSpec("detuning", 1.0, 0.0, 5)
        with pytest.raises(ValidationError):
            SweepSpec("detuning", 0.0, 1.0, 1)
        with pytest.raises(ValidationError):
            SweepSpec("detuning", 0.0, 1.0, 5, evaluator="magic")

    @pytest.mark.parametrize("lo, hi", [
        (0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan), (math.nan, 1.0), (1.0, 1.0),
    ])
    def test_bounds_must_be_finite(self, lo, hi):
        with pytest.raises(ValidationError, match="finite bounds"):
            SweepSpec("detuning", lo, hi, 5)

    @pytest.mark.parametrize("points", [2.5, 5.0, "5", None])
    def test_points_must_be_an_integer(self, points):
        with pytest.raises(ValidationError, match="integer"):
            SweepSpec("detuning", 0.0, 1.0, points)

    def test_numpy_integer_points(self):
        assert SweepSpec("detuning", 0.0, 1.0, np.int64(3)).grid().tolist() == [0.0, 0.5, 1.0]


def anti_damped_point():
    """Blue-detuned drive with gamma_opt = -5e-3 against gamma_m = 1e-3."""
    p = CavityParams(kappa0=1.0, kappa1=0.0, kappa_prime=0.0, detuning=-5.0)
    m = MechanicsParams(omega_m=5.0, gamma_m=1e-3, n_th=7.0, G=0.05)
    return p, m, FeedbackConfig(gain=FlatDelay(0.0))


class TestEvaluate:
    @pytest.mark.parametrize("evaluator", optimize.EVALUATORS)
    def test_weak_nyquist_unstable_keeps_rates(self, fig1_optical, evaluator):
        # the empty loop winds once while the rates still damp the mode; both
        # evaluators report the rates they solved
        sys = fig1_optical
        p, m = sys.cavity, sys.mechanics
        fb = replace(sys.loop, phi=math.pi, gain=replace(sys.loop.gain, amplitude=0.55))
        assert not feedback.nyquist_stability(p, fb).stable
        rates = cooling.scattering_rates(p, m, fb)
        assert rates.gamma_opt > -m.gamma_m
        report = optimize.evaluate(p, m, fb, evaluator)
        assert not report.stable
        assert math.isinf(report.n_final) and math.isinf(report.temperature_final)
        assert math.isfinite(rates.gamma_opt) and report.rates == rates
        reason = {"langevin": "closed loop unstable; no stationary occupancy",
                  "weak_coupling": "decoupled loop fails the G = 0 Nyquist test"}[evaluator]
        assert report.warnings[-1] == f"unstable: {reason}"

    def test_weak_anti_damped_keeps_its_rates(self):
        # the weak formula has no occupancy for an anti-damped mode; the
        # report is unstable and keeps the rates and warnings it solved
        p, m, fb = anti_damped_point()
        rates = cooling.scattering_rates(p, m, fb)
        assert rates.gamma_opt <= -m.gamma_m
        report = optimize.evaluate(p, m, fb, "weak_coupling")
        assert report.stable is False
        assert math.isinf(report.n_final) and math.isinf(report.temperature_final)
        assert report.rates == rates
        assert report.warnings == ("optical anti-damping: a_plus exceeds a_minus",)

    def test_exact_anti_damped_takes_the_zero_count(self, monkeypatch):
        # the exact path decides an anti-damped point by the closed-loop
        # zero count alone, and keeps the weak rates
        original = langevin.closed_loop_stability
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(langevin, "closed_loop_stability", counting)
        p, m, fb = anti_damped_point()
        report = optimize.evaluate(p, m, fb, "langevin")
        assert calls == [(p, m, fb)]
        assert report.stable is False
        assert math.isinf(report.n_final) and math.isinf(report.temperature_final)
        assert report.rates == cooling.scattering_rates(p, m, fb)
        assert report.warnings[-1] == "unstable: closed loop unstable; no stationary occupancy"

    @pytest.mark.parametrize("evaluator", ["langevn", "weak", ""])
    def test_unknown_evaluator_raises_before_any_work(self, monkeypatch, fig1_optical, evaluator):
        # any name but "langevin" used to run the weak evaluator
        def refuse(*args, **kwargs):
            raise AssertionError("an unknown evaluator reached the rates")

        monkeypatch.setattr(cooling, "cooling_report", refuse)
        sys = fig1_optical
        with pytest.raises(ValidationError, match="unknown evaluator"):
            optimize.evaluate(sys.cavity, sys.mechanics, sys.loop, evaluator)
        with pytest.raises(ValidationError, match="unknown evaluator"):
            optimize.minimize_occupancy(
                sys.cavity, sys.mechanics, sys.loop, {"homodyne_phase": (0.0, 1.0)},
                evaluator=evaluator,
            )

    @pytest.mark.parametrize("evaluator", ["weak_coupling", "langevin"])
    def test_unresolved_loop_phase_raises_before_any_work(
        self, monkeypatch, experiment, evaluator
    ):
        # a delay of 1e160 s used to give a finite occupancy from rounding noise
        def refuse(*args, **kwargs):
            raise AssertionError("an unresolved delay reached the rates")

        monkeypatch.setattr(cooling, "cooling_report", refuse)
        sys = experiment
        fb = replace(sys.loop, gain=FlatDelay(0.1, delay=1e160))
        with pytest.raises(ValidationError, match="delay too long"):
            optimize.evaluate(sys.cavity, sys.mechanics, fb, evaluator)

    def test_exact_evaluate_solves_rates_once(self, monkeypatch, fig1_optical):
        # the weak report's rates and the quadrature grid's linewidth guess
        # share one two-point G = 0 solve
        original = langevin.solve_rows
        solves = []

        def counting(p, m, fb, omega, weights):
            solves.append((m.G, np.size(omega)))
            return original(p, m, fb, omega, weights)

        monkeypatch.setattr(langevin, "solve_rows", counting)
        sys = fig1_optical
        fb = replace(sys.loop, gain=replace(sys.loop.gain, amplitude=0.4))
        report = optimize.evaluate(sys.cavity, sys.mechanics, fb, "langevin")
        assert report.stable and math.isfinite(report.n_final)
        assert solves.count((0.0, 2)) == 1
        assert all(m_g == sys.mechanics.G for m_g, _ in solves[1:])

    @pytest.mark.parametrize("evaluator", ["weak_coupling", "langevin"])
    def test_evaluate_of_a_tabulated_gain_solves_rates_once(
        self, monkeypatch, experiment, evaluator
    ):
        # the contour is seeded from the decoupled panels, whose linewidth
        # guess needs no rates, so only the weak report solves them; the
        # verdict alone solves nothing, at G = 0 or at the preset's G
        original = langevin.solve_rows
        solves = []

        def counting(p, m, fb, omega, weights):
            solves.append((m.G, np.size(omega)))
            return original(p, m, fb, omega, weights)

        monkeypatch.setattr(langevin, "solve_rows", counting)
        p, m = experiment.cavity, experiment.mechanics
        fb = tabulated_copy(experiment.with_gain_norm(0.5))
        report = optimize.evaluate(p, m, fb, evaluator)
        assert report.stable and math.isfinite(report.n_final)
        assert solves.count((0.0, 2)) == 1
        assert all(m_g == m.G for m_g, _ in solves[1:])
        solves.clear()
        assert langevin.closed_loop_stability(p, m, fb) is True
        assert solves == []


def tabulated_copy(fb, lo_hz=1e-3, hi_hz=1e8, samples=5000):
    """The loop with its flat gain sampled into a measured-style trace."""
    w = np.geomspace(TWO_PI * lo_hz, TWO_PI * hi_hz, samples)
    return replace(fb, gain=Tabulated(w, fb.gain(w)))


#: experiment's loop from anti- to over-driven (gain_norm 1 is the threshold)
COPY_GAIN_NORMS = [*np.linspace(-0.9, 1.05, 9).tolist(), 1.02, 1.2]


class TestTabulatedCopies:
    """A tabulated copy of a flat gain, sampled from 1 mHz, is the same loop:
    both evaluators give the flat gain's verdict and occupancy."""

    @pytest.mark.parametrize("variable, message", [
        ("delay", "delay sweeps need a flat-delay gain model"),
        ("bandwidth", "unknown sweep variable 'bandwidth'"),
    ], ids=["delay", "unknown"])
    def test_apply_variable_rejects(self, experiment, variable, message):
        p, m = experiment.cavity, experiment.mechanics
        fb = tabulated_copy(experiment.with_gain_norm(0.5))
        with pytest.raises(ValidationError) as raised:
            optimize.apply_variable(p, m, fb, variable, 1e-7)
        assert str(raised.value) == message

    @pytest.mark.parametrize("gain_norm", COPY_GAIN_NORMS)
    @pytest.mark.parametrize("evaluator", ["weak_coupling", "langevin"])
    def test_copy_matches_the_flat_gain(self, experiment, evaluator, gain_norm):
        p, m = experiment.cavity, experiment.mechanics
        fb = experiment.with_gain_norm(gain_norm)
        flat = optimize.evaluate(p, m, fb, evaluator)
        copy = optimize.evaluate(p, m, tabulated_copy(fb), evaluator)
        assert copy.stable is flat.stable
        tol = 1e-9 if evaluator == "weak_coupling" else 2 * 2e-4
        if flat.stable:
            assert copy.n_final == pytest.approx(flat.n_final, rel=tol)
        else:
            assert math.isinf(copy.n_final)
            assert copy.warnings == flat.warnings

    @pytest.mark.parametrize("gain_norm", COPY_GAIN_NORMS)
    def test_decoupled_winding_matches_nyquist(self, experiment, gain_norm):
        # the weak verdict's winding conjunct alone, without the rate sign
        p, m = experiment.cavity, replace(experiment.mechanics, G=0.0)
        fb = experiment.with_gain_norm(gain_norm)
        stable = feedback.nyquist_stability(p, fb).stable
        assert stable is (gain_norm < 1.0)
        assert langevin.closed_loop_stability(p, m, tabulated_copy(fb)) is stable

    @pytest.mark.parametrize("system", ["fig1_optical", "fig1_microwave"])
    def test_reflection_copy_cannot_close_its_contour(self, request, system):
        # a limit, not a defect: the reflection port's direct path does not
        # decay, so at the trace's top the loop is above the edge guard
        sys = request.getfixturevalue(system)
        p, m, fb = sys.cavity, sys.mechanics, sys.loop
        top = abs(feedback.stokes_suppression_gain(p, fb, m.omega_m))
        fb = replace(fb, gain=replace(fb.gain, amplitude=0.5 * top))
        assert optimize.evaluate(p, m, fb, "weak_coupling").stable
        copy = tabulated_copy(fb, hi_hz=1e10)
        for evaluator in optimize.EVALUATORS:
            with pytest.raises(BandError, match="band too narrow"):
                optimize.evaluate(p, m, copy, evaluator)

    def test_amplitude_sweep_from_zero(self, experiment):
        # amplitude 0 scales any measured shape to the zero loop, which no
        # sample can hold (magnitudes must be > 0)
        p, m = experiment.cavity, experiment.mechanics
        fb = tabulated_copy(experiment.with_gain_norm(0.5))
        rows = optimize.sweep(SweepSpec("gain_amplitude", 0.0, 1.0, 3), p, m, fb)
        assert [value for value, _ in rows] == [0.0, 0.5, 1.0]
        assert all(report.stable for _, report in rows)
        assert rows[0][1] == optimize.evaluate(p, m, replace(fb, gain=FlatDelay(0.0)))


class TestSweep:
    def test_gain_sweep_flags_instability(self, experiment):
        sys = experiment
        amp_for = lambda g: g / sys.gain_norm_per_amplitude
        spec = SweepSpec("gain_amplitude", amp_for(0.0), amp_for(1.1), 23)
        rows = optimize.sweep(spec, sys.cavity, sys.mechanics, sys.loop)
        assert len(rows) == 23
        stable_flags = [r.stable for _, r in rows]
        # stable at low gain, flagged (not dropped) beyond threshold
        assert stable_flags[0] and not stable_flags[-1]
        assert all(math.isinf(r.n_final) for _, r in rows if not r.stable)
        # instability is a single transition along the sweep
        flips = sum(
            1 for a, b in zip(stable_flags, stable_flags[1:]) if a != b
        )
        assert flips == 1

    def test_gain_sweep_interior_minimum_near_reported_optimum(self, experiment):
        sys = experiment
        amp_for = lambda g: g / sys.gain_norm_per_amplitude
        spec = SweepSpec("gain_amplitude", amp_for(0.05), amp_for(0.95), 31)
        rows = optimize.sweep(spec, sys.cavity, sys.mechanics, sys.loop)
        values = np.array([r.n_final for _, r in rows])
        idx = int(np.nanargmin(np.where(np.isfinite(values), values, np.nan)))
        gain_norm = rows[idx][0] * sys.gain_norm_per_amplitude
        assert 0 < idx < len(rows) - 1
        assert gain_norm == pytest.approx(0.9, abs=0.06)

    def test_detuning_sweep_minimum(self, experiment):
        sys = experiment
        fb = sys.with_gain_norm(0.87)
        spec = SweepSpec(
            "detuning", TWO_PI * 320e3, TWO_PI * 340e3, 41
        )
        rows = optimize.sweep(spec, sys.cavity, sys.mechanics, fb)
        values = [r.n_final for _, r in rows]
        best = rows[int(np.argmin(values))][0]
        assert best / TWO_PI == pytest.approx(329.4e3, abs=2e3)

    def test_u_shape_on_stable_branch(self, experiment):
        sys = experiment
        amp_for = lambda g: g / sys.gain_norm_per_amplitude
        grid = np.linspace(0.0, 0.5, 11)
        values = []
        for g in grid:
            _, _, fb = optimize.apply_variable(
                sys.cavity, sys.mechanics, sys.loop, "gain_amplitude", amp_for(g)
            )
            values.append(
                optimize.evaluate(sys.cavity, sys.mechanics, fb).n_final
            )
        assert all(a > b for a, b in zip(values, values[1:]))
        # rising branch between the minimum and the instability edge
        grid_hi = np.linspace(0.92, 0.955, 6)
        values_hi = []
        for g in grid_hi:
            _, _, fb = optimize.apply_variable(
                sys.cavity, sys.mechanics, sys.loop, "gain_amplitude", amp_for(g)
            )
            values_hi.append(
                optimize.evaluate(sys.cavity, sys.mechanics, fb).n_final
            )
        assert all(math.isfinite(v) for v in values_hi)
        assert all(a < b for a, b in zip(values_hi, values_hi[1:]))


def golden_section(fn, lo, hi, tol):
    """Plain golden-section search on [lo, hi] to a bracket of `tol`: the
    reference that the Brent line search must match or beat."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fn(d)
    return (c, fc) if fc <= fd else (d, fd)


class TestLineSearch:
    def test_quadratic(self):
        f = lambda v: (v - 0.371) ** 2 + 1.0
        x, fx = optimize._line_search(f, 0.0, 1.0, x=0.0, fx=f(0.0), tol=1e-9)
        assert x == pytest.approx(0.371, abs=1e-6)
        assert fx == pytest.approx(1.0, abs=1e-10)

    def test_wall_past_the_minimum(self):
        # minimum at 0.25, unstable beyond 0.375: the first golden probe from
        # a cold start lands in the wall
        f = lambda v: math.inf if v > 0.375 else (v - 0.25) ** 2
        x, fx = optimize._line_search(f, 0.0, 1.0, x=0.0, fx=f(0.0), tol=1e-3)
        assert abs(x - 0.25) <= 1e-3
        assert math.isfinite(fx)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        x_m=st.floats(0.0, 1.0),
        power=st.sampled_from([2, 4]),
        left=st.floats(0.0, 1.0),
        right=st.floats(0.0, 1.0),
        start=st.floats(0.0, 1.0),
        tol=st.floats(1e-6, 1e-2),
        step=st.none() | st.floats(0.0, 1.0),
    )
    def test_unimodal_with_walls(self, x_m, power, left, right, start, tol, step):
        # |x - x_m|^power on [0, 1], infinite (unstable) left of x_lo and right
        # of x_hi; `left` or `right` = 1 puts that wall at the bound.  `step`
        # places the opening step in [tol, (hi - lo) / 2], or leaves it out
        x_lo, x_hi = x_m * (1.0 - left), x_m + right * (1.0 - x_m)
        f = lambda v: math.inf if v < x_lo or v > x_hi else abs(v - x_m) ** power
        x0 = min(x_lo + start * (x_hi - x_lo), x_hi)
        f0 = f(x0)
        if step is not None:
            step = tol + step * (0.5 - tol)
        probes = []

        def probed(v):
            probes.append(v)
            return f(v)

        x, fx = optimize._line_search(probed, 0.0, 1.0, x=x0, fx=f0, tol=tol, step=step)
        assert all(0.0 <= v <= 1.0 for v in probes)
        assert x0 not in probes
        assert math.isfinite(fx) and fx <= f0
        assert fx == f(x)
        assert abs(x - x_m) <= tol or fx <= golden_section(f, 0.0, 1.0, tol)[1]


class TestMinimize:
    def test_criterion_7_trace_repeats_no_point(self, fig1_optical):
        sys = fig1_optical
        p, m = sys.cavity, sys.mechanics
        scale = abs(feedback.stokes_suppression_gain(p, sys.loop, m.omega_m))
        result = optimize.minimize_occupancy(
            p, m, sys.loop,
            free={
                "gain_amplitude": (0.02, 2.0 * scale),
                "homodyne_phase": (-math.pi, math.pi),
            },
            evaluator="langevin",
            coarse_points=9,
            max_cycles=4,
        )
        points = [tuple(params.values()) for params, _ in result.trace]
        assert len(set(points)) == len(points)
        # 116 (121 with every later search opening at a golden probe)
        assert len(points) <= 118
        assert result.best_occupancy == min(n for _, n in result.trace)

    def test_one_dimensional_matches_dense_sweep(self, experiment):
        sys = experiment
        amp_for = lambda g: g / sys.gain_norm_per_amplitude
        bounds = (amp_for(0.3), amp_for(0.95))
        result = optimize.minimize_occupancy(
            sys.cavity, sys.mechanics, sys.loop,
            free={"gain_amplitude": bounds},
            coarse_points=13,
        )
        spec = SweepSpec("gain_amplitude", bounds[0], bounds[1], 400)
        rows = optimize.sweep(spec, sys.cavity, sys.mechanics, sys.loop)
        sweep_min = min(r.n_final for _, r in rows)
        assert result.best_occupancy <= sweep_min * 1.005

    def test_optimum_is_stable_and_reproducible(self, experiment):
        sys = experiment
        amp_for = lambda g: g / sys.gain_norm_per_amplitude
        result = optimize.minimize_occupancy(
            sys.cavity, sys.mechanics, sys.loop,
            free={"gain_amplitude": (amp_for(0.3), amp_for(1.2))},
            coarse_points=13,
        )
        assert 0.0 < result.delay_margin < math.inf
        p2, m2, fb2 = optimize.apply_variable(
            sys.cavity, sys.mechanics, sys.loop,
            "gain_amplitude", result.best_params["gain_amplitude"],
        )
        report = optimize.evaluate(p2, m2, fb2)
        assert report.stable
        assert report.n_final == pytest.approx(result.best_occupancy, rel=1e-10)

    def test_no_stable_point(self, experiment):
        sys = experiment
        amp_for = lambda g: g / sys.gain_norm_per_amplitude
        with pytest.raises(LoopcoolError, match="no stable point"):
            optimize.minimize_occupancy(
                sys.cavity, sys.mechanics, sys.loop,
                free={"gain_amplitude": (amp_for(1.05), amp_for(1.5))},
                coarse_points=5,
            )

    @pytest.mark.parametrize("bounds", [
        (0.5, 0.02), (0.3, 0.3), (0.0, math.inf), (-math.inf, 0.1), (math.nan, 0.1),
    ])
    def test_free_bounds_checked_up_front(self, experiment, monkeypatch, bounds):
        monkeypatch.setattr(optimize, "evaluate", _no_evaluation)
        sys = experiment
        with pytest.raises(ValidationError, match="finite bounds with lo < hi"):
            optimize.minimize_occupancy(
                sys.cavity, sys.mechanics, sys.loop, free={"gain_amplitude": bounds},
            )

    @pytest.mark.parametrize("coarse_points", [1, 0, -3, 2.5, True])
    def test_coarse_points_checked_up_front(self, experiment, monkeypatch, coarse_points):
        monkeypatch.setattr(optimize, "evaluate", _no_evaluation)
        sys = experiment
        with pytest.raises(ValidationError, match="coarse_points"):
            optimize.minimize_occupancy(
                sys.cavity, sys.mechanics, sys.loop, free={"homodyne_phase": (0.0, 1.0)},
                coarse_points=coarse_points,
            )

    def test_unknown_free_variable(self, experiment, monkeypatch):
        monkeypatch.setattr(optimize, "evaluate", _no_evaluation)
        sys = experiment
        with pytest.raises(ValidationError) as raised:
            optimize.minimize_occupancy(
                sys.cavity, sys.mechanics, sys.loop, free={"bandwidth": (0.0, 1.0)},
            )
        assert str(raised.value) == "unknown sweep variable 'bandwidth'"

    def test_too_many_variables(self, experiment):
        sys = experiment
        with pytest.raises(ValidationError):
            optimize.minimize_occupancy(
                sys.cavity, sys.mechanics, sys.loop,
                free={v: (0.0, 1.0) for v in ("gain_amplitude", "homodyne_phase",
                                              "detuning", "coupling")},
            )


def _no_evaluation(*args, **kwargs):
    raise AssertionError("an input check should have stopped the run before any evaluation")


class TestFigurePresets:
    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ValidationError):
            optimize.figure_preset("fig99", tmp_path)

    def test_effective_cavity_curves(self, tmp_path, experiment_empty):
        manifest = optimize.figure_preset("fig3_effective_cavity", tmp_path)
        kappa_file = tmp_path / "fig3_kappa_eff.csv"
        shift_file = tmp_path / "fig3_delta_eff_shift.csv"
        assert kappa_file.exists() and shift_file.exists()
        rows = np.loadtxt(kappa_file, delimiter=",", skiprows=1)
        gain, ratio = rows[:, 0], rows[:, 1]
        np.testing.assert_allclose(ratio, 1.0 - gain, atol=1e-12)
        # detuning shift follows -kappa*G*tan(loop phase at the detuning)
        sys = experiment_empty
        rows = np.loadtxt(shift_file, delimiter=",", skiprows=1)
        t = feedback.open_loop_transfer(
            sys.cavity, sys.with_gain_norm(1.0), sys.cavity.detuning
        )
        phase = np.angle(t * np.exp(1j * sys.loop.phi))
        expected = -sys.cavity.kappa * rows[:, 0] * math.tan(phase) / TWO_PI
        np.testing.assert_allclose(rows[:, 1], expected, rtol=1e-9, atol=1e-9)
        meta = json.loads((tmp_path / "fig3_effective_cavity.json").read_text())
        assert meta["preset"] == "fig3_effective_cavity"
        assert set(meta["files"]) >= {kappa_file.name, shift_file.name}
        # normalized closed-loop seed response: anti-squashing narrows the
        # resonance, so the peak response grows with gain
        closed = np.loadtxt(
            tmp_path / "fig3_closed_loop_gain+0.9.csv", delimiter=",", skiprows=1
        )
        peak = np.max(np.hypot(closed[:, 1], closed[:, 2]))
        assert peak > 5.0  # ~1/(1 - gain_norm) at the effective resonance

    def test_squash_curves_swap_under_sign_flip(self, tmp_path):
        optimize.figure_preset("fig2_squash", tmp_path, points=400)
        pos = np.loadtxt(tmp_path / "fig2_squash_positive.csv", delimiter=",", skiprows=1)
        neg = np.loadtxt(tmp_path / "fig2_squash_negative.csv", delimiter=",", skiprows=1)
        # anti-squashing band around the detuning swaps to squashing
        detuning_hz = 330e3
        sel = np.abs(pos[:, 0] - detuning_hz) < 5e3
        assert np.all(pos[sel, 1] > 1.0)
        assert np.all(neg[sel, 1] < 1.0)

    def test_gain_preset_curve_shape(self, tmp_path, experiment):
        manifest = optimize.figure_preset("fig4_gain", tmp_path, points=9)
        rows = np.loadtxt(tmp_path / "fig4_gain_occupancy.csv", delimiter=",", skiprows=1)
        finite = np.isfinite(rows[:, 1])
        assert finite.sum() >= 6
        idx = int(np.nanargmin(np.where(finite, rows[:, 1], np.nan)))
        assert 0 < idx  # falls from the no-feedback value
        assert manifest["no_feedback_occupancy"] == pytest.approx(
            rows[0, 1], rel=1e-12
        )


class TestRemainingPresets:
    def test_fig4_detuning_minimum_location(self, tmp_path, experiment):
        optimize.figure_preset("fig4_detuning", tmp_path, points=5)
        rows = np.loadtxt(
            tmp_path / "fig4_detuning_occupancy.csv", delimiter=",", skiprows=1
        )
        finite = np.isfinite(rows[:, 1])
        assert finite.sum() >= 4
        best = rows[np.nanargmin(np.where(finite, rows[:, 1], np.nan)), 0]
        assert 325e3 < best < 335e3

    def test_smfig1_bundles(self, tmp_path, fig1_optical, fig1_microwave):
        for name in ("smfig1_delay", "smfig1_detuning", "smfig1_coupling"):
            manifest = optimize.figure_preset(name, tmp_path, points=7)
            assert len(manifest["files"]) == 2
            for fname in manifest["files"]:
                rows = np.loadtxt(tmp_path / fname, delimiter=",", skiprows=1)
                assert rows.shape[0] == 7

    def test_fig1_bundle(self, tmp_path, fig1_microwave):
        manifest = optimize.figure_preset("fig1_microwave", tmp_path, points=3)
        assert len(manifest["files"]) == 4
        assert manifest["no_feedback_occupancy"] > 0

    @pytest.mark.parametrize("name", optimize.PRESET_NAMES)
    def test_preset_determinism(self, tmp_path, name):
        a, b = tmp_path / "a", tmp_path / "b"
        manifest = optimize.figure_preset(name, a, points=3)
        optimize.figure_preset(name, b, points=3)
        written = sorted(path.name for path in a.iterdir())
        assert written == sorted([*manifest["files"], f"{name}.json"])
        assert sorted(path.name for path in b.iterdir()) == written
        for fname in written:
            assert (a / fname).read_bytes() == (b / fname).read_bytes(), fname

    @pytest.mark.parametrize("points", [0, -1, 1, 2.5, "3", True])
    def test_points_checked_up_front(self, tmp_path, points):
        for name in optimize.PRESET_NAMES:
            with pytest.raises(ValidationError, match="points"):
                optimize.figure_preset(name, tmp_path / name, points=points)
            assert not (tmp_path / name).exists()
