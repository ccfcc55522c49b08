import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

import closed_form
from loopcool import cooling, feedback, langevin, model
from loopcool.errors import OptomechanicalInstabilityError, ValidationError
from loopcool.feedback import EffectiveCavity
from loopcool.model import CavityParams, FeedbackConfig, FlatDelay, MechanicsParams, Port

TWO_PI = 2 * math.pi


def single_port_cavity(kappa, detuning):
    return CavityParams(kappa0=kappa, kappa1=0.0, kappa_prime=0.0, detuning=detuning)


def direct_interference_rates(p, m, fb):
    """Independent oracle: the two-term coherent-sum rate formula for unit
    efficiency on a single detected port, evaluated from the primitive
    response functions (not through the spectrum assembly).  The detected
    quadrature carries the port's static phase reference."""
    phi_q = model.detected_phase(p, fb)
    out = []
    for w in (-m.omega_m, m.omega_m):
        chi = complex(model.cavity_susceptibility(p, w))
        zeta = complex(model.zeta_out(p, fb, w))
        zeta_c = complex(model.zeta_cavity(p, 0.0, w))
        g = complex(fb.gain(w))
        bracket = 2.0 * g * zeta_c / (1.0 - 2.0 * g * zeta) * cmath.exp(1j * phi_q)
        out.append(m.G**2 / (2.0 * p.kappa) * abs(chi + bracket.conjugate()) ** 2)
    return out  # [A+, A-]


def stable_single_port_draw(rng):
    kappa = rng.uniform(0.4, 2.5)
    p = single_port_cavity(kappa, rng.uniform(-10, 10))
    m = MechanicsParams(
        omega_m=rng.uniform(1.0, 12.0), gamma_m=1e-5, n_th=5.0, G=rng.uniform(0.001, 0.01)
    )
    fb = FeedbackConfig(
        port=Port.REFLECTION,
        phi=rng.uniform(-math.pi, math.pi),
        eta=1.0,
        gain=FlatDelay(
            rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.5),
            phase_offset=math.pi * rng.randint(2),
        ),
    )
    d = feedback.loop_denominator(p, fb, np.array([-m.omega_m, m.omega_m]))
    if np.min(np.abs(d)) < 0.05:
        return None
    return p, m, fb


class TestSpectrumAndLambda:
    def test_spectrum_zero_gain_is_bare_cavity(self):
        p = CavityParams(kappa0=1.0, kappa1=0.6, kappa_prime=0.1, detuning=4.0)
        fb = FeedbackConfig(gain=FlatDelay(0.0))
        w = np.linspace(-8, 8, 101)
        expected = np.abs(model.cavity_susceptibility(p, w)) ** 2 / (2 * p.kappa)
        m0 = MechanicsParams(omega_m=1.0, gamma_m=1e-3, n_th=5.0)
        np.testing.assert_allclose(
            langevin.observable_spectrum(p, m0, fb, w, "x_cavity"), expected, rtol=1e-14
        )

    def test_positivity_over_band(self, rng):
        for _ in range(8):
            drawn = stable_single_port_draw(rng)
            if drawn is None:
                continue
            p, m, fb = drawn
            w = np.linspace(-20, 20, 10_000)
            d = np.abs(feedback.loop_denominator(p, fb, w))
            if d.min() < 1e-3:
                continue
            s = langevin.observable_spectrum(p, replace(m, G=0.0), fb, w, "x_cavity")
            assert np.all(s >= 0.0)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_lambda_resolved_sideband_approximation(self, sign):
        # near +-Delta the loop response reduces to the effective
        # susceptibility times the filter, to 10% at Delta/kappa = 16
        kappa = TWO_PI * 20.15e3
        p = CavityParams(
            kappa0=kappa / 2, kappa1=kappa / 2, kappa_prime=0.0, detuning=16 * kappa
        )
        fb = FeedbackConfig(
            port=Port.TRANSMISSION, phi=-0.3, eta=0.9, gain=FlatDelay(0.7, 0.02 / kappa)
        )
        theta, _ = model.input_phase_shifts(p)
        w = sign * np.linspace(p.detuning - kappa, p.detuning + kappa, 41)
        lam = closed_form.feedback_lambda(p, fb, w)
        chi_eff = feedback.effective_susceptibility(p, fb, np.abs(w))
        if sign > 0:
            approx = (p.kappa0 / p.kappa) * fb.gain(w) * chi_eff * np.exp(-1j * theta)
        else:
            approx = (
                (p.kappa0 / p.kappa)
                * fb.gain(w)
                * np.conjugate(chi_eff)
                * np.exp(1j * theta)
            )
        assert np.max(np.abs(lam - approx) / np.abs(approx)) < 0.10


class TestCoherentSumReduction:
    def test_rates_match_direct_form(self, rng):
        # eta = 1, single detected port in reflection: the spectrum-assembled
        # rates equal the two-term interference formula to 1e-10
        checked = 0
        while checked < 100:
            drawn = stable_single_port_draw(rng)
            if drawn is None:
                continue
            p, m, fb = drawn
            rates = cooling.scattering_rates(p, m, fb)
            a_plus, a_minus = direct_interference_rates(p, m, fb)
            assert rates.a_plus == pytest.approx(a_plus, rel=1e-10, abs=1e-300)
            assert rates.a_minus == pytest.approx(a_minus, rel=1e-10)
            checked += 1


class TestScatteringRates:
    def test_backaction_limit_resolved_sideband(self):
        kappa = TWO_PI * 21.5e3
        omega_m = TWO_PI * 343.13e3
        p = CavityParams(
            kappa0=kappa / 2, kappa1=kappa / 2, kappa_prime=0.0, detuning=omega_m
        )
        m = MechanicsParams(omega_m=omega_m, gamma_m=TWO_PI * 1.18, n_th=0.0, G=100.0)
        fb = FeedbackConfig(gain=FlatDelay(0.0))
        rates = cooling.scattering_rates(p, m, fb)
        n0 = rates.a_plus / rates.gamma_opt
        assert n0 == pytest.approx(kappa**2 / (4 * omega_m**2), rel=1e-3)
        assert n0 == pytest.approx(9.8e-4, rel=0.02)
        t_equiv = model.occupancy_to_temperature(n0, omega_m)
        assert t_equiv == pytest.approx(16e-9, rel=0.05)

    def test_rates_nonnegative(self, rng):
        for _ in range(50):
            drawn = stable_single_port_draw(rng)
            if drawn is None:
                continue
            p, m, fb = drawn
            rates = cooling.scattering_rates(p, m, fb)
            assert rates.a_plus >= 0.0 and rates.a_minus >= 0.0

    def test_suppression_gain_cancels_stokes(self):
        p = single_port_cavity(TWO_PI * 21.5e3, TWO_PI * 330e3)
        m = MechanicsParams(
            omega_m=TWO_PI * 343.13e3, gamma_m=TWO_PI * 1.18, n_th=1e7, G=1e4
        )
        fb0 = FeedbackConfig(port=Port.REFLECTION, phi=0.4, eta=1.0)
        gval = feedback.stokes_suppression_gain(p, fb0, m.omega_m)
        fb = replace(fb0, gain=feedback.gain_model_at(m.omega_m, gval))
        rates = cooling.scattering_rates(p, m, fb)
        assert rates.a_plus < 1e-10 * rates.a_minus


class TestOccupancy:
    def test_zero_optical_damping_leaves_thermal_state(self):
        m = MechanicsParams(omega_m=5.0, gamma_m=1e-3, n_th=7.0, G=0.01)
        occ = cooling.occupancy_weak_coupling(m, cooling.RatePair(0.0, 0.0))
        assert occ.n_final == pytest.approx(m.n_th, rel=1e-12)
        assert math.isinf(occ.n_backaction)

    def test_balanced_rates_heat_symmetrically(self):
        # Delta = 0: A+ = A-, Gamma_opt = 0; residual heating is A+/gamma_m
        p = single_port_cavity(1.0, 0.0)
        m = MechanicsParams(omega_m=5.0, gamma_m=1e-3, n_th=7.0, G=0.01)
        rates = cooling.scattering_rates(p, m, FeedbackConfig(gain=FlatDelay(0.0)))
        assert rates.gamma_opt == pytest.approx(0.0, abs=1e-18)
        occ = cooling.occupancy_weak_coupling(m, rates)
        assert occ.n_final == pytest.approx(
            m.n_th + rates.a_plus / m.gamma_m, rel=1e-12
        )

    def test_zero_stokes_limit(self):
        m = MechanicsParams(omega_m=5.0, gamma_m=0.5, n_th=7.0, G=0.01)
        rates = cooling.RatePair(a_plus=0.0, a_minus=2.0)
        occ = cooling.occupancy_weak_coupling(m, rates)
        assert occ.n_backaction == 0.0
        assert occ.n_final == pytest.approx(0.5 * 7.0 / 2.5)

    def test_anti_damped_raises(self):
        m = MechanicsParams(omega_m=5.0, gamma_m=0.5, n_th=7.0, G=0.01)
        with pytest.raises(OptomechanicalInstabilityError):
            cooling.occupancy_weak_coupling(m, cooling.RatePair(3.0, 2.0))

    def test_room_temperature_to_sideband_benchmark(self, experiment):
        # 300 K thermal occupancy cooled to 2 K without feedback
        sys = experiment
        fb_off = replace(sys.loop, gain=replace(sys.loop.gain, amplitude=0.0))
        rates = cooling.scattering_rates(sys.cavity, sys.mechanics, fb_off)
        occ = cooling.occupancy_weak_coupling(sys.mechanics, rates)
        assert sys.mechanics.n_th == pytest.approx(1.82e7, rel=5e-3)
        assert occ.n_final == pytest.approx(1.21e5, rel=5e-3)
        assert occ.temperature_final == pytest.approx(2.0, rel=1e-6)


class TestHighTemperatureChain:
    def chain(self, experiment, gain_norm=0.9):
        sys = experiment
        p, m = sys.cavity, sys.mechanics
        kappa_eff = p.kappa * (1 - gain_norm)
        eff = EffectiveCavity(
            kappa_eff=kappa_eff, delta_eff=m.omega_m, gain_norm=gain_norm, valid=True
        )
        return sys, p, m, eff

    def test_round_trip_with_measured_inversion(self, experiment):
        sys, p, m, eff = self.chain(experiment)
        eta, kappa1 = sys.loop.eta, p.kappa1
        report = cooling.high_temperature_report(p, m, eff, eta, kappa1)
        n_sc = m.n_th * m.gamma_m * p.kappa / (2 * m.G**2)
        rho_back = cooling.rho_from_measured(
            report.n_final, n_sc, m.n_th, p.kappa, eff.kappa_eff, m.gamma_m
        )
        assert rho_back == pytest.approx(report.rho, rel=1e-6)
        assert report.gamma_opt == pytest.approx(2 * m.G**2 / eff.kappa_eff)

    def test_matches_full_spectrum_when_tuned(self, experiment):
        # analytic chain vs the full rate spectrum, detuning retuned per gain
        # so the effective resonance sits on the mechanical frequency; the
        # preset's delayed loop crosses its true threshold near 0.96, so the
        # single-pole chain is exercised up to 0.9 here (see the idealized
        # variant below for deeper gain)
        sys = experiment
        m = sys.mechanics
        for gain_norm in (0.5, 0.7, 0.9):
            fb = sys.with_gain_norm(gain_norm)
            p = replace(sys.cavity, detuning=sys.cavity.detuning)
            for _ in range(60):
                eff = feedback.effective_cavity(p, fb)
                step = eff.delta_eff - m.omega_m
                p = replace(p, detuning=p.detuning - 0.5 * step)
                if abs(step) < 1e-3:
                    break
            eff = feedback.effective_cavity(p, fb)
            assert abs(eff.delta_eff - m.omega_m) < 1.0
            report = cooling.high_temperature_report(p, m, eff, fb.eta, p.kappa1)
            occ = cooling.occupancy_weak_coupling(
                m, cooling.scattering_rates(p, m, fb)
            )
            assert report.n_final == pytest.approx(occ.n_final, rel=0.15)
            assert report.tuned

    def test_matches_full_spectrum_short_delay(self, experiment):
        # negligible delay and aligned phase: threshold sits at gain_norm = 1
        # and the chain tracks the full spectrum through 0.95
        kappa = TWO_PI * 21.5e3
        omega_m = TWO_PI * 343.13e3
        m = experiment.mechanics
        eta = experiment.loop.eta
        p = CavityParams(
            kappa0=kappa / 2, kappa1=kappa / 2, kappa_prime=0.0, detuning=omega_m
        )
        probe = FeedbackConfig(eta=eta, gain=FlatDelay(1.0, 0.01 / kappa))
        t = feedback.open_loop_transfer(p, probe, p.detuning)
        phi = -cmath.phase(t)
        for gain_norm in (0.5, 0.7, 0.9, 0.95):
            fb = FeedbackConfig(
                phi=phi, eta=eta, gain=FlatDelay(gain_norm / abs(t), 0.01 / kappa)
            )
            eff = feedback.effective_cavity(p, fb)
            report = cooling.high_temperature_report(p, m, eff, eta, p.kappa1)
            occ = cooling.occupancy_weak_coupling(
                m, cooling.scattering_rates(p, m, fb)
            )
            assert report.n_final == pytest.approx(occ.n_final, rel=0.15)

    def test_rejects_collapsed_linewidth(self, experiment):
        sys, p, m, _ = self.chain(experiment)
        eff = EffectiveCavity(kappa_eff=-1.0, delta_eff=m.omega_m, gain_norm=1.1, valid=False)
        with pytest.raises(OptomechanicalInstabilityError):
            cooling.high_temperature_report(p, m, eff, 1.0, p.kappa1)

    @pytest.mark.parametrize("eta, kappa1", [(0.0, 1.0), (-0.5, 1.0), (1.0, 0.0)])
    def test_rejects_blind_detection(self, experiment, eta, kappa1):
        _, p, m, eff = self.chain(experiment)
        with pytest.raises(ValidationError) as raised:
            cooling.high_temperature_report(p, m, eff, eta, kappa1 * p.kappa1)
        assert str(raised.value) == "eta and kappa1 must be positive"


class TestRhoFromMeasured:
    def test_zero_excess(self):
        assert cooling.rho_from_measured(1.0, 1.0, 5.0, 2.0, 2.0, 0.1) == 0.0

    def test_experiment_arithmetic(self):
        # measured anchors: kappa/kappa_eff = 10, n/n_sc = 0.35 K / 2 K
        omega_m = TWO_PI * 343.13e3
        n_th = model.temperature_to_occupancy(300.0, omega_m)
        n_sc = model.temperature_to_occupancy(2.0, omega_m)
        n_m = model.temperature_to_occupancy(0.35, omega_m)
        gamma_m = TWO_PI * 1.18
        rho = cooling.rho_from_measured(n_m, n_sc, n_th, 10.0, 1.0, gamma_m)
        assert rho / gamma_m == pytest.approx(1.37e7, rel=0.01)
        t_equiv = model.occupancy_to_temperature(rho / gamma_m, omega_m)
        assert t_equiv == pytest.approx(225.0, rel=0.01)

    @pytest.mark.parametrize("index", range(6))
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_non_positive_input(self, index, bad):
        args = [1.0, 1.0, 5.0, 2.0, 2.0, 0.1]
        args[index] = bad
        with pytest.raises(ValidationError) as raised:
            cooling.rho_from_measured(*args)
        assert str(raised.value) == "all inputs must be positive"

    def test_inconsistent_set(self):
        with pytest.raises(ValidationError, match="inconsistent measurement"):
            cooling.rho_from_measured(0.5, 1.0, 5.0, 2.0, 2.0, 0.1)


class TestSidebandComparison:
    def test_no_feedback_limit(self):
        n = cooling.occupancy_vs_sideband_cooling(1e4, 2.0, 2.0, 0.0, 1.0, 1.0)
        assert n == pytest.approx(1e4)

    def test_closed_form_minimum_example(self):
        kappa = 2.0
        n_min_expected = 2e4 / (1 + math.sqrt(1 + 2e4))
        _, n_min = cooling.optimal_linewidth_and_min(1e4, kappa, 1.0, kappa / 2)
        assert n_min == pytest.approx(n_min_expected, rel=1e-12)
        assert n_min == pytest.approx(140.4, abs=0.1)
        assert n_min == pytest.approx(math.sqrt(2e4), rel=0.01)

    def test_brute_force_agreement(self, rng):
        from scipy.optimize import minimize_scalar

        for _ in range(30):
            n_sc = 10 ** rng.uniform(1, 7)
            kappa = 10 ** rng.uniform(-2, 6)
            eta = rng.uniform(0.05, 1.0)
            kappa1 = kappa * rng.uniform(0.05, 1.0)
            k_opt, n_min = cooling.optimal_linewidth_and_min(n_sc, kappa, eta, kappa1)
            res = minimize_scalar(
                lambda k_eff: cooling.occupancy_vs_sideband_cooling(
                    n_sc, kappa, k_eff, 0.0, eta, kappa1
                ),
                bounds=(kappa * 1e-9, kappa),
                method="bounded",
                options={"xatol": kappa * 1e-13},
            )
            assert n_min == pytest.approx(float(res.fun), rel=1e-9)
            assert k_opt == pytest.approx(float(res.x), rel=1e-4)
            assert n_min < n_sc

    def test_useless_without_detection(self):
        _, n_min = cooling.optimal_linewidth_and_min(1e4, 2.0, 1e-12, 1.0)
        assert n_min == pytest.approx(1e4, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValidationError):
            cooling.occupancy_vs_sideband_cooling(1e4, 2.0, 3.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            cooling.optimal_linewidth_and_min(-1.0, 2.0, 1.0, 1.0)


class TestMonotoneBenefit:
    @pytest.mark.parametrize("preset", ["fig1_optical", "fig1_microwave"])
    def test_feedback_never_hurts_at_ideal_detection(self, preset, request):
        sys = request.getfixturevalue(preset)
        p, m = sys.cavity, sys.mechanics
        amp_scale = abs(feedback.stokes_suppression_gain(p, sys.loop, m.omega_m))
        best = math.inf
        for amp in np.linspace(0.0, 2 * amp_scale, 61):
            for phi in np.linspace(-math.pi, math.pi, 25, endpoint=False):
                fb = replace(
                    sys.loop, phi=float(phi), gain=replace(sys.loop.gain, amplitude=float(amp))
                )
                try:
                    occ = cooling.occupancy_weak_coupling(
                        m, cooling.scattering_rates(p, m, fb)
                    )
                except OptomechanicalInstabilityError:
                    continue
                best = min(best, occ.n_final)
        baseline = cooling.occupancy_weak_coupling(
            m,
            cooling.scattering_rates(
                p, m, replace(sys.loop, gain=replace(sys.loop.gain, amplitude=0.0))
            ),
        ).n_final
        assert best < 0.95 * baseline


class TestCoolingReportInvariants:
    def test_cooling_configurations_stay_below_bath(self, experiment):
        # whenever the optical damping is positive, the stationary occupancy
        # cannot exceed the thermal one on the preset's stable branch
        sys = experiment
        for gain_norm in np.linspace(0.0, 0.95, 14):
            report = cooling.cooling_report(
                sys.cavity, sys.mechanics, sys.with_gain_norm(float(gain_norm))
            )
            if report.gamma_opt > 0:
                assert report.n_final <= sys.mechanics.n_th

    def test_anti_damping_is_flagged(self):
        # blue-detuned drive heats: gamma_opt < 0 must carry a warning
        p = single_port_cavity(1.0, -5.0)
        m = MechanicsParams(omega_m=5.0, gamma_m=10.0, n_th=7.0, G=0.05)
        report = cooling.cooling_report(p, m, FeedbackConfig(gain=FlatDelay(0.0)))
        assert report.gamma_opt < 0
        assert any("anti-damping" in w for w in report.warnings)

    def test_weak_coupling_advisory_flag(self):
        p = single_port_cavity(1.0, 5.0)
        m = MechanicsParams(omega_m=5.0, gamma_m=1e-3, n_th=7.0, G=1.0)
        report = cooling.cooling_report(p, m, FeedbackConfig(gain=FlatDelay(0.0)))
        assert any("advisory" in w for w in report.warnings)


class TestHighTemperatureVsExactRoute:
    def test_rho_formula_against_exact_stokes_rate(self):
        # independent route: the analytic near-threshold Stokes rate (rho)
        # against the exact frequency-domain solve of the empty-cavity
        # quadrature spectrum at -omega_m.  Deep sideband ratio and short
        # delay keep the neglected anti-resonant correction
        # ~ kappa*G/(2*Delta*(1-G)) under the tolerance.
        kappa = TWO_PI * 20e3
        omega_m = 120 * kappa
        p = CavityParams(
            kappa0=kappa / 2, kappa1=kappa / 2, kappa_prime=0.0, detuning=omega_m
        )
        m = MechanicsParams(omega_m=omega_m, gamma_m=1.0, n_th=1e6, G=5e3)
        eta = 0.8
        probe = FeedbackConfig(eta=eta, gain=FlatDelay(1.0, 0.01 / kappa))
        t = feedback.open_loop_transfer(p, probe, p.detuning)
        phi = -cmath.phase(t)
        for gain_norm in (0.7, 0.9):
            fb = FeedbackConfig(
                phi=phi, eta=eta, gain=FlatDelay(gain_norm / abs(t), 0.01 / kappa)
            )
            eff = feedback.effective_cavity(p, fb)
            report = cooling.high_temperature_report(p, m, eff, eta, p.kappa1)
            m0 = replace(m, G=0.0)
            s_x = langevin.observable_spectrum(
                p, m0, fb, np.array([-m.omega_m]), "x_cavity"
            )
            a_plus_exact = m.G**2 * float(s_x[0])
            assert report.rho == pytest.approx(a_plus_exact, rel=0.08)
