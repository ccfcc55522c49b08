import cmath
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from loopcool import feedback, langevin, model
from loopcool.errors import BandError, ConvergenceError, ValidationError
from loopcool.model import (
    CavityParams, FeedbackConfig, FlatDelay, MechanicsParams, Port, Tabulated,
)

TWO_PI = 2 * math.pi


def resolved_cavity(detuning_ratio=16.0, kappa=TWO_PI * 20.15e3):
    return CavityParams(
        kappa0=kappa / 2, kappa1=kappa / 2, kappa_prime=0.0,
        detuning=detuning_ratio * kappa,
    )


def aligned_loop(p, gain_norm, eta=1.0, delay=0.0):
    """Transmission loop with the homodyne angle nulling the open-loop phase
    at the detuning, so gain_norm equals the full loop magnitude there and
    the single-pole picture is exact up to delay effects."""
    probe = FeedbackConfig(
        port=Port.TRANSMISSION, phi=0.0, eta=eta, gain=FlatDelay(1.0, delay)
    )
    t = feedback.open_loop_transfer(p, probe, p.detuning)
    phi = -cmath.phase(t)
    amp = gain_norm / abs(t)
    return FeedbackConfig(
        port=Port.TRANSMISSION, phi=phi, eta=eta, gain=FlatDelay(amp, delay)
    )


class TestOpenLoopTransfer:
    def test_zero_gain(self):
        p = resolved_cavity()
        fb = FeedbackConfig(gain=FlatDelay(0.0))
        assert feedback.open_loop_transfer(p, fb, p.detuning) == 0.0

    def test_eta_scaling(self):
        p = resolved_cavity()
        fb = FeedbackConfig(eta=1.0, gain=FlatDelay(0.4, 1e-7))
        fb_quarter = replace(fb, eta=0.25)
        t1 = feedback.open_loop_transfer(p, fb, p.detuning)
        t2 = feedback.open_loop_transfer(p, fb_quarter, p.detuning)
        assert abs(t2) == pytest.approx(abs(t1) / 2)

    def test_reflection_redirect(self):
        p = resolved_cavity()
        fb = FeedbackConfig(port=Port.REFLECTION, gain=FlatDelay(0.1))
        with pytest.raises(ValidationError, match="loop_factor"):
            feedback.open_loop_transfer(p, fb, p.detuning)

    def test_reflection_has_no_single_pole_cavity(self):
        # effective_cavity decides that the single-pole numbers exist only on
        # transmission: on reflection they are NaN, and unit_gain_norm's too
        p = resolved_cavity()
        fb = FeedbackConfig(port=Port.REFLECTION, gain=FlatDelay(0.1, 1e-7))
        eff = feedback.effective_cavity(p, fb)
        assert [math.isnan(x) for x in (eff.kappa_eff, eff.delta_eff, eff.gain_norm)] == [True] * 3
        assert eff.valid is False
        assert math.isnan(feedback.unit_gain_norm(p, fb))


def squash_spectrum(p, fb, omega):
    """The in-loop photocurrent spectrum with the membrane decoupled, as
    `spectrum squash` takes it."""
    return langevin.observable_spectrum(p, decoupled_mechanics(p), fb, omega, "i_fb")


class TestSquashSpectrum:
    def test_definition_round_trip(self, rng):
        p = resolved_cavity()
        fb = FeedbackConfig(phi=0.31, eta=0.7, gain=FlatDelay(0.5, 2e-7, math.pi))
        w = rng.uniform(-3e6, 3e6, size=200)
        s = squash_spectrum(p, fb, w)
        d = feedback.loop_denominator(p, fb, w)
        np.testing.assert_allclose(s * np.abs(d) ** 2, 1.0, rtol=1e-14)

    def test_anti_squash_peak_scaling(self):
        p = resolved_cavity()
        for target in (0.9, 0.99):
            # align the full loop factor at the detuning: D = 1 - target there
            phi = 0.0
            for _ in range(30):
                probe = FeedbackConfig(phi=phi, gain=FlatDelay(1.0))
                loop = complex(feedback.loop_factor(p, probe, p.detuning))
                phi -= cmath.phase(loop)
                if abs(cmath.phase(loop)) < 1e-13:
                    break
            fb = FeedbackConfig(phi=phi, gain=FlatDelay(target / abs(loop)))
            (s,) = squash_spectrum(p, fb, p.detuning)
            assert s == pytest.approx((1 - target) ** -2, rel=1e-9)
            # the transmission-normalized gain agrees up to the anti-resonant
            # correction ~ kappa/(2 Delta)
            eff = feedback.effective_cavity(p, fb)
            assert eff.gain_norm == pytest.approx(target, rel=0.1)
        assert s > 1e3

    def test_sign_flip_swaps_squash_and_antisquash(self):
        p = resolved_cavity()
        fb = aligned_loop(p, 0.5)
        flipped = replace(
            fb, gain=replace(fb.gain, phase_offset=fb.gain.phase_offset + math.pi)
        )
        w = np.linspace(p.detuning - p.kappa, p.detuning + p.kappa, 301)
        s_pos = squash_spectrum(p, fb, w)
        s_neg = squash_spectrum(p, flipped, w)
        # swap where the loop factor is resonant-dominated
        loop = feedback.loop_factor(p, fb, w)
        sel = np.abs(loop) ** 2 < 2 * np.abs(loop.real)
        assert sel.sum() > 100
        assert np.all((s_pos[sel] > 1) != (s_neg[sel] > 1))


class TestEffectiveCavity:
    def test_linewidth_identity(self, rng):
        p = resolved_cavity()
        for _ in range(40):
            fb = FeedbackConfig(
                port=Port.TRANSMISSION,
                phi=rng.uniform(-math.pi, math.pi),
                eta=rng.uniform(0.1, 1.0),
                gain=FlatDelay(rng.uniform(-3, 3), rng.uniform(0, 1e-6)),
            )
            eff = feedback.effective_cavity(p, fb)
            assert eff.kappa_eff == pytest.approx(
                p.kappa * (1 - eff.gain_norm), rel=1e-14, abs=1e-12
            )

    def test_gain_norm_formula(self):
        p = resolved_cavity()
        fb = FeedbackConfig(phi=0.4, gain=FlatDelay(0.3, 3e-7))
        eff = feedback.effective_cavity(p, fb)
        t = feedback.open_loop_transfer(p, fb, p.detuning)
        assert eff.gain_norm == pytest.approx((t * cmath.exp(1j * 0.4)).real)
        assert eff.delta_eff == pytest.approx(
            p.detuning - p.kappa * (t * cmath.exp(1j * 0.4)).imag
        )

    def test_negative_gain_reverses(self):
        p = resolved_cavity()
        fb = aligned_loop(p, 0.5, delay=7.5e-7)
        neg = replace(
            fb, gain=replace(fb.gain, amplitude=-fb.gain.amplitude)
        )
        eff_pos = feedback.effective_cavity(p, fb)
        eff_neg = feedback.effective_cavity(p, neg)
        assert eff_pos.kappa_eff < p.kappa < eff_neg.kappa_eff
        shift_pos = eff_pos.delta_eff - p.detuning
        shift_neg = eff_neg.delta_eff - p.detuning
        assert shift_pos == pytest.approx(-shift_neg, rel=1e-12)

    def test_measured_extreme_narrowing(self, experiment_empty):
        # benchmark: narrowest linewidth ~250 Hz with detuning pulled to
        # ~342.5 kHz at maximum gain
        sys = experiment_empty
        gain_norm = 1.0 - 250.0 / 20.15e3
        eff = feedback.effective_cavity(sys.cavity, sys.with_gain_norm(gain_norm))
        assert eff.kappa_eff / TWO_PI == pytest.approx(250.0, rel=1e-9)
        assert eff.delta_eff / TWO_PI == pytest.approx(342.5e3, abs=1.5e3)
        assert eff.valid

    def test_validity_flags(self):
        p = resolved_cavity(detuning_ratio=2.0)
        eff = feedback.effective_cavity(p, FeedbackConfig(gain=FlatDelay(0.1)))
        assert not eff.valid
        p = resolved_cavity(detuning_ratio=16.0)
        slow = FeedbackConfig(gain=FlatDelay(0.1, delay=10.0 / p.kappa))
        assert not feedback.effective_cavity(p, slow).valid


class TestEffectiveSusceptibility:
    def test_zero_gain_reduces_to_bare(self):
        p = resolved_cavity()
        fb = FeedbackConfig(gain=FlatDelay(0.0))
        w = np.linspace(-2e6, 2e6, 101)
        np.testing.assert_allclose(
            feedback.effective_susceptibility(p, fb, w),
            model.cavity_susceptibility(p, w),
            rtol=1e-14,
        )

    @pytest.mark.parametrize("gain_norm", [0.3, 0.6, 0.9])
    def test_peak_and_width_match_single_pole(self, gain_norm):
        # anti-resonant and delay corrections scale as kappa*G/(2*Delta*(1-G))
        # and G*kappa*tau, so the 5% single-pole regime at G = 0.9 needs a
        # deep sideband ratio and a short delay
        p = resolved_cavity(detuning_ratio=120.0)
        fb = aligned_loop(p, gain_norm, delay=0.01 / p.kappa)
        eff = feedback.effective_cavity(p, fb)
        w = np.linspace(p.detuning - 3 * p.kappa, p.detuning + 3 * p.kappa, 120001)
        mag2 = np.abs(feedback.effective_susceptibility(p, fb, w)) ** 2
        peak_idx = int(np.argmax(mag2))
        assert abs(w[peak_idx] - eff.delta_eff) <= 0.02 * p.kappa
        half = mag2[peak_idx] / 2
        above = np.flatnonzero(mag2 >= half)
        width = (w[above[-1]] - w[above[0]]) / 2  # HWHM = kappa_eff
        assert width == pytest.approx(eff.kappa_eff, rel=0.05)

    def test_exact_vs_pole_approximation(self):
        # Delta/kappa >= 10 and kappa*tau <= 0.05: 5% agreement near
        # resonance at moderate gain (corrections grow with gain_norm)
        p = resolved_cavity(detuning_ratio=12.0)
        fb = aligned_loop(p, 0.5, delay=0.05 / p.kappa)
        eff = feedback.effective_cavity(p, fb)
        w = np.linspace(p.detuning - 3 * p.kappa, p.detuning + 3 * p.kappa, 4001)
        exact = np.abs(feedback.effective_susceptibility(p, fb, w))
        pole = np.abs(2 * p.kappa / (eff.kappa_eff + 1j * (eff.delta_eff - w)))
        assert np.max(np.abs(exact - pole) / pole) <= 0.05


class TestNyquist:
    def test_zero_gain(self):
        p = resolved_cavity()
        fb = FeedbackConfig(gain=FlatDelay(0.0))
        verdict = feedback.nyquist_stability(p, fb)
        assert verdict.stable and verdict.winding_number == 0
        assert verdict.margin == pytest.approx(1.0)

    def test_overdriven_loop_unstable(self):
        p = resolved_cavity()
        verdict = feedback.nyquist_stability(p, aligned_loop(p, 1.05))
        assert not verdict.stable and verdict.winding_number != 0

    def test_margin_near_threshold(self):
        p = resolved_cavity()
        verdict = feedback.nyquist_stability(p, aligned_loop(p, 0.9))
        assert verdict.stable
        assert verdict.margin == pytest.approx(0.1, rel=0.1)

    def test_flip_matches_single_pole_sign(self):
        # 100-point gain sweep crossing gain_norm = 1
        p = resolved_cavity()
        gain_norms = np.linspace(0.8, 1.2, 100)
        flips = []
        for g in gain_norms:
            fb = aligned_loop(p, float(g))
            eff = feedback.effective_cavity(p, fb)
            verdict = feedback.nyquist_stability(p, fb)
            assert verdict.stable == (eff.kappa_eff > 0) or abs(eff.kappa_eff) < 1e-6
            flips.append(verdict.stable)
        idx = int(np.argmin(flips))  # first unstable
        assert abs(gain_norms[idx] - 1.0) <= (gain_norms[1] - gain_norms[0]) + 1e-12

    def test_band_too_narrow(self):
        # measured gain whose band ends at Delta + 5 kappa, where the loop is
        # still far above the edge guard: the contour cannot close there
        p = resolved_cavity()
        fb = aligned_loop(p, 0.5)
        w = np.linspace(p.kappa, p.detuning + 5 * p.kappa, 200)
        tabulated = replace(fb, gain=model.Tabulated(w, fb.gain(w)))
        with pytest.raises(BandError, match="band too narrow"):
            langevin.closed_loop_stability(p, decoupled_mechanics(p), tabulated)

    def test_reflection_flat_gain_uses_cavity_guard(self):
        p = resolved_cavity()
        fb = FeedbackConfig(port=Port.REFLECTION, phi=0.2, gain=FlatDelay(0.3))
        verdict = feedback.nyquist_stability(p, fb)
        assert isinstance(verdict.winding_number, int)


def amplitude_sweep(system, points=12):
    """Gain amplitudes 0 to the Stokes-suppressing gain (or gain_norm 0.995)."""
    p, m, fb = system.cavity, system.mechanics, system.loop
    if math.isfinite(system.gain_norm_per_amplitude):
        top = 0.995 / system.gain_norm_per_amplitude
    else:
        top = abs(feedback.stokes_suppression_gain(p, fb, m.omega_m))
    return [(p, replace(fb, gain=replace(fb.gain, amplitude=float(a))))
            for a in np.linspace(0.0, top, points)]


def phase_sweep(system, points=12):
    """Homodyne phases over the full circle at half the amplitude sweep's top."""
    p, fb = amplitude_sweep(system, 3)[1]
    return [(p, replace(fb, phi=float(phi))) for phi in np.linspace(-math.pi, math.pi, points)]


def triple(verdict):
    return verdict.stable, verdict.winding_number, float(verdict.margin).hex()


def doubling_band_edge(p, fb):
    """Reference band edge: |Delta| + 64 kappa doubled until the cavity-mediated
    loop is under the edge guard at +-hi, one pair of probes at a time."""
    port = model.detected_port(p, fb)
    hi = abs(p.detuning) + 64.0 * p.kappa
    for _ in range(24):
        probe = np.array([-hi, hi])
        zeta_cav = model.zeta_out(p, fb, probe) + (1 - port.z) * math.cos(fb.phi - port.theta)
        if np.all(np.abs(2.0 * math.sqrt(fb.eta) * zeta_cav * fb.gain(probe)) < 1e-3):
            return hi
        hi *= 2.0
    raise BandError("no band edge")


def flat_contour(p, fb):
    """The flat gain's cached contour, as nyquist_stability reads it."""
    return feedback._contour_grid(p.detuning, p.kappa, feedback._flat_band_edge(p, fb))


def reference_contour(p, hi, samples=4096):
    grid = [np.linspace(-hi, hi, samples)]
    for center in (-abs(p.detuning), abs(p.detuning)):
        grid.append(np.linspace(center - 8 * p.kappa, center + 8 * p.kappa, samples))
    omega = np.unique(np.concatenate(grid))
    return omega[(omega >= -hi) & (omega <= hi)]


class TestContourCache:
    """The flat-gain contour's cached pieces change no verdict, winding number
    or margin in any bit, whatever ran before."""

    def test_sweeps_match_cold_evaluation_in_reversed_order(
        self, experiment, fig1_optical, fig1_microwave
    ):
        interleaved = [
            point for pair in zip(amplitude_sweep(fig1_optical), amplitude_sweep(fig1_microwave))
            for point in pair
        ]
        points = (amplitude_sweep(fig1_optical) + amplitude_sweep(experiment)
                  + phase_sweep(fig1_microwave) + phase_sweep(experiment) + interleaved)
        warm = [triple(feedback.nyquist_stability(p, fb)) for p, fb in points]
        cold = []
        for p, fb in reversed(points):
            for cache in (feedback._contour_grid, feedback._contour_gain_free,
                          feedback._contour_phase):
                cache.cache_clear()
            cold.append(triple(feedback.nyquist_stability(p, fb)))
        assert warm == cold[::-1]
        # and both equal the uncached D(w) = loop_denominator on the same contour
        uncached = [
            triple(feedback.winding_verdict(
                partial(feedback.loop_denominator, p, fb), flat_contour(p, fb)))
            for p, fb in points
        ]
        assert warm == uncached
        assert {stable for stable, _, _ in warm} == {True, False}

    def test_band_edge_and_grid_match_the_one_probe_pair_loop(self):
        rng = np.random.default_rng(2101)
        for _ in range(300):
            scale = 10 ** rng.uniform(-3, 9)
            kappas = scale * rng.uniform(0.01, 1.0, 3)
            p = CavityParams(*kappas, detuning=scale * rng.uniform(-40, 40))
            gain = FlatDelay(10 ** rng.uniform(-3, 3) * rng.choice([-1, 0, 1]),
                             rng.uniform(0, 10) / scale, math.pi * rng.integers(2))
            fb = FeedbackConfig(Port(rng.choice(["reflection", "transmission"])),
                                rng.uniform(-4, 4), rng.uniform(0, 1), gain)
            hi = doubling_band_edge(p, fb)
            assert feedback._flat_band_edge(p, fb) == hi
            assert np.array_equal(flat_contour(p, fb), reference_contour(p, hi))

    def test_amplitude_sweep_reuses_the_gain_free_factors(self, fig1_optical):
        for p, fb in amplitude_sweep(fig1_optical):
            feedback.nyquist_stability(p, fb)
        caches = (feedback._contour_grid, feedback._contour_gain_free, feedback._contour_phase)
        assert all(c.cache_info().maxsize == 1 for c in caches)
        assert all(c.cache_info().hits > 0 for c in caches)

    def test_phase_sweep_reuses_the_grid_and_phase_factor(self, experiment):
        for p, fb in phase_sweep(experiment):
            feedback.nyquist_stability(p, fb)
        assert feedback._contour_gain_free.cache_info().hits == 0
        assert feedback._contour_phase.cache_info().hits > 0

    def test_cached_arrays_are_read_only(self, experiment):
        p, fb = experiment.cavity, experiment.loop
        omega = flat_contour(p, fb)
        feedback.nyquist_stability(p, fb)
        with pytest.raises(ValueError, match="read-only"):
            omega[0] = 0.0
        hi = float(omega[-1])
        z = feedback._contour_gain_free(p, fb.port, fb.phi, fb.eta, hi)
        e = feedback._contour_phase(fb.gain.delay, fb.gain.phase_offset, p.detuning, p.kappa, hi)
        assert not z.flags.writeable and not e.flags.writeable
        assert z.shape == e.shape == omega.shape


class TestStokesSuppressionGain:
    def test_gain_model_at_realizes_value(self):
        target = 0.37 * cmath.exp(1.1j)
        omega_m = TWO_PI * 343.13e3
        gain = feedback.gain_model_at(omega_m, target)
        assert gain(-omega_m) == pytest.approx(target, rel=1e-9)
        assert gain(omega_m) == pytest.approx(target.conjugate(), rel=1e-9)


class TestOptimalBareDetuning:
    def test_zero_loop_phase_fixed_point(self):
        # homodyne angle compensating the transfer phase at omega_m: the
        # fixed point sits at omega_m itself
        p = resolved_cavity()
        omega_m = p.detuning * 1.02
        probe = FeedbackConfig(gain=FlatDelay(1.0))
        p_at = replace(p, detuning=omega_m)
        phi = -cmath.phase(feedback.open_loop_transfer(p_at, probe, omega_m))
        fb = FeedbackConfig(phi=phi, gain=FlatDelay(1.0))
        delta = feedback.optimal_bare_detuning(p, fb, omega_m)
        assert delta == pytest.approx(omega_m, abs=TWO_PI * 1.5)

    def test_frozen_phase_arithmetic(self, experiment):
        # one-step oracle: omega_m + kappa*tan(-0.59) = 2*pi*328.74 kHz
        sys = experiment
        m = sys.mechanics
        kappa = sys.cavity.kappa
        expected = m.omega_m + kappa * math.tan(-0.59)
        assert expected / TWO_PI == pytest.approx(328.73e3, abs=0.1e3)
        delta = feedback.optimal_bare_detuning(
            sys.cavity, sys.with_gain_norm(1.0), m.omega_m
        )
        assert delta == pytest.approx(expected, abs=TWO_PI * 300.0)

    def test_matches_reported_optimum(self, experiment):
        sys = experiment
        delta = feedback.optimal_bare_detuning(
            sys.cavity, sys.with_gain_norm(1.0), sys.mechanics.omega_m
        )
        assert delta / TWO_PI == pytest.approx(329.4e3, abs=1e3)

    def test_divergent_phase_raises(self):
        p = resolved_cavity()
        omega_m = p.detuning
        probe = FeedbackConfig(gain=FlatDelay(1.0))
        phi0 = -cmath.phase(feedback.open_loop_transfer(p, probe, p.detuning))
        fb = FeedbackConfig(phi=phi0 + math.pi / 2 - 1e-3, gain=FlatDelay(1.0))
        with pytest.raises(ConvergenceError):
            feedback.optimal_bare_detuning(p, fb, omega_m)


def decoupled_mechanics(p):
    """A mode at the detuning, decoupled (G = 0): the closed-loop test is then
    the loop's own, R = D."""
    return MechanicsParams(omega_m=p.detuning, gamma_m=1e-5 * p.detuning, n_th=1e3)


def band_pass(p):
    """Band-pass electronics over a trace from 1 kHz: negligible loop at both
    edges of the measured band."""
    w = np.geomspace(1e3, 1.5e8, 4000)
    hp = 1j * w / (1j * w + p.detuning / 2)
    lp = 2 * p.detuning / (2 * p.detuning + 1j * w)
    return FeedbackConfig(gain=Tabulated(w, 2.0 * hp**3 * lp**3 * np.exp(1j * w * 1e-7)))


class TestNyquistTabulated:
    def test_rolled_off_tabulated_filter(self):
        # the one winding test of a tabulated loop, at G = 0 as the weak
        # evaluator takes it
        p = resolved_cavity()
        fb = band_pass(p)
        assert isinstance(langevin.closed_loop_stability(p, decoupled_mechanics(p), fb), bool)

    def test_nyquist_stability_rejects_a_tabulated_gain(self):
        p = resolved_cavity()
        with pytest.raises(ValidationError, match="closed_loop_stability"):
            feedback.nyquist_stability(p, band_pass(p))

    def test_contour_spans_the_gap_below_the_band_in_one_step(self):
        p = resolved_cavity()
        fb = band_pass(p)
        lo, hi = fb.gain.domain
        omega = feedback.loop_contour(p, fb)
        assert omega[0] == -hi and omega[-1] == hi
        gap = np.flatnonzero(omega == -lo)
        assert gap.size == 1 and omega[gap[0] + 1] == lo
        assert np.all(np.abs(omega) >= lo)
