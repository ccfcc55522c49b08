"""Acceptance criteria.

Each test implements one numbered criterion at its stated tolerance and
prints one pass line (run with `pytest tests/test_acceptance.py -v -s`).
"""

import cmath
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from loopcool import cooling, feedback, ingest, langevin, model, optimize
from loopcool.model import (
    CavityParams,
    FeedbackConfig,
    FlatDelay,
    MechanicsParams,
    Port,
)

TWO_PI = 2 * math.pi

KAPPA = TWO_PI * 21.5e3
OMEGA_M = TWO_PI * 343.13e3
GAMMA_M = TWO_PI * 1.18


def _report(number, text):
    print(f"[criterion {number:2d}] PASS - {text}")


class Timer:
    def __init__(self, budget_s):
        self.budget = budget_s
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.budget, f"runtime {elapsed:.1f}s over budget {self.budget}s"
        return elapsed


def test_criterion_1_standard_backaction_limit():
    timer = Timer(1.0)
    p = CavityParams(
        kappa0=KAPPA / 2, kappa1=KAPPA / 2, kappa_prime=0.0, detuning=OMEGA_M
    )
    m = MechanicsParams(omega_m=OMEGA_M, gamma_m=GAMMA_M, n_th=0.0, G=1e3)
    fb = FeedbackConfig(gain=FlatDelay(0.0))
    rates = cooling.scattering_rates(p, m, fb)
    n0 = rates.a_plus / rates.gamma_opt
    assert 8.0e-4 <= n0 <= 1.1e-3
    t_equiv = model.occupancy_to_temperature(n0, OMEGA_M)
    assert 13e-9 <= t_equiv <= 18e-9
    elapsed = timer.check()
    _report(1, f"n0 = {n0:.4e}, T = {t_equiv * 1e9:.2f} nK ({elapsed:.2f}s)")


def test_criterion_2_high_temperature_chain():
    timer = Timer(1.0)
    n_th = model.temperature_to_occupancy(300.0, OMEGA_M)
    n_sc = model.temperature_to_occupancy(2.0, OMEGA_M)
    n_m = model.temperature_to_occupancy(0.35, OMEGA_M)
    coupling_sq = n_th * GAMMA_M * KAPPA / (2.0 * n_sc)
    kappa_eff = 0.1 * KAPPA
    gamma_opt = 2.0 * coupling_sq / kappa_eff
    rho = cooling.rho_from_measured(n_m, n_sc, n_th, KAPPA, kappa_eff, GAMMA_M)

    t_rho = model.occupancy_to_temperature(rho / GAMMA_M, OMEGA_M)
    assert t_rho == pytest.approx(225.0, rel=0.15)
    t_backaction = model.occupancy_to_temperature(rho / gamma_opt, OMEGA_M)
    assert t_backaction == pytest.approx(0.150, rel=0.15)
    n_final = (GAMMA_M * n_th + rho) / (GAMMA_M + gamma_opt)
    t_final = model.occupancy_to_temperature(n_final, OMEGA_M)
    assert t_final == pytest.approx(0.350, rel=0.15)
    elapsed = timer.check()
    _report(
        2,
        f"rho/gamma_m = {t_rho:.1f} K, rho/Gamma_opt = {t_backaction * 1e3:.0f} mK, "
        f"n_final = {t_final * 1e3:.0f} mK ({elapsed:.2f}s)",
    )


def test_criterion_3_closed_form_linewidth_optimum():
    timer = Timer(5.0)
    rng = np.random.RandomState(31)
    for _ in range(100):
        n_sc = 10 ** rng.uniform(1, 7)
        kappa = 10 ** rng.uniform(-2, 6)
        eta = rng.uniform(0.05, 1.0)
        kappa1 = kappa * rng.uniform(0.05, 1.0)
        k_opt, n_min = cooling.optimal_linewidth_and_min(n_sc, kappa, eta, kappa1)
        res = minimize_scalar(
            lambda k: cooling.occupancy_vs_sideband_cooling(
                n_sc, kappa, k, 0.0, eta, kappa1
            ),
            bounds=(kappa * 1e-10, kappa),
            method="bounded",
            options={"xatol": kappa * 1e-14},
        )
        assert n_min == pytest.approx(float(res.fun), rel=1e-9)

    # high-temperature symmetric limit at unit efficiency: n ~ sqrt(2 n_sc).
    # The +-0.5% band opens at n_sc ~ 2e4; at exactly 1e4 the closed form
    # gives 140.4 against sqrt(2e4) = 141.4, a 0.7% gap.
    kappa = 2.0
    for n_sc in (2e4, 1e5, 1e6, 1e7, 1e8):
        _, n_min = cooling.optimal_linewidth_and_min(n_sc, kappa, 1.0, kappa / 2)
        assert 0.995 <= n_min / math.sqrt(2 * n_sc) <= 1.005
    _, n_min_1e4 = cooling.optimal_linewidth_and_min(1e4, kappa, 1.0, kappa / 2)
    assert 0.99 <= n_min_1e4 / math.sqrt(2e4) <= 1.005
    elapsed = timer.check()
    _report(3, f"100 brute-force draws at 1e-9; sqrt(2 n_sc) limit ({elapsed:.2f}s)")


def test_criterion_4_coherent_sum_reduction():
    timer = Timer(5.0)
    rng = np.random.RandomState(47)
    checked = 0
    worst = 0.0
    while checked < 100:
        kappa = rng.uniform(0.4, 2.5)
        p = CavityParams(
            kappa0=kappa, kappa1=0.0, kappa_prime=0.0, detuning=rng.uniform(-10, 10)
        )
        m = MechanicsParams(
            omega_m=rng.uniform(1.0, 12.0), gamma_m=1e-5, n_th=5.0,
            G=rng.uniform(1e-3, 1e-2),
        )
        fb = FeedbackConfig(
            port=Port.REFLECTION,
            phi=rng.uniform(-math.pi, math.pi),
            eta=1.0,
            gain=FlatDelay(
                rng.uniform(-0.5, 0.5), rng.uniform(0, 0.5),
                phase_offset=math.pi * rng.randint(2),
            ),
        )
        d = feedback.loop_denominator(p, fb, np.array([-m.omega_m, m.omega_m]))
        if np.min(np.abs(d)) < 0.05:
            continue
        rates = cooling.scattering_rates(p, m, fb)
        phi_q = model.detected_port(p, fb).cavity_angle
        direct = []
        for w in (-m.omega_m, m.omega_m):
            chi = complex(model.cavity_susceptibility(p, w))
            zeta = complex(model.zeta_out(p, fb, w))
            zeta_c = complex(model.zeta_cavity(p, 0.0, w))
            g = complex(fb.gain(w))
            bracket = 2 * g * zeta_c / (1 - 2 * g * zeta) * cmath.exp(1j * phi_q)
            direct.append(m.G**2 / (2 * p.kappa) * abs(chi + bracket.conjugate()) ** 2)
        worst = max(
            worst,
            abs(rates.a_plus - direct[0]) / max(direct[0], 1e-300),
            abs(rates.a_minus - direct[1]) / direct[1],
        )
        checked += 1
    assert worst <= 1e-10
    elapsed = timer.check()
    _report(4, f"100 draws, worst relative deviation {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_5_stokes_cancellation():
    timer = Timer(1.0)
    p = CavityParams(
        kappa0=KAPPA, kappa1=0.0, kappa_prime=0.0, detuning=TWO_PI * 330e3
    )
    m = MechanicsParams(omega_m=OMEGA_M, gamma_m=GAMMA_M, n_th=1e7, G=1e4)
    base = FeedbackConfig(port=Port.REFLECTION, phi=0.3, eta=1.0)
    gain_value = feedback.stokes_suppression_gain(p, base, OMEGA_M)
    gain = feedback.gain_model_at(OMEGA_M, gain_value)
    rates_ideal = cooling.scattering_rates(p, m, replace(base, gain=gain))
    ratio = rates_ideal.a_plus / rates_ideal.a_minus
    assert ratio < 1e-8
    residuals = {}
    for eta in (0.42, 0.36):
        rates = cooling.scattering_rates(p, m, replace(base, eta=eta, gain=gain))
        assert rates.a_plus > 0.0
        residuals[eta] = rates.a_plus / rates.a_minus
    elapsed = timer.check()
    _report(
        5,
        f"A+/A- = {ratio:.1e} at eta=1; "
        + ", ".join(f"{r:.1e} at eta={e}" for e, r in residuals.items())
        + f" ({elapsed:.2f}s)",
    )


def test_criterion_6_exact_vs_weak_coupling(experiment, fig1_optical, fig1_microwave):
    timer = Timer(120.0)
    lines = []
    for sys in (experiment, fig1_optical, fig1_microwave):
        m = replace(sys.mechanics, G=sys.mechanics.omega_m / 100.0)
        if sys.name == "experiment":
            # loop active but inside the adiabatic window Gamma_opt << kappa_eff
            # where the weak-coupling formulas are meaningful
            fb = sys.with_gain_norm(0.3)
        else:
            fb = sys.loop
        n_exact = langevin.phonon_occupancy(sys.cavity, m, fb)
        occ = cooling.occupancy_weak_coupling(
            m, cooling.scattering_rates(sys.cavity, m, fb)
        )
        rel = abs(n_exact - occ.n_final) / occ.n_final
        assert rel <= 0.05, (sys.name, rel)
        # thermal fixed point
        m0 = replace(m, G=0.0)
        n_thermal = langevin.phonon_occupancy(sys.cavity, m0, fb)
        assert n_thermal == pytest.approx(m.n_th, rel=1e-3)
        lines.append(f"{sys.name}: {rel * 100:.2f}%")
    elapsed = timer.check()
    _report(6, "; ".join(lines) + f"; G=0 gives n_th to 0.1% ({elapsed:.1f}s)")


@pytest.mark.parametrize("preset_name", ["fig1_optical", "fig1_microwave"])
def test_criterion_7_low_noise_optimum(preset_name, request):
    timer = Timer(600.0)
    sys = request.getfixturevalue(preset_name)
    p, m = sys.cavity, sys.mechanics
    scale = abs(feedback.stokes_suppression_gain(p, sys.loop, m.omega_m))
    n_nf = langevin.phonon_occupancy(
        p, m, replace(sys.loop, gain=replace(sys.loop.gain, amplitude=0.0))
    )
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
    ratio = n_nf / result.best_occupancy
    assert ratio >= 5.0
    # the optimum's delay margin is exact: the zero count flips from 0 to 2
    # across tau + margin
    p2, m2, fb2 = p, m, sys.loop
    for name, value in result.best_params.items():
        p2, m2, fb2 = optimize.apply_variable(p2, m2, fb2, name, value)
    tau, margin = fb2.gain.delay, result.delay_margin
    for factor, count in ((1.0 - 1e-6, 0), (1.0 + 1e-6, 2)):
        delayed = replace(fb2, gain=replace(fb2.gain, delay=tau + margin * factor))
        assert langevin._zero_count(p2, m2, delayed)[0] == count
    checks = [f"eta=1: {ratio:.1f}x, delay margin {margin:.4g} s"]
    for eta in (0.42, 0.36):
        res = optimize.minimize_occupancy(
            p, m, replace(sys.loop, eta=eta),
            free={
                "gain_amplitude": (0.02, 2.0 * scale),
                "homodyne_phase": (-math.pi, math.pi),
            },
            evaluator="langevin",
            coarse_points=7,
            max_cycles=2,
        )
        assert res.best_occupancy < n_nf
        checks.append(f"eta={eta}: {n_nf / res.best_occupancy:.2f}x")
    elapsed = timer.check()
    _report(7, f"{preset_name}: " + ", ".join(checks) + f" ({elapsed:.0f}s)")


def test_criterion_8_effective_cavity_identities():
    timer = Timer(10.0)
    # deep resolved sideband with negligible delay: threshold at gain_norm=1
    kappa = TWO_PI * 20e3
    p = CavityParams(
        kappa0=kappa / 2, kappa1=kappa / 2, kappa_prime=0.0, detuning=120 * kappa
    )
    probe = FeedbackConfig(gain=FlatDelay(1.0, 0.01 / kappa))
    t = feedback.open_loop_transfer(p, probe, p.detuning)
    phi = -cmath.phase(t)

    def loop_at(gain_norm):
        return FeedbackConfig(
            phi=phi, gain=FlatDelay(gain_norm / abs(t), 0.01 / kappa)
        )

    # (a) linewidth identity to machine precision across a gain sweep
    for gain_norm in np.linspace(-1.5, 1.5, 61):
        eff = feedback.effective_cavity(p, loop_at(float(gain_norm)))
        assert eff.kappa_eff == pytest.approx(
            p.kappa * (1 - eff.gain_norm), rel=1e-13, abs=1e-10
        )

    # (b) exact susceptibility peak and width reproduce the single-pole pair
    for gain_norm in (0.3, 0.6, 0.9):
        fb = loop_at(gain_norm)
        eff = feedback.effective_cavity(p, fb)
        w = np.linspace(p.detuning - 3 * kappa, p.detuning + 3 * kappa, 120001)
        mag2 = np.abs(feedback.effective_susceptibility(p, fb, w)) ** 2
        idx = int(np.argmax(mag2))
        assert abs(w[idx] - eff.delta_eff) <= 0.05 * eff.kappa_eff + (w[1] - w[0])
        above = np.flatnonzero(mag2 >= mag2[idx] / 2)
        width = (w[above[-1]] - w[above[0]]) / 2
        assert width == pytest.approx(eff.kappa_eff, rel=0.05)

    # (c) Nyquist verdict flips exactly where gain_norm crosses 1
    gain_norms = np.linspace(0.9, 1.1, 41)
    verdicts = [
        feedback.nyquist_stability(p, loop_at(float(g))).stable for g in gain_norms
    ]
    flip = int(np.argmin(verdicts))
    assert verdicts[0] and not verdicts[-1]
    step = gain_norms[1] - gain_norms[0]
    assert abs(gain_norms[flip] - 1.0) <= step + 1e-12
    elapsed = timer.check()
    _report(8, f"identity, peak/width at 5%, flip at {gain_norms[flip]:.3f} ({elapsed:.1f}s)")


def test_criterion_9_gain_sweep_shape(experiment):
    timer = Timer(600.0)
    sys = experiment
    p, m = sys.cavity, sys.mechanics

    delta_opt = feedback.optimal_bare_detuning(p, sys.with_gain_norm(1.0), m.omega_m)
    assert abs(delta_opt - TWO_PI * 329.4e3) <= TWO_PI * 2e3

    # loop phase margin realized by the preset at the optimal detuning
    p_opt = replace(p, detuning=delta_opt)
    phase = cmath.phase(
        feedback.open_loop_transfer(p_opt, sys.with_gain_norm(1.0), delta_opt)
    ) + sys.loop.phi
    assert phase == pytest.approx(-0.59, abs=0.02)

    gain_norms = np.linspace(0.0, 0.96, 25)
    values = []
    for g in gain_norms:
        report = optimize.evaluate(p, m, sys.with_gain_norm(float(g)), "langevin")
        values.append(report.n_final)
    values = np.array(values)
    finite = np.isfinite(values)
    assert finite[0]
    idx = int(np.nanargmin(np.where(finite, values, np.nan)))
    assert 0 < idx < len(gain_norms) - 1  # interior minimum: U shape
    assert np.all(np.diff(values[: idx + 1]) < 0)  # falling branch
    rising = values[idx:][np.isfinite(values[idx:])]
    assert np.all(np.diff(rising) > 0)  # rising branch up to instability
    g_star = gain_norms[idx]
    assert 0.80 <= g_star <= 0.95  # near the reported optimal gain
    reduction_db = 10 * math.log10(values[0] / values[idx])
    assert 6.0 <= reduction_db <= 9.0
    elapsed = timer.check()
    _report(
        9,
        f"minimum {reduction_db:.2f} dB below no feedback at gain_norm={g_star:.3f}, "
        f"delta_opt={delta_opt / TWO_PI / 1e3:.2f} kHz ({elapsed:.0f}s)",
    )


def test_criterion_10_ingestion_round_trip():
    timer = Timer(1.0)
    kappa = TWO_PI * 20.15e3
    p = CavityParams(
        kappa0=kappa / 2, kappa1=kappa / 2, kappa_prime=0.0, detuning=TWO_PI * 330e3
    )
    corner = TWO_PI * 150e3
    delay = 750e-9

    def electronics(omega):
        omega = np.asarray(omega, dtype=float)
        hp = 1j * omega / (1j * omega + corner)
        return -0.8 * hp * np.exp(1j * omega * delay)

    f = np.linspace(10e3, 4e6, 4000)
    trace = ingest.compose_open_loop(electronics, p, Port.TRANSMISSION, f)
    filt = ingest.decompose_electronic_filter(trace, p, Port.TRANSMISSION)
    back = ingest.compose_open_loop(filt, p, Port.TRANSMISSION, f)
    np.testing.assert_allclose(back.values(), trace.values(), rtol=1e-9)

    fitted_delay = ingest.delay_from_phase(filt, (TWO_PI * 2e6, TWO_PI * 4e6))
    assert fitted_delay == pytest.approx(delay, abs=20e-9)

    from scipy.optimize import curve_fit

    popt, _ = curve_fit(
        lambda w, amp, wc: np.log(amp * w / np.hypot(w, wc)),
        filt.omega,
        np.log(np.abs(filt.values)),
        p0=(1.0, TWO_PI * 1e5),
    )
    assert popt[1] == pytest.approx(corner, rel=0.10)
    elapsed = timer.check()
    _report(
        10,
        f"round trip 1e-9, delay {fitted_delay * 1e9:.1f} ns, "
        f"corner {popt[1] / TWO_PI / 1e3:.1f} kHz ({elapsed:.2f}s)",
    )
