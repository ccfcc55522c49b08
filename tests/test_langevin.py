import ast
import itertools
import math
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import closed_form
from loopcool import cooling, feedback, langevin, model, optimize, presets, quasipoly
from loopcool.errors import (
    ConvergenceError,
    FitError,
    InstabilityBoundaryError,
    LoopcoolError,
    OptomechanicalInstabilityError,
    ValidationError,
)
from loopcool.model import (
    CavityParams, FeedbackConfig, FlatDelay, MechanicsParams, Port, Tabulated,
)
from loopcool.spectra import Spectrum

TWO_PI = 2 * math.pi


def toy_system(coupling=0.0, gain=0.0, detuning=5.0, eta=0.8, port=Port.TRANSMISSION):
    p = CavityParams(kappa0=1.0, kappa1=0.7, kappa_prime=0.05, detuning=detuning)
    m = MechanicsParams(omega_m=5.0, gamma_m=1e-3, n_th=12.5, G=coupling)
    fb = FeedbackConfig(
        port=port, phi=0.2, eta=eta, gain=FlatDelay(gain, 0.05, math.pi)
    )
    return p, m, fb


#: unit weights selecting one unknown of x = (a, a_conj, b, b_conj, i_fb)
A, A_CONJ, B, B_CONJ, I_FB = np.eye(5)
#: conjugation swaps a <-> a_conj and b <-> b_conj among the unknowns ...
PARTNER_UNKNOWN = [1, 0, 3, 2, 4]
#: ... and each noise with its partner (x_vac is its own partner)
PARTNER_NOISE = [1, 0, 3, 2, 5, 4, 7, 6, 8]


def dense_rows(p, m, fb, omega, weights):
    """Oracle for solve_rows: the batched dense 5x5 solve of M^T y = c,
    LAPACK with partial pivoting, then K = y N."""
    entries, noise, g = closed_form.system_entries(p, m, fb, omega)
    mat_t = np.zeros((g.size, 5, 5), dtype=complex)
    for (i, j), value in entries.items():
        mat_t[:, j, i] = value
    rhs = np.broadcast_to(np.asarray(weights, dtype=complex), (g.size, 5))
    return np.linalg.solve(mat_t, rhs[..., None])[..., 0] @ noise


class TestSolveRows:
    def test_decoupled_oscillator_row(self):
        p, m, fb = toy_system(coupling=0.0, gain=0.0)
        w = np.array([4.0, 5.0, 6.0])
        row = langevin.solve_rows(p, m, fb, w, B)
        expected = math.sqrt(m.gamma_m) / (m.gamma_m / 2 + 1j * (m.omega_m - w))
        np.testing.assert_allclose(row[:, 6], expected, rtol=1e-14)
        other = row[:, [0, 1, 2, 3, 4, 5, 7, 8]]
        np.testing.assert_allclose(other, 0.0, atol=1e-16)

    def test_residuals_of_linear_system(self, rng):
        p, m, fb = toy_system(coupling=0.3, gain=0.4, port=Port.REFLECTION)
        w = rng.uniform(-10, 10, size=7)
        row_a, row_ac, row_b = (
            langevin.solve_rows(p, m, fb, w, unit) for unit in (A, A_CONJ, B)
        )
        # re-assemble one equation: mechanical row must balance exactly
        lhs = (
            (m.gamma_m / 2 + 1j * (m.omega_m - w))[:, None] * row_b
            - 1j * m.G * row_a
            - 1j * m.G * row_ac
        )
        rhs = np.zeros((w.size, 9), complex)
        rhs[:, 6] = math.sqrt(m.gamma_m)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_reality_structure(self, rng):
        # the partner observable's row at -w is the conjugate of the row at
        # +w with every noise channel swapped for its partner
        p, m, fb = toy_system(coupling=0.2, gain=0.3, port=Port.REFLECTION)
        w = rng.uniform(0.1, 10, size=5)
        unknowns = {"a": A, "a_conj": A_CONJ, "b": B, "b_conj": B_CONJ, "i_fb": I_FB}
        for name, c in {**unknowns, **langevin.OBSERVABLES}.items():
            row_pos = langevin.solve_rows(p, m, fb, w, c)
            row_neg = langevin.solve_rows(p, m, fb, -w, c[PARTNER_UNKNOWN])
            np.testing.assert_allclose(
                row_neg,
                np.conjugate(row_pos)[:, PARTNER_NOISE],
                atol=1e-12,
                err_msg=name,
            )

    def test_open_loop_photocurrent_prediction(self):
        # g_fb = 0, negligible coupling: the photocurrent rows follow from
        # the bare input-output relations; check the drive-channel
        # coefficient against the model response functions (transmission,
        # off the mechanical resonance)
        p, m, fb = toy_system(coupling=1e-6, gain=0.0)
        w = np.array([3.0, 6.5, 8.0])
        row = langevin.solve_rows(p, m, fb, w, langevin.OBSERVABLES["i_fb"])
        theta, _ = model.input_phase_shifts(p)
        chi = model.cavity_susceptibility(p, w)
        predicted = (
            math.sqrt(fb.eta)
            * np.exp(1j * fb.phi)
            * math.sqrt(p.kappa0 * p.kappa1)
            / p.kappa
            * chi
            * np.exp(-1j * theta)
        )
        np.testing.assert_allclose(row[:, 0], predicted, rtol=1e-8)

    def test_empty_cavity_photocurrent_matches_squash(self, rng):
        # the flat gain and a traced copy of it (the draws stay inside the
        # trace), at unit and lower detection efficiency
        f = np.geomspace(1e-3, 20.0, 4000)
        for port, eta in itertools.product(Port, (1.0, 0.8, 0.3)):
            p, m, fb = toy_system(coupling=0.0, gain=0.35, eta=eta, port=port)
            tabulated = replace(fb, gain=Tabulated(f, fb.gain(f)))
            w = rng.uniform(-12, 12, size=80)
            w = w[np.abs(w) > 1e-3]
            for loop in (fb, tabulated):
                s_exact = langevin.observable_spectrum(p, m, loop, w, "i_fb")
                s_closed = closed_form.squash_spectrum(p, loop, w)
                np.testing.assert_allclose(s_exact, s_closed, rtol=1e-10)

    def test_empty_cavity_quadrature_matches_rate_spectrum(self, rng):
        for port in Port:
            p, m, fb = toy_system(coupling=0.0, gain=0.3, port=port)
            w = rng.uniform(-12, 12, size=80)
            s_exact = langevin.observable_spectrum(p, m, fb, w, "x_cavity")
            s_closed = closed_form.cavity_quadrature_spectrum(p, fb, w)
            np.testing.assert_allclose(s_exact, s_closed, rtol=1e-10)

    # w = +-omega_m is a node of every occupancy quadrature; there 1/d_b or
    # 1/d_bc is ~omega_m/gamma_m.  An elimination that forms the self-energy
    # G^2 (1/d_bc - 1/d_b) loses up to 7e-10 of the spectrum on fig1_microwave,
    # and (c3 + iG D) / d_bc up to 1e-11; LAPACK is exact there to 1e-15
    @pytest.mark.parametrize("port", list(Port), ids=lambda port: port.value)
    @pytest.mark.parametrize("name", ["experiment", "fig1_optical", "fig1_microwave"])
    def test_spectra_match_dense_solve_on_mechanical_resonance(self, name, port):
        sys = presets.get_system(name)
        p, m0 = sys.cavity, sys.mechanics
        fb = replace(sys.loop, port=port)
        w = m0.omega_m * np.array([-1.0, 1.0, -1.0 - 1e-7, 1.0 + 1e-7, 0.5, 2.0])
        weights = langevin.noise_weights(m0.n_th)
        for scale in (0.0, 0.3, 1.0, 3.0):
            m = replace(m0, G=scale * m0.G)
            for observable, c in langevin.OBSERVABLES.items():
                s = np.abs(langevin.solve_rows(p, m, fb, w, c)) ** 2 @ weights
                expected = np.abs(dense_rows(p, m, fb, w, c)) ** 2 @ weights
                np.testing.assert_allclose(
                    s, expected, rtol=1e-12, err_msg=f"{observable} G x {scale}"
                )

    # each weight is either exactly 0, which leaves its terms out of the
    # cofactor sums, or a random complex number; G = 0 leaves out the terms
    # that carry G.  Rows are compared on each frequency's scale: entries that
    # vanish in exact arithmetic are rounding noise in the dense solve
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(["experiment", "fig1_optical", "fig1_microwave"]),
        port=st.sampled_from(list(Port)),
        coupling=st.sampled_from([0.0, 1e-3, 1.0, 3.0]),
        weights=st.lists(
            st.one_of(st.just(0j), st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0)),
            min_size=5, max_size=5,
        ),
        drawn=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    )
    def test_zero_weight_patterns_match_dense_solve(self, name, port, coupling, weights, drawn):
        sys = presets.get_system(name)
        p, m0 = sys.cavity, sys.mechanics
        m = replace(m0, G=coupling * m0.G)
        fb = replace(sys.loop, port=port)
        w = np.concatenate([
            m0.omega_m * np.array([-1.0, 1.0, -1.0 - 1e-7, 1.0 + 1e-7, *drawn]),
            [p.detuning, -p.detuning, 0.0],
        ])
        expected = dense_rows(p, m, fb, w, weights)
        scale = np.abs(expected).max(axis=1, keepdims=True)
        scale[scale == 0.0] = 1.0  # all weights 0: both rows are 0
        np.testing.assert_allclose(
            langevin.solve_rows(p, m, fb, w, weights) / scale, expected / scale,
            rtol=1e-11, atol=1e-11,
        )

    def test_vanishing_photocurrent_diagonal(self, rng):
        # reflection with 2 sqrt(eta) A cos(phi - theta_bar) = -1 and no
        # delay: M44 = 1 + 2 sqrt(eta) g cos psi is exactly 0 at every real
        # w while M stays regular, so nothing may pivot on it
        p, m, _ = toy_system(coupling=0.3)
        _theta, theta_bar = model.input_phase_shifts(p)
        fb = FeedbackConfig(
            port=Port.REFLECTION, phi=theta_bar, eta=1.0, gain=FlatDelay(-0.5)
        )
        w = np.concatenate([rng.uniform(-12, 12, size=40), [-m.omega_m, m.omega_m]])
        entries, _, _ = closed_form.system_entries(p, m, fb, w)
        assert np.all(entries[4, 4] == 0.0)
        for c in (A, A_CONJ, B, B_CONJ, I_FB, *langevin.OBSERVABLES.values()):
            np.testing.assert_allclose(
                langevin.solve_rows(p, m, fb, w, c),
                dense_rows(p, m, fb, w, c),
                rtol=1e-11,
                atol=1e-13,
            )

    def test_singular_system_raises_typed_error(self):
        # empty cavity loop exactly at threshold: kappa = 1, s0 = s1 = 1,
        # eta = 1 and g = 1/2 give det M(0) = 0 in exact arithmetic, so w =
        # 0 sits on a pole; at w = 1e200 det M, of degree 4 in w, overflows to
        # inf/nan
        p = CavityParams(kappa0=0.5, kappa1=0.5, kappa_prime=0.0, detuning=0.0)
        m = MechanicsParams(omega_m=5.0, gamma_m=1e-3, n_th=12.5, G=0.0)
        fb = FeedbackConfig(port=Port.TRANSMISSION, phi=0.0, eta=1.0, gain=FlatDelay(0.5))
        for w in ([1.0, 0.0], [1.0, 1e200]):
            for c in (A, I_FB, langevin.OBSERVABLES["n_mech"]):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(
                        OptomechanicalInstabilityError, match="singular closed-loop system"
                    ):
                        langevin.solve_rows(p, m, fb, np.array(w), c)

    def test_vacuum_photocurrent_is_shot_noise(self):
        p, m, fb = toy_system(coupling=0.0, gain=0.0, eta=0.55)
        w = np.linspace(-9, 9, 31)
        np.testing.assert_allclose(
            langevin.observable_spectrum(p, m, fb, w, "i_fb"), 1.0, rtol=1e-12
        )


class TestClosedLoopDeterminant:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        w=st.floats(-30.0, 30.0),
        coupling=st.floats(0.0, 2.0),
        gain=st.floats(-1.5, 1.5),
        phi=st.floats(-math.pi, math.pi),
        eta=st.floats(0.0, 1.0),
        delay=st.floats(0.0, 1.0),
        port=st.sampled_from(list(Port)),
    )
    def test_matches_determinant_of_solved_system(
        self, w, coupling, gain, phi, eta, delay, port
    ):
        p, m, _ = toy_system(coupling=coupling)
        fb = FeedbackConfig(port=port, phi=phi, eta=eta, gain=FlatDelay(gain, delay))
        entries, _, _ = closed_form.system_entries(p, m, fb, w)
        mat = np.zeros((5, 5), dtype=complex)
        for (i, j), value in entries.items():
            mat[i, j] = np.ravel(value)[0]
        diag = mat[0, 0] * mat[1, 1] * mat[2, 2] * mat[3, 3]
        det = np.linalg.det(mat)
        r = langevin.closed_loop_determinant(p, m, fb, w)
        np.testing.assert_allclose(r, det / diag, rtol=1e-10)
        # the delay-crossing count reads the same det M as P + g Q at w / s
        parts = langevin._DetParts(p, m, fb)
        p_val, q_val, _, _ = parts(w / parts.scale)
        np.testing.assert_allclose(p_val + complex(fb.gain(w)) * q_val, det, rtol=1e-10)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        gain=st.floats(-1.5, 1.5),
        phi=st.floats(-math.pi, math.pi),
        eta=st.floats(0.0, 1.0),
        delay=st.floats(0.0, 1.0),
        port=st.sampled_from(list(Port)),
    )
    def test_is_loop_denominator_without_coupling(self, gain, phi, eta, delay, port):
        # R is the elimination's loop / (d_a d_ac), the same D as feedback's
        # 1 - 2 sqrt(eta) zeta_out g formula up to rounding
        p, m, _ = toy_system(coupling=0.0)
        fb = FeedbackConfig(port=port, phi=phi, eta=eta, gain=FlatDelay(gain, delay))
        w = np.linspace(-30.0, 30.0, 601)
        r = langevin.closed_loop_determinant(p, m, fb, w)
        np.testing.assert_allclose(r, feedback.loop_denominator(p, fb, w), rtol=1e-13)


def strong_coupling_case(name, coupling, detuning, amplitude, phi):
    """Preset system with G, Delta in units of omega_m and the loop's gain
    amplitude and homodyne phase replaced."""
    sys = presets.get_system(name)
    omega_m = sys.mechanics.omega_m
    p = replace(sys.cavity, detuning=detuning * omega_m)
    m = replace(sys.mechanics, G=coupling * omega_m)
    fb = replace(sys.loop, phi=phi, gain=replace(sys.loop.gain, amplitude=amplitude))
    return p, m, fb


class TestClosedLoopStability:
    # settings that a Nyquist test of the empty-cavity loop plus a Lorentzian
    # fit of the trial spectrum reported stable (finite occupancies 0.340,
    # 0.985, 13.9, 13.4) although closed-loop poles sit in the upper half
    # plane: the zeros of R in omega_m units, the first three purely
    # imaginary (static runaways no Lorentzian around omega_m can show)
    @pytest.mark.parametrize(
        "case",
        [
            ("fig1_optical", 0.6, 0.5, 0.479, math.pi / 2),  # +0.346i
            ("fig1_optical", 0.477, 1.021, 0.4996, 1.491),  # +0.0751i
            ("fig1_microwave", 0.597, 0.834, 0.0661, -1.628),  # +0.00896i
            ("fig1_microwave", 0.508, 1.077, 0.3113, 0.446),  # +-0.857 + 0.0113i
        ],
        ids=["optical-a", "optical-b", "microwave-a", "microwave-b"],
    )
    def test_strong_coupling_runaway_is_unstable(self, case):
        p, m, fb = strong_coupling_case(*case)
        assert langevin.closed_loop_stability(p, m, fb) is False
        report = optimize.evaluate(p, m, fb, "langevin")
        assert report.stable is False
        assert report.n_final == math.inf
        quiet = replace(fb, gain=replace(fb.gain, amplitude=0.0))
        assert langevin.closed_loop_stability(p, m, quiet) is True

    @pytest.mark.parametrize(
        "name", ["experiment", "experiment_empty", "fig1_optical", "fig1_microwave"]
    )
    def test_preset_points_are_stable(self, name):
        sys = presets.get_system(name)
        assert langevin.closed_loop_stability(sys.cavity, sys.mechanics, sys.loop) is True

    def test_experiment_gain_threshold(self, experiment):
        sys = experiment
        p, m = sys.cavity, sys.mechanics
        assert langevin.closed_loop_stability(p, m, sys.with_gain_norm(0.9)) is True
        assert langevin.closed_loop_stability(p, m, sys.with_gain_norm(1.05)) is False


@st.composite
def flat_loops(draw, max_strength=1.5, max_ratio=0.9, min_strength=0.0):
    """Random closed loop in units of omega_m: either port, G from 1e-5 to
    0.6, loop strength 2 sqrt(eta) |zeta_out A| at the cavity resonance from
    `min_strength` to `max_strength`, direct-path ratio at most `max_ratio`."""
    port = draw(st.sampled_from(list(Port)))
    p = CavityParams(
        kappa0=draw(st.floats(0.02, 0.6)),
        kappa1=draw(st.floats(0.01, 0.5)),
        kappa_prime=draw(st.floats(0.0, 0.05)),
        detuning=draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.2, 1.8)),
    )
    m = MechanicsParams(
        omega_m=1.0,
        gamma_m=10.0 ** draw(st.floats(-10.0, -3.0)),
        n_th=10.0,
        G=10.0 ** draw(st.floats(-5.0, math.log10(0.6))),
    )
    fb = FeedbackConfig(
        port=port,
        phi=draw(st.floats(-math.pi, math.pi)),
        eta=draw(st.floats(0.05, 1.0)),
        gain=FlatDelay(1.0),
    )
    strength = draw(st.floats(min_strength, max_strength))
    amplitude = strength / (2.0 * math.sqrt(fb.eta) * abs(model.zeta_out(p, fb, abs(p.detuning))))
    gain = FlatDelay(
        amplitude, draw(st.floats(0.0, 5.0)), draw(st.sampled_from([0.0, math.pi]))
    )
    fb = replace(fb, gain=gain)
    assume(model.direct_ratio(p, fb) <= max_ratio)
    return p, m, fb


def short_delay_neutral_loop(tau):
    """A reflection loop of neutral type (direct ratio above 1), stable at
    tau = 0, in units of omega_m."""
    p = CavityParams(kappa0=0.02, kappa1=0.01, kappa_prime=0.05, detuning=0.9832443963788964)
    m = MechanicsParams(omega_m=1.0, gamma_m=1e-6, n_th=10.0, G=1e-4)
    gain = FlatDelay(6.048726571822376, tau, 0.0)
    return p, m, FeedbackConfig(Port.REFLECTION, phi=0.8253462493365822, eta=0.05, gain=gain)


@st.composite
def near_neutral_loops(draw, max_log_gap=-1.5):
    """A reflection loop drawn as in flat_loops, its direct-path ratio moved
    to 1 -+ gap, gap from 1e-15 to 10^max_log_gap, at tau = 0 or at its drawn
    delay: on the neutral boundary up to a gap of quasipoly.NEUTRAL_TOL, off it past."""
    p, m, fb = draw(flat_loops(max_ratio=math.inf))
    fb = replace(fb, port=Port.REFLECTION, gain=replace(fb.gain, amplitude=1.0))
    gap = 10.0 ** draw(st.floats(-15.0, max_log_gap))
    amplitude = (1.0 + draw(st.sampled_from([-1.0, 1.0])) * gap) / model.direct_ratio(p, fb)
    assume(amplitude <= model.MAX_GAIN)
    delay = draw(st.sampled_from([0.0, fb.gain.delay]))
    return p, m, replace(fb, gain=replace(fb.gain, amplitude=amplitude, delay=delay))


#: the two loops a rounding-decided neutral test counted stable: a direct
#: ratio within an ulp of 1, where the crossing probe read NaN (first) and
#: where the sign of a root near 5e15 i hung on polishing (second)
ROUNDED_NEUTRAL_LOOPS = [
    (
        CavityParams(0.23209227321303258, 0.20375125325013443, 0.011529731832936076,
                     -0.4955816620385258),
        MechanicsParams(1.0, 2.1951601552490525e-07, 10.0, G=0.0005042657638311589),
        FeedbackConfig(Port.REFLECTION, -1.628373244092803, 0.6022058311487298,
                       FlatDelay(-0.9753675453934559)),
    ),
    (
        CavityParams(0.1636030247682114, 0.3417529252226422, 0.01727877668512859,
                     -0.3039019017505128),
        MechanicsParams(1.0, 2.258705444784412e-05, 10.0, G=0.0010074635769662678),
        FeedbackConfig(Port.REFLECTION, 1.5618187227695497, 0.8903668320157402,
                       FlatDelay(1.1405368588284863)),
    ),
]


@st.composite
def mechanical_crossing_loops(draw):
    """Random flat loop whose delay crossings tend to lie within a few gamma_m
    of omega_m: high Q (gamma_m from 1e-9 to 1e-5 omega_m) and G^2 / kappa
    from 0.3 to 30 gamma_m, so the optical damping is a few gamma_m.  In 15
    of the 60 examples below a crossing lies within 10 gamma_m of omega_m,
    where the bracketed Newton steps stop on convergence."""
    p, m, fb = draw(flat_loops())
    gamma_m = 10.0 ** draw(st.floats(-9.0, -5.0))
    ratio = 10.0 ** draw(st.floats(-0.5, 1.5))
    return p, replace(m, gamma_m=gamma_m, G=math.sqrt(ratio * gamma_m * p.kappa)), fb


def box_zero_count(p, m, fb, half_width, height):
    """Zeros of det M(w) inside the box |Re w| < half_width, 0 < Im w <
    height, by the argument principle, independently of the kernel: every
    entry of M is affine in w apart from g, so M(w) = M0 + w M1 + g(w) Mg
    with M0, M1, Mg read from system_entries at w = 0, 1 and g = 0, 1, and
    g(w) = c e^{i tau w} continues to complex w."""

    def assemble(gain):
        entries, _, _ = closed_form.system_entries(p, m, replace(fb, gain=gain), [0.0, 1.0])
        mat = np.zeros((2, 5, 5), dtype=complex)
        for (i, j), value in entries.items():
            mat[:, i, j] = value
        return mat

    off, on = assemble(FlatDelay(0.0)), assemble(FlatDelay(1.0))
    m0, m1, mg = off[0], off[1] - off[0], on[0] - off[0]
    c, tau = complex(fb.gain(0.0)), fb.gain.delay

    def edge(t):
        # counter-clockwise perimeter, t in [0, 4]: real axis, right side,
        # top, left side
        t = np.asarray(t, dtype=float)
        x, y = half_width, height
        return np.select(
            [t <= 1.0, t <= 2.0, t <= 3.0],
            [-x + 2.0 * x * t + 0j, x + 1j * y * (t - 1.0), x - 2.0 * x * (t - 2.0) + 1j * y],
            -x + 1j * y * (4.0 - t),
        )

    def det(t):
        w = edge(t)[..., None, None]
        return np.linalg.det(m0 + w * m1 + c * np.exp(1j * tau * w) * mg)

    # dense real-axis samples, geometric in gamma_m around +-omega_m
    offsets = m.gamma_m * 10.0 ** np.arange(-3.0, 5.0)
    features = np.concatenate([s * m.omega_m + d for s in (-1, 1) for d in (-offsets, offsets)])
    on_axis = (features[np.abs(features) < half_width] + half_width) / (2.0 * half_width)
    t = np.union1d(np.linspace(0.0, 4.0, 8001), on_axis)
    return feedback.winding_verdict(det, t).winding_number


class TestDelayCrossingCount:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(loop=flat_loops())
    def test_matches_argument_principle(self, loop):
        p, m, fb = loop
        scale = max(abs(p.detuning), m.omega_m, p.kappa)
        count = langevin._zero_count(p, m, fb)[0]
        assert count == box_zero_count(p, m, fb, 6.0 * scale, 3.0 * scale)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(loop=mechanical_crossing_loops())
    def test_mechanical_crossings_match_argument_principle(self, loop):
        p, m, fb = loop
        scale = max(abs(p.detuning), m.omega_m, p.kappa)
        count = langevin._zero_count(p, m, fb)[0]
        assert count == box_zero_count(p, m, fb, 6.0 * scale, 3.0 * scale)

    @pytest.mark.parametrize(
        "loops", [flat_loops(), near_neutral_loops()], ids=["flat", "near_neutral"]
    )
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), top=st.floats(0.0, 29.99))
    def test_count_is_free_of_the_rate_scale(self, loops, data, top):
        # every rate times s and the delay over s move each zero of det M
        # from w to s w, so the count stays, whether the largest rate is 1
        # rad/s or MAX_RATE, and no product of the crossing test overflows;
        # a pole on the real axis or the neutral boundary is an outcome too,
        # which a direct-path ratio within 1e-5 of 1 made scale-dependent
        # when rounding decided it
        def outcome(p, m, fb):
            try:
                return langevin._zero_count(p, m, fb)[0]
            except InstabilityBoundaryError:
                return "boundary"

        p, m, fb = data.draw(loops)
        cavity = {k: getattr(p, k) for k in ("kappa0", "kappa1", "kappa_prime", "detuning")}
        mechanics = {k: getattr(m, k) for k in ("omega_m", "gamma_m", "G")}
        s = 10.0**top / max(abs(v) for v in (*cavity.values(), *mechanics.values()))
        p2 = replace(p, **{k: s * v for k, v in cavity.items()})
        m2 = replace(m, **{k: s * v for k, v in mechanics.items()})
        fb2 = replace(fb, gain=replace(fb.gain, delay=fb.gain.delay / s))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scaled, unscaled = outcome(p2, m2, fb2), outcome(p, m, fb)
        assert scaled == unscaled

    @pytest.mark.parametrize("max_strength", [4.0, 1.5])
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_decoupled_loop_is_nyquist(self, max_strength, data):
        # the flat-gain Nyquist test and the exact G = 0 count agree on
        # strongly driven loops and on the default draws, which cluster
        # near threshold, not only at the benchmark's lattice points
        p, m, fb = data.draw(flat_loops(max_strength=max_strength))
        stable = feedback.nyquist_stability(p, fb).stable
        assert langevin.closed_loop_stability(p, replace(m, G=0.0), fb) is stable

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(loop=flat_loops(min_strength=1.0))
    def test_delay_margin_is_the_next_unstable_delay(self, loop):
        # the count is 0 just short of tau + margin and at least 2 just past
        # it; an unstable loop has no margin.  A loop strength of 1 or more
        # has crossings, so the margin is finite wherever the loop is stable
        # (26 of these 100 loops)
        p, m, fb = loop
        margin = langevin.delay_margin(p, m, fb)
        assert (margin > 0.0) is langevin.closed_loop_stability(p, m, fb)
        if 0.0 < margin < math.inf:
            tau = fb.gain.delay
            below, above = (
                replace(fb, gain=replace(fb.gain, delay=tau + margin * factor))
                for factor in (1.0 - 1e-6, 1.0 + 1e-6)
            )
            assert langevin._zero_count(p, m, below)[0] == 0
            assert langevin._zero_count(p, m, above)[0] >= 2

    def test_delay_margin_without_a_delay_to_tune(self, fig1_optical):
        sys = fig1_optical
        p, m = sys.cavity, sys.mechanics
        quiet = replace(sys.loop, gain=replace(sys.loop.gain, amplitude=0.0))
        assert langevin.delay_margin(p, m, quiet) == math.inf
        omega = np.linspace(1e3, 1e9, 64)
        tabulated = replace(sys.loop, gain=Tabulated(omega, 0.1 + 0j * omega))
        assert math.isnan(langevin.delay_margin(p, m, tabulated))

    def test_delay_margin_makes_one_crossing_pass(self, monkeypatch, fig1_optical):
        # the margin and the zero count it rests on come from one set of
        # parts and one crossing search, here on a stable loop with crossings
        sys = fig1_optical
        p, m = sys.cavity, sys.mechanics
        amplitude = 0.5 * abs(feedback.stokes_suppression_gain(p, sys.loop, m.omega_m))
        fb = replace(sys.loop, gain=replace(sys.loop.gain, amplitude=amplitude))
        calls = {}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return original(*args)

            return wrapper

        for module, name in ((langevin, "_DetParts"), (quasipoly, "_crossing_frequencies")):
            monkeypatch.setattr(module, name, counted(module, name))
        assert 0.0 < langevin.delay_margin(p, m, fb) < math.inf
        assert calls == {"_DetParts": 1, "_crossing_frequencies": 1}

    @pytest.mark.parametrize("name", ["experiment", "fig1_optical"])
    def test_delay_on_its_own_margin_sits_on_a_crossing(self, request, name):
        # the loop delayed by exactly its margin has a pole pair on the real
        # axis: the stability test raises, the margin is 0 and the exact
        # evaluator reports the loop unstable
        sys = request.getfixturevalue(name)
        p, m = sys.cavity, sys.mechanics
        if name == "experiment":
            fb = sys.with_gain_norm(0.85)
        else:
            amplitude = 0.5 * abs(feedback.stokes_suppression_gain(p, sys.loop, m.omega_m))
            fb = replace(sys.loop, gain=replace(sys.loop.gain, amplitude=amplitude))
        margin = langevin.delay_margin(p, m, fb)
        assert 0.0 < margin < math.inf
        on = replace(fb, gain=replace(fb.gain, delay=fb.gain.delay + margin))
        with pytest.raises(InstabilityBoundaryError) as raised:
            langevin.closed_loop_stability(p, m, on)
        assert str(raised.value) == "loop delay sits on a closed-loop pole crossing"
        assert langevin.delay_margin(p, m, on) == 0.0
        assert optimize.evaluate(p, m, on, "langevin").stable is False

    def test_weak_coupling_mechanical_crossings(self, fig1_optical):
        # crossings within ~gamma_m of omega_m: an evaluation of the expanded
        # coefficients of |P|^2 - |c|^2 |Q|^2 counts -1 zeros here
        omega_m = fig1_optical.mechanics.omega_m
        p = replace(fig1_optical.cavity, detuning=0.9897144959094339 * omega_m)
        m = replace(
            fig1_optical.mechanics,
            G=1.1565951037832985e-4 * omega_m,
            gamma_m=1.1381363528628408e-6 * omega_m,
        )
        fb = replace(
            fig1_optical.loop,
            phi=-0.3594680053165016,
            eta=0.21718823219160763,
            gain=FlatDelay(0.5957231017838691, 3.360158059968303e-08),
        )
        assert langevin.closed_loop_stability(p, m, fb) is True

    # experiment system, red-detuned, G < 1e-3 omega_m: the crossings lie
    # within a few gamma_m of omega_m, which the roots of |P|^2 - |c|^2 |Q|^2
    # expanded about w = 0 do not resolve.  The mechanical zero of det M sits
    # at Im w = -0.134 gamma_m (stable) and +0.490 gamma_m (unstable).
    @pytest.mark.parametrize(
        "detuning, gamma_m, coupling, phi, eta, gain, stable",
        [
            (-2602777.5195220425, 3.3493222104010933, 1696.851174262114,
             1.854728546979148, 0.7813890152776057,
             FlatDelay(0.4321242256102605, 1.7302726145129193e-06, math.pi), True),
            (-2463007.7984330077, 1.1813025082580466, 752.4198078784801,
             1.006653745754842, 0.5742594486662428,
             FlatDelay(0.7828615168641846, 6.893593238720507e-07), False),
        ],
        ids=["stable", "unstable"],
    )
    def test_mechanical_crossings_near_omega_m(
        self, experiment, detuning, gamma_m, coupling, phi, eta, gain, stable
    ):
        p = replace(experiment.cavity, detuning=detuning)
        m = replace(experiment.mechanics, gamma_m=gamma_m, G=coupling)
        fb = FeedbackConfig(port=Port.TRANSMISSION, phi=phi, eta=eta, gain=gain)
        assert langevin.closed_loop_stability(p, m, fb) is stable

    @pytest.mark.parametrize("port", list(Port), ids=lambda port: port.value)
    @pytest.mark.parametrize("name", ["experiment", "fig1_optical", "fig1_microwave"])
    def test_parts_read_at_unit_gain_only(self, name, port):
        # column 4 of M at g = 0 is exactly (0, 0, 1), so one read of M at
        # g = 1 gives the same constants as reading it at g = 0 and g = 1
        sys = presets.get_system(name)
        p, m = sys.cavity, sys.mechanics
        fb = replace(sys.loop, port=port)
        parts = langevin._DetParts(p, m, fb)
        grid = [0.0, parts.scale]
        off, _, _ = closed_form.system_entries(p, m, replace(fb, gain=FlatDelay(0.0)), grid)
        on, _, _ = closed_form.system_entries(p, m, replace(fb, gain=FlatDelay(1.0)), grid)

        def at_zero(value):
            return complex(np.ravel(value)[0])

        diag = [
            (complex(off[k, k][0]), complex(off[k, k][1] - off[k, k][0])) for k in range(4)
        ]
        assert parts.diag == diag
        assert (parts.kernel.m40, parts.kernel.m41) == (at_zero(off[4, 0]), at_zero(off[4, 1]))
        assert (parts.u0, parts.u1) == (at_zero(on[0, 4]), at_zero(on[1, 4]))
        assert parts.v == at_zero(on[4, 4]) - at_zero(off[4, 4])

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(loop=flat_loops(), x=st.complex_numbers(max_magnitude=3.0))
    def test_derivatives_match_central_difference(self, loop, x):
        # dP, dQ come from the expanded coefficients, P and Q from the
        # elimination; a central difference of a quartic is off by exactly
        # h^2 / 6 times its third derivative, which Richardson extrapolation
        # removes
        parts = langevin._DetParts(*loop)
        h = 1e-3

        def central(step):
            (p_hi, q_hi, _, _), (p_lo, q_lo, _, _) = parts(x + step), parts(x - step)
            return np.array([p_hi - p_lo, q_hi - q_lo]) / (2.0 * step)

        _, _, dp, dq = parts(x)
        richardson = (4.0 * central(h / 2.0) - central(h)) / 3.0
        t = abs(x - parts.center) + 1.0
        for derivative, coef, estimate in zip(
            (dp, dq), (parts.p_coef, parts.q_coef), richardson
        ):
            # scale: the coefficients' terms at |x - center| + 1
            scale = sum(abs(c) * t ** k for k, c in enumerate(coef[::-1]))
            assert abs(derivative - estimate) <= 1e-9 * scale

    def test_neutral_loop_is_unstable(self, fig1_optical):
        p, m = fig1_optical.cavity, fig1_optical.mechanics
        theta_fb = model.detected_port(p, fig1_optical.loop).theta
        fb = replace(
            fig1_optical.loop, phi=theta_fb, eta=1.0, gain=FlatDelay(-0.6, 1e-8)
        )
        assert model.direct_ratio(p, fb) == pytest.approx(1.2)
        assert langevin._zero_count(p, m, fb)[0] == math.inf
        assert langevin.closed_loop_stability(p, m, fb) is False
        report = optimize.evaluate(p, m, fb, "langevin")
        assert report.stable is False
        assert report.n_final == math.inf

    @pytest.mark.parametrize("evaluator", optimize.EVALUATORS)
    @pytest.mark.parametrize("tau", [1e-30, 1e-6, 1e-3, 0.01])
    def test_short_delay_neutral_loop_is_unstable(self, tau, evaluator):
        # any positive delay leaves infinitely many zeros in the upper half
        # plane (Hale & Verduyn Lunel 1993), however short it is; the weak
        # evaluator's sampled G = 0 winding misses them, its neutral-type
        # rule does not
        p, m, fb = short_delay_neutral_loop(tau)
        assert model.direct_ratio(p, fb) > 1.0
        report = optimize.evaluate(p, m, fb, evaluator)
        assert report.stable is False
        assert report.rates == cooling.scattering_rates(p, m, fb)
        if evaluator == "weak_coupling":
            assert report.warnings == ("unstable: delayed loop on or past the neutral boundary",)

    @pytest.mark.parametrize("evaluator", optimize.EVALUATORS)
    def test_undelayed_neutral_loop_is_stable(self, evaluator):
        # at tau = 0 the loop is the polynomial P + c Q, whose zeros decide
        p, m, fb = short_delay_neutral_loop(0.0)
        assert model.direct_ratio(p, fb) >= 1.0 - quasipoly.NEUTRAL_TOL
        assert optimize.evaluate(p, m, fb, evaluator).stable is True

    @settings(
        max_examples=200, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(loop=flat_loops(max_strength=4.0, max_ratio=3.0))
    def test_weak_verdict_of_delayed_neutral_loops(self, loop):
        # every delayed reflection loop of neutral type is weak-unstable,
        # however short its delay (25 of these 200 drew delays from 6e-215
        # to 0.01 that the sampled G = 0 winding alone called stable); about
        # one draw in 25 is such a loop, hence the filter
        p, m, fb = loop
        ratio = model.direct_ratio(p, fb)
        assume(fb.port is Port.REFLECTION and ratio >= 1.0 and fb.gain.delay > 0.0)
        assert ratio >= 1.0 - quasipoly.NEUTRAL_TOL
        assert optimize.evaluate(p, m, fb, "weak_coupling").stable is False

    def test_rounded_neutral_loop_is_a_boundary(self, experiment):
        # a direct ratio 6e-16 below 1, inside the neutral band, where
        # rounding left the crossing count negative (-2)
        p, m = experiment.cavity, experiment.mechanics
        fb = replace(
            experiment.loop, port=Port.REFLECTION, eta=0.3875837894349707,
            phi=-2.603865296693537, gain=FlatDelay(0.9020343333059879, 7.406897635804175e-07),
        )
        assert 1.0 - 1e-15 < model.direct_ratio(p, fb) < 1.0
        with pytest.raises(InstabilityBoundaryError, match="neutral boundary"):
            langevin.closed_loop_stability(p, m, fb)
        report = optimize.evaluate(p, m, fb, "langevin")
        assert report.stable is False
        assert report.n_final == math.inf

    @pytest.mark.parametrize("loop", ROUNDED_NEUTRAL_LOOPS, ids=["nan_probe", "polish_sign"])
    def test_loop_within_an_ulp_of_the_neutral_boundary_is_unstable(self, loop):
        with pytest.raises(InstabilityBoundaryError) as raised:
            langevin._zero_count(*loop)
        assert str(raised.value) == "loop on the neutral boundary"
        assert langevin.delay_margin(*loop) == 0.0
        for evaluator in optimize.EVALUATORS:
            assert optimize.evaluate(*loop, evaluator).stable is False, evaluator

    @pytest.mark.parametrize("evaluator", optimize.EVALUATORS)
    def test_delayed_loop_inside_the_neutral_band_is_unstable(self, evaluator):
        # a direct ratio 3e-4 below 1: both evaluators called this retarded
        # loop stable (n = 10.15) while rounding, not the ratio, decided the
        # boundary; the band makes it a boundary loop
        p = CavityParams(0.4670953705413302, 0.24761622674434441, 0.0014555781836358861,
                         -0.6975678695613599)
        m = MechanicsParams(1.0, 2.0903354382567845e-07, 10.0, G=1.9826964704114433e-05)
        fb = FeedbackConfig(Port.REFLECTION, -1.4115546916420258, 0.26468896736075864,
                            FlatDelay(1.0198022489570535, 4.715267664420678))
        assert model.direct_ratio(p, fb) == pytest.approx(1.0 - 3e-4, rel=1e-12)
        assert model.direct_ratio(p, fb) >= 1.0 - quasipoly.NEUTRAL_TOL
        report = optimize.evaluate(p, m, fb, evaluator)
        assert report.stable is False
        assert report.n_final == math.inf

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(loop=near_neutral_loops(max_log_gap=math.log10(0.99 * quasipoly.NEUTRAL_TOL)))
    def test_loop_inside_the_neutral_band_is_unstable_at_any_delay(self, loop):
        # the weak evaluator applies the exact count's band at tau = 0 too,
        # where the G = 0 Nyquist test called such loops stable
        p, m, fb = loop
        assert abs(model.direct_ratio(p, fb) - 1.0) <= quasipoly.NEUTRAL_TOL
        for delay in (0.0, fb.gain.delay):
            loop = p, m, replace(fb, gain=replace(fb.gain, delay=delay))
            with pytest.raises(InstabilityBoundaryError, match="neutral boundary"):
                langevin._zero_count(*loop)
            assert optimize.evaluate(*loop, "langevin").stable is False
            weak = optimize.evaluate(*loop, "weak_coupling")
            assert weak.stable is False
            assert weak.warnings[-1] == "unstable: loop on the neutral boundary"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(loop=flat_loops(max_ratio=3.0))
    def test_ratio_is_the_direct_path_weight(self, loop):
        # the one number of the neutral rule, on both ports: the transmission
        # port has no direct path; the closed form is the kernel's |c v|, to
        # rounding on the subnormal grid where a drawn amplitude is subnormal
        p, m, fb = loop
        parts = langevin._DetParts(p, m, fb)
        ratio = model.direct_ratio(p, fb)
        assert ratio == pytest.approx(abs(parts.c * parts.v), rel=1e-12, abs=1e-300)
        if fb.port is Port.TRANSMISSION:
            assert ratio == 0.0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        real=st.lists(st.floats(-1e6, 1e6), min_size=9, max_size=9),
        cplx=st.lists(
            st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
            min_size=5, max_size=5,
        ),
    )
    def test_roots_are_np_roots(self, real, cplx):
        # the degrees of |P|^2 - |c|^2 |Q|^2 and of P + c Q; zero end
        # coefficients included, which np.roots strips
        def outcome(roots, coef):
            try:
                with np.errstate(over="ignore"):
                    found = roots(coef)
            except np.linalg.LinAlgError as exc:  # an overflowed companion matrix
                return type(exc)
            return found.dtype, found.tobytes()

        for coef in (real, cplx, [0.0, *real[1:]], [*cplx[:-1], 0j], [0.0, 1.0, -3.0, 2.0, 0.0]):
            assert outcome(quasipoly._roots, coef) == outcome(np.roots, coef)

    def test_exact_zero_root_is_on_the_axis(self, monkeypatch, fig1_optical):
        # a zero constant coefficient of P + c Q, in t = x - center, is an
        # exact root at w = omega_m: the count must call it a real-axis pole
        class ZeroAtCenter(langevin._DetParts):
            # P = t (t^3 - i), Q = 0: the other three roots are off the axis
            def __init__(self, p, m, fb):
                super().__init__(p, m, fb)
                self.p_coef, self.q_coef = [1.0, 0.0, 0.0, -1j, 0.0], [0.0] * 5

            def values(self, x):
                t = x - self.center
                return t * (t**3 - 1j), 0.0

            def __call__(self, x):
                t = x - self.center
                return (*self.values(x), 4.0 * t**3 - 1j, 0.0)

        monkeypatch.setattr(langevin, "_DetParts", ZeroAtCenter)
        sys = fig1_optical
        with pytest.raises(InstabilityBoundaryError, match="real frequency axis"):
            langevin._zero_count(sys.cavity, sys.mechanics, sys.loop)[0]

    def test_root_at_bracket_midpoint_stops_at_once(self):
        # F = |P|^2 - |Q|^2 with P = e^{64 (x - 1)} + i h, Q = 1 and c = 1
        # rises through its root at the bracket's midpoint x = 1 to rounding:
        # F(1) = h^2 rounds to 2^-52, whose Newton correction 2^-59 is below
        # half an ulp, so the step lands on x, now the bracket's upper edge.
        # The converged step must stand, not be bisected and walked back.
        class RootAtMidpoint:
            calls = 0

            def __init__(self):
                # F's expansion |t^4 + 1|^2 has no real roots, so no seed
                # probe falls between the probes 1 -+ 1/4
                self.center, self.p_coef, self.q_coef = 1.0, [1.0, 0.0, 0.0, 0.0, 1.0], [0.0] * 5

            def values(self, x):
                return np.exp(64.0 * (x - 1.0)) + 1.5j * 2.0**-27, 1.0

            def __call__(self, x):
                RootAtMidpoint.calls += 1
                return (*self.values(x), 64.0 * np.exp(64.0 * (x - 1.0)), 0.0)

        parts = RootAtMidpoint()
        assert quasipoly._crossing_frequencies(parts, 1.0, [0.75, 1.25]) == [(1.0, 1)]
        assert RootAtMidpoint.calls <= 2

    @pytest.mark.parametrize("port", list(Port), ids=lambda port: port.value)
    def test_newton_evaluations_per_crossing(self, port):
        # loop strength 0.3-0.9 at six homodyne phases on the three systems
        # (fig1_optical has no transmission port): 35 of these loops cross on
        # reflection, 109 crossings, and 5 on transmission, 10 crossings.
        # Newton takes at most 3 evaluations per crossing on any loop and 1.5
        # on average; with the bracket test ahead of the convergence test it
        # took up to 21 and 5.9 on reflection, 11.5 and 3.9 on transmission
        class Counting(langevin._DetParts):
            calls = 0

            def __call__(self, x):
                Counting.calls += 1
                return super().__call__(x)

        crossings, calls = 0, 0
        for name in ("experiment", "fig1_optical", "fig1_microwave"):
            sys = presets.get_system(name)
            p, m = sys.cavity, sys.mechanics
            for phi in (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5):
                fb = replace(sys.loop, port=port, phi=phi)
                zeta = abs(model.zeta_out(p, fb, abs(p.detuning)))
                if not zeta:
                    continue
                for strength in (0.3, 0.6, 0.9):
                    amplitude = strength / (2.0 * math.sqrt(fb.eta) * zeta)
                    fb = replace(fb, gain=replace(fb.gain, amplitude=amplitude))
                    parts = Counting(p, m, fb)
                    Counting.calls = 0
                    c, gamma = complex(fb.gain(0.0)), m.gamma_m / parts.scale
                    probes = [x for k in langevin._MECHANICAL_PROBES
                              for x in (parts.center - gamma * k, parts.center + gamma * k)]
                    found = quasipoly._crossing_frequencies(parts, c, probes)
                    assert Counting.calls <= 3 * len(found), (name, phi, strength)
                    crossings, calls = crossings + len(found), calls + Counting.calls
        assert crossings > 0
        assert calls <= 1.5 * crossings

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(loop=flat_loops())
    def test_polish_band_keeps_every_outcome_on_flat_loops(self, loop):
        # a tau = 0 root off the polish band keeps its eigenvalue value; the
        # count, the margin and every raise equal those of polishing all
        assert zero_count_outcome(*loop) == zero_count_outcome(*loop, polish_all=True)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(loop=mechanical_crossing_loops())
    def test_polish_band_keeps_every_outcome_near_omega_m(self, loop):
        assert zero_count_outcome(*loop) == zero_count_outcome(*loop, polish_all=True)

    @pytest.mark.parametrize("port", list(Port))
    @pytest.mark.parametrize("amplitude", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("delay", [0.0, 0.8])
    def test_polish_band_keeps_the_outcome_at_normal_mode_degeneracy(self, port, amplitude, delay):
        # detuning = omega_m: cavity and mechanics hybridize into normal modes
        # split by G = 0.2 omega_m, every tau = 0 root far off the real axis
        p = CavityParams(kappa0=0.05, kappa1=0.04, kappa_prime=0.01, detuning=1.0)
        m = MechanicsParams(omega_m=1.0, gamma_m=1e-4, n_th=10.0, G=0.2)
        fb = FeedbackConfig(port, phi=0.4, eta=0.8, gain=FlatDelay(amplitude, delay))
        assert zero_count_outcome(p, m, fb) == zero_count_outcome(p, m, fb, polish_all=True)

    def test_polish_band_keeps_every_outcome_at_the_undelayed_boundary(self, rng):
        # at the amplitude where a tau = 0 root crosses the real axis the
        # outcome hangs on polishing: the band must polish every root whose
        # polishing matters
        hanging = 0
        for p, m, fb in undelayed_boundary_loops(rng, 40):
            outcome = zero_count_outcome(p, m, fb)
            assert outcome == zero_count_outcome(p, m, fb, polish_all=True), (p, m, fb)
            with mock.patch.object(quasipoly, "_POLISH_STEPS", 0):
                hanging += zero_count_outcome(p, m, fb) != outcome
        assert hanging >= 5

    def test_undelayed_neutral_boundary_raises(self, rng):
        # on the reflection port P_4 + c Q_4 = P_4 (1 + c v) cancels to
        # rounding where c v = -1, and one root runs off towards +-i infinity,
        # its sign hanging on polishing: the last floats either side of c v =
        # -1 are on the neutral boundary, whether every root is polished or not
        loops = list(undelayed_boundary_loops(rng, 30, Port.REFLECTION, "neutral"))
        assert len(loops) == 60
        for p, m, fb in loops:
            for polish_all in (False, True):
                assert zero_count_outcome(p, m, fb, polish_all) is InstabilityBoundaryError, (
                    p, m, fb, polish_all,
                )


def zero_count_outcome(p, m, fb, polish_all=False):
    """_zero_count's (count, margin), or the type of the LoopcoolError it
    raises; with polish_all, every tau = 0 root is polished
    (closed_form.undelayed_zeros_polishing_all)."""
    undelayed = closed_form.undelayed_zeros_polishing_all if polish_all else None
    with mock.patch.object(quasipoly, "_undelayed_zeros", undelayed or quasipoly._undelayed_zeros):
        try:
            return langevin._zero_count(p, m, fb)
        except LoopcoolError as exc:
            return type(exc)


def undelayed_boundary_loops(rng, draws, port=None, boundary="count"):
    """Seeded undelayed flat loops drawn as in flat_loops, each with its
    amplitude bisected to the last floats either side of where the tau = 0
    zero count changes (at a loop strength below 3), or, with
    boundary="neutral", where the direct-path ratio |c v| reaches 1 at
    negative c v (the leading coefficient of P + c Q cancels); yields both
    sides of each."""
    for _ in range(draws):
        p = CavityParams(
            kappa0=rng.uniform(0.02, 0.6), kappa1=rng.uniform(0.01, 0.5),
            kappa_prime=rng.uniform(0.0, 0.05), detuning=rng.choice([-1, 1]) * rng.uniform(0.2, 1.8),
        )
        m = MechanicsParams(
            omega_m=1.0, gamma_m=10.0 ** rng.uniform(-10, -3), n_th=10.0,
            G=10.0 ** rng.uniform(-5, math.log10(0.6)),
        )
        fb = FeedbackConfig(
            port=port or list(Port)[rng.randint(2)], phi=rng.uniform(-math.pi, math.pi),
            eta=rng.uniform(0.05, 1.0),
        )

        def loop(amplitude):
            return p, m, replace(fb, gain=FlatDelay(amplitude))

        def count(amplitude):
            if boundary == "neutral":
                return model.direct_ratio(p, loop(amplitude)[2]) >= 1.0
            try:
                return langevin._zero_count(*loop(amplitude))[0]
            except LoopcoolError:
                return None

        if boundary == "neutral":
            lo, hi = 0.0, -2.0 / langevin._DetParts(*loop(1.0)).v.real
        else:
            zeta = abs(model.zeta_out(p, fb, abs(p.detuning)))
            lo, hi = 0.0, 3.0 / (2.0 * math.sqrt(fb.eta) * zeta)
        start = count(lo)
        if count(hi) == start:
            continue
        while math.nextafter(lo, hi) != hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if count(mid) == start else (lo, mid)
        yield loop(lo)
        yield loop(hi)


#: (left, right) unknowns summed into K_O and K_O': the hermitian
#: quadratures pair with themselves, n_mech = <b^dag(w) b(w')> pairs b_conj
#: at +w with b at -w
CONTRACTION_ROWS = {
    "i_fb": ([4], [4]),
    "x_cavity": ([0, 1], [0, 1]),
    "q_mech": ([2, 3], [2, 3]),
    "n_mech": ([3], [2]),
}


def two_sided_contraction(p, m, fb, w, observable):
    """K_O(w) C K_O'(-w)^T from the full 9-RHS solve of the system at +-w,
    O' being the partner of O, with the 9x9 noise correlator
    <n_j(w) n_k(w')> = C_jk delta(w+w')."""

    def transfer(omega):
        entries, noise, _ = closed_form.system_entries(p, m, fb, omega)
        mat = np.zeros((5, 5), dtype=complex)
        for (i, j), value in entries.items():
            mat[i, j] = np.ravel(value)[0]
        return np.linalg.solve(mat, noise)

    left_rows, right_rows = CONTRACTION_ROWS[observable]
    corr = np.zeros((9, 9))
    corr[0, 1] = corr[2, 3] = corr[4, 5] = 1.0
    corr[6, 7] = m.n_th + 1.0
    corr[7, 6] = m.n_th
    corr[8, 8] = 1.0
    left = transfer(w)[left_rows].sum(axis=0)
    right = transfer(-w)[right_rows].sum(axis=0)
    return left @ corr @ right, left


class TestObservableSpectrum:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        w=st.floats(-30.0, 30.0),
        coupling=st.floats(0.0, 2.0),
        gain=st.floats(-1.5, 1.5),
        phi=st.floats(-math.pi, math.pi),
        eta=st.floats(0.0, 1.0),
        delay=st.floats(0.0, 1.0),
        n_th=st.floats(0.0, 100.0),
        port=st.sampled_from(list(Port)),
        observable=st.sampled_from(sorted(CONTRACTION_ROWS)),
    )
    def test_matches_two_sided_contraction(
        self, w, coupling, gain, phi, eta, delay, n_th, port, observable
    ):
        p, m, _ = toy_system(coupling=coupling)
        m = replace(m, n_th=n_th)
        fb = FeedbackConfig(port=port, phi=phi, eta=eta, gain=FlatDelay(gain, delay))
        s = langevin.observable_spectrum(p, m, fb, w, observable)
        expected, row = two_sided_contraction(p, m, fb, w, observable)
        # rounding floor of the contraction's nine terms, for spectra that
        # vanish (a channel whose only weight is n_th = 0)
        floor = 1e-14 * (n_th + 1.0) * np.sum(np.abs(row) ** 2)
        assert abs(expected.imag) <= 1e-10 * abs(expected) + floor
        np.testing.assert_allclose(s, [expected.real], rtol=1e-10, atol=floor)
        assert s[0] >= 0.0

    def test_thermal_lorentzian(self):
        p, m, fb = toy_system()
        w = np.linspace(-m.omega_m - 0.05, -m.omega_m + 0.05, 2001)
        s = langevin.observable_spectrum(p, m, fb, w, "n_mech")
        expected = (
            m.gamma_m * m.n_th / ((m.gamma_m / 2) ** 2 + (w + m.omega_m) ** 2)
        )
        np.testing.assert_allclose(s, expected, rtol=1e-10)

    def test_reality_and_positivity(self, rng):
        p, m, fb = toy_system(coupling=0.05, gain=0.3)
        w = rng.uniform(-15, 15, size=300)
        for observable in ("i_fb", "x_cavity", "q_mech", "n_mech"):
            s = langevin.observable_spectrum(p, m, fb, w, observable)
            assert np.all(s > -1e-12)

    def test_unknown_observable_rejected(self):
        p, m, fb = toy_system()
        with pytest.raises(ValidationError) as raised:
            langevin.observable_spectrum(p, m, fb, np.array([1.0]), "x_mech")
        assert str(raised.value) == "unknown observable 'x_mech'"


def occupancy_outcome(p, m, fb, **kwargs):
    """phonon_occupancy's value, or the type of the error it raised."""
    try:
        return langevin.phonon_occupancy(p, m, fb, **kwargs)
    except OptomechanicalInstabilityError as exc:
        return type(exc)


class TestPhononOccupancy:
    @pytest.mark.parametrize("port", list(Port), ids=lambda port: port.value)
    @pytest.mark.parametrize("name", ["experiment", "fig1_optical", "fig1_microwave"])
    def test_handed_gamma_opt_is_bit_identical(self, name, port):
        # the weak report's Gamma_opt is the linewidth guess's own G = 0
        # solve, so handing it over changes no bit of the result
        sys = presets.get_system(name)
        p, m = sys.cavity, sys.mechanics
        amplitude = 0.4 * abs(feedback.stokes_suppression_gain(p, sys.loop, m.omega_m))
        fb = replace(sys.loop, port=port, gain=replace(sys.loop.gain, amplitude=amplitude))
        gamma_opt = cooling.scattering_rates(p, m, fb).gamma_opt
        n = langevin.phonon_occupancy(p, m, fb)
        assert math.isfinite(n)
        assert langevin.phonon_occupancy(p, m, fb, gamma_opt=gamma_opt) == n

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(loop=flat_loops())
    def test_handed_gamma_opt_is_bit_identical_on_flat_loops(self, loop):
        p, m, fb = loop
        gamma_opt = cooling.scattering_rates(p, m, fb).gamma_opt
        expected = occupancy_outcome(p, m, fb)
        assert occupancy_outcome(p, m, fb, gamma_opt=gamma_opt) == expected

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(loop=flat_loops())
    def test_evaluators_share_one_weak_report(self, loop):
        # cooling_report is occupancy_weak_coupling's report of the solved
        # rates and its two warnings, and both evaluators start from it: they
        # differ only in the occupancy and an `unstable: ` reason
        p, m, fb = loop
        rates = cooling.scattering_rates(p, m, fb)
        notes = tuple(note for note, applies in [
            ("weak-coupling advisory: G > omega_m/20, exact solver is authoritative",
             m.G > m.omega_m / 20),
            ("optical anti-damping: a_plus exceeds a_minus", rates.gamma_opt < 0),
        ] if applies)
        report = cooling.cooling_report(p, m, fb)
        assert report == cooling.occupancy_weak_coupling(m, rates, notes)

        def shared(evaluator):
            r = optimize.evaluate(p, m, fb, evaluator)
            kept = tuple(w for w in r.warnings if not w.startswith("unstable: "))
            return repr((r.rates, r.n_backaction, kept))

        assert shared("langevin") == shared("weak_coupling") == repr((rates, report.n_backaction,
                                                                      notes))

    def test_integrand_solves_through_module_attribute(self, monkeypatch, fig1_optical):
        # the tracer wraps langevin.solve_rows: every quadrature round must
        # reach it, so solve_rows.points keeps measuring the quadrature
        solve_rows, adaptive_integral = langevin.solve_rows, langevin.adaptive_integral
        solved, integrated = [], []

        def counting_solve(p, m, fb, omega, weights):
            solved.append(np.size(omega))
            return solve_rows(p, m, fb, omega, weights)

        def counting_integral(fvec, edges, rtol):
            def counted(x):
                integrated.append(x.size)
                return fvec(x)

            return adaptive_integral(counted, edges, rtol=rtol)

        monkeypatch.setattr(langevin, "solve_rows", counting_solve)
        monkeypatch.setattr(langevin, "adaptive_integral", counting_integral)
        sys = fig1_optical
        p, m = sys.cavity, sys.mechanics
        fb = replace(sys.loop, gain=replace(sys.loop.gain, amplitude=0.4))
        gamma_opt = cooling.scattering_rates(p, m, fb).gamma_opt
        solved.clear()
        langevin.phonon_occupancy(p, m, fb, gamma_opt=gamma_opt)
        # one integrand call per round, each one solve over the same nodes
        assert len(integrated) >= 2
        assert solved == integrated
        solved.clear()
        integrated.clear()
        langevin.phonon_occupancy(p, m, fb)
        assert solved == [2, *integrated]

    def test_thermal_fixed_point_with_active_loop(self):
        p, m, fb = toy_system(coupling=0.0, gain=0.45)
        n = langevin.phonon_occupancy(p, m, fb)
        assert n == pytest.approx(m.n_th, rel=1e-3)

    def test_weak_coupling_sideband_cooling(self):
        p, m, fb = toy_system(coupling=0.05, gain=0.0)
        n = langevin.phonon_occupancy(p, m, fb)
        occ = cooling.occupancy_weak_coupling(m, cooling.scattering_rates(p, m, fb))
        assert n == pytest.approx(occ.n_final, rel=0.02)

    def test_grid_refinement_convergence(self):
        p, m, fb = toy_system(coupling=0.05, gain=0.3)
        coarse = langevin.phonon_occupancy(p, m, fb, rtol=2e-4)
        fine = langevin.phonon_occupancy(p, m, fb, rtol=1e-4)
        assert abs(fine - coarse) / fine < 1e-3

    def test_unstable_loop_raises(self):
        p, m, fb = toy_system(coupling=0.01)
        # drive the loop far past threshold
        hot = replace(fb, gain=replace(fb.gain, amplitude=20.0))
        with pytest.raises(OptomechanicalInstabilityError):
            langevin.phonon_occupancy(p, m, hot)

    def test_adaptive_integral_gaussian(self):
        edges = np.array([-8.0, -1.0, 0.5, 8.0])
        val = langevin.adaptive_integral(
            lambda x: np.exp(-(x**2)), edges, rtol=1e-6
        )
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-6)

    @pytest.mark.parametrize("rtol", [math.nan, math.inf, -1e-3, 0.0, 1e-20])
    def test_adaptive_integral_rejects_out_of_range_rtol(self, rtol):
        # such an rtol would bisect every open panel each round; the
        # integrand stops a runaway after a few calls instead of the cap
        calls = []

        def gaussian(x):
            calls.append(x.size)
            if len(calls) > 4:
                raise RuntimeError("quadrature ran away")
            return np.exp(-(x**2))

        with pytest.raises(ValidationError, match="rtol"):
            langevin.adaptive_integral(gaussian, np.array([-8.0, 0.5, 8.0]), rtol=rtol)

    def test_pinned_gauss_legendre_rule(self):
        # the rule is pinned as literals; allow 1 ulp so that another LAPACK
        # build's leggauss does not fail the comparison
        nodes, weights = np.polynomial.legendre.leggauss(15)
        np.testing.assert_array_max_ulp(langevin._GL_NODES, nodes, maxulp=1)
        np.testing.assert_array_max_ulp(langevin._GL_WEIGHTS, weights, maxulp=1)

    def test_adaptive_integral_one_call_per_round(self):
        # from one seed panel of width L, call 0 evaluates the panel beside
        # both of its halves and call k >= 1 both halves of every open panel,
        # all of width L / 2^(k+1): n calls are n bisection rounds
        nodes = []

        def lorentzian(x):
            nodes.append(x.reshape(-1, langevin._GL_NODES.size))
            return 1.0 / (1.0 + x**2)

        val = langevin.adaptive_integral(lorentzian, np.array([-50.0, 50.0]), rtol=1e-9)
        assert val == pytest.approx(2.0 * math.atan(50.0), rel=1e-9)
        assert len(nodes) >= 3
        span = 100.0 * np.ptp(langevin._GL_NODES) / 2.0
        np.testing.assert_allclose(np.ptp(nodes[0], axis=1), [span, span / 2.0, span / 2.0])
        np.testing.assert_allclose(nodes[0].mean(axis=1), [0.0, -25.0, 25.0], atol=1e-12)
        for k, x in enumerate(nodes[1:], start=1):
            np.testing.assert_allclose(np.ptp(x, axis=1), span / 2.0 ** (k + 1), rtol=1e-12)

    def test_adaptive_integral_round_cap(self):
        # 1 / |x - x0| never converges on the panel holding x0: the cap stops
        # it after _MAX_ROUNDS rounds, one call each, the last on panels of
        # width L / 2^_MAX_ROUNDS
        widths = []

        def pole(x):
            widths.append(np.ptp(x.reshape(-1, langevin._GL_NODES.size), axis=1).min())
            return 1.0 / np.abs(x - 1.0 / math.pi)

        with pytest.raises(ConvergenceError):
            langevin.adaptive_integral(pole, np.array([-1.0, 2.0]), rtol=1e-6)
        assert len(widths) == langevin._MAX_ROUNDS
        finest = 3.0 * np.ptp(langevin._GL_NODES) / 2.0 ** (langevin._MAX_ROUNDS + 1)
        # the 1e-14 width is read off nodes near x0 ~ 0.3, rounded to 6e-17
        assert widths[-1] / finest == pytest.approx(1.0, rel=0.05)

    def test_adaptive_integral_node_cap(self):
        # a NaN integrand never converges, so every round bisects every open
        # panel; the node cap stops it before a round evaluates more than
        # _MAX_QUADRATURE_NODES, and the integrand stops a runaway past 2e6
        sizes = []

        def nan(x):
            sizes.append(x.size)
            if x.size > 2_000_000:
                raise RuntimeError("quadrature ran away")
            return np.full(x.shape, np.nan)

        with pytest.raises(ConvergenceError, match="nodes"):
            langevin.adaptive_integral(nan, np.linspace(-1.0, 1.0, 28))
        assert max(sizes) <= langevin._MAX_QUADRATURE_NODES < 2 * max(sizes)

    @pytest.mark.parametrize("rtol", [2e-4, 1e-7])
    @pytest.mark.parametrize(
        "name", ["experiment", "experiment_empty", "fig1_optical", "fig1_microwave"]
    )
    def test_adaptive_integral_matches_array_form_on_preset_occupancies(self, name, rtol):
        # the list bookkeeping hands _gl_batch the same batches as the array
        # form, so every node and every bit of the integral is the same
        sys = presets.get_system(name)
        p, m, fb = sys.cavity, sys.mechanics, sys.loop
        assert langevin.closed_loop_stability(p, m, fb)
        edges = langevin._occupancy_edges(p, m, fb)
        assert_same_quadrature(
            lambda w: langevin.observable_spectrum(p, m, fb, w, "n_mech"), edges, rtol
        )

    def test_adaptive_integral_matches_array_form_on_narrow_lorentzians(self, rng):
        for _ in range(6):
            center, width = rng.uniform(-20.0, 20.0), 10.0 ** rng.uniform(-5.0, -3.0)
            edges = np.sort(np.concatenate([[-50.0, 50.0], rng.uniform(-50.0, 50.0, 3)]))
            rounds = assert_same_quadrature(
                lambda x: width / ((x - center) ** 2 + width**2), edges, 1e-8
            )
            assert rounds >= 4

    @pytest.mark.parametrize("case", ["nan integrand", "node cap", "rtol below 1e-12"])
    def test_adaptive_integral_raises_like_array_form(self, case):
        def integrand(x):
            return np.full(x.shape, np.nan) if case == "nan integrand" else np.exp(-(x**2))

        panels = 25_000 if case == "node cap" else 27  # 3 x 25,000 x 15 nodes > 1e6
        rtol = 1e-13 if case == "rtol below 1e-12" else 2e-4
        raised = []
        for quadrature in (langevin.adaptive_integral, closed_form.adaptive_integral):
            with pytest.raises(LoopcoolError) as info:
                quadrature(integrand, np.linspace(-1.0, 1.0, panels + 1), rtol)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]
        assert raised[0][0] is (ValidationError if rtol < 1e-12 else ConvergenceError)


def assert_same_quadrature(integrand, edges, rtol):
    """adaptive_integral and its array form (closed_form.adaptive_integral)
    call the integrand on the same nodes, bit for bit, and return the same
    float; returns the number of rounds."""
    nodes = ([], [])

    def recording(k):
        def fvec(x):
            nodes[k].append(x.tobytes())
            return integrand(x)

        return fvec

    value = langevin.adaptive_integral(recording(0), edges, rtol)
    assert value == closed_form.adaptive_integral(recording(1), edges, rtol)
    assert nodes[0] == nodes[1]
    return len(nodes[0])


def thermal_limit_errors(p, m0, fb, rtol=2e-4, max_decades=12):
    """|n / n_th - 1| of the exact evaluate at G = G0 / 10^k, k = 1, 2, ...,
    up to the first k >= 4 at which it is within 2 rtol (None where the loop
    is unstable at that G)."""
    errors = []
    for k in range(1, max_decades + 1):
        report = optimize.evaluate(p, replace(m0, G=m0.G / 10.0**k), fb, "langevin", rtol=rtol)
        errors.append(abs(report.n_final / m0.n_th - 1.0) if report.stable else None)
        if k >= 4 and errors[-1] is not None and errors[-1] <= 2.0 * rtol:
            break
    return errors


def assert_falls_to_thermal(errors, rtol=2e-4):
    # from the first stable G on, the error falls with G until it is within
    # 2 rtol, and stays there
    stable = errors[next(k for k, e in enumerate(errors) if e is not None):]
    assert None not in stable, errors
    assert stable[-1] <= 2.0 * rtol, errors
    for before, after in zip(stable, stable[1:]):
        assert after < before or max(before, after) <= 2.0 * rtol, errors


class TestThermalLimit:
    """n -> n_th as G -> 0: the loop still acts on the light, but the
    decoupled mode keeps the occupancy of its bath."""

    @pytest.mark.parametrize("name", ["experiment", "fig1_optical", "fig1_microwave"])
    def test_presets(self, name):
        sys = presets.get_system(name)
        errors = thermal_limit_errors(sys.cavity, sys.mechanics, sys.loop)
        assert None not in errors
        assert_falls_to_thermal(errors)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(loop=flat_loops())
    def test_flat_loops(self, loop):
        p, m, fb = loop
        # below gamma_m ~ 10^-7.5 omega_m the quadrature's own thermal error
        # exceeds 2 rtol (test_high_q_thermal_occupancy)
        assume(m.gamma_m >= 10.0**-7.5)
        assume(langevin.closed_loop_stability(p, replace(m, G=0.0), fb))
        assert_falls_to_thermal(thermal_limit_errors(p, m, fb))

    @pytest.mark.xfail(strict=True, reason=(
        "occupancy panels jump from 300 gamma_eff to 0.02 omega_m around "
        "+-omega_m; for gamma_m <= 1e-8 omega_m no node of that panel sees the "
        "Lorentzian tail, so the estimate converges without ~1e-3 of n"
    ))
    def test_high_q_thermal_occupancy(self):
        p = CavityParams(kappa0=0.5, kappa1=0.5, kappa_prime=0.0, detuning=1.0)
        m = MechanicsParams(omega_m=1.0, gamma_m=1e-8, n_th=10.0, G=0.0)
        fb = FeedbackConfig(port=Port.REFLECTION, phi=0.0, eta=1.0, gain=FlatDelay(0.0))
        rtol = 2e-4
        assert langevin.phonon_occupancy(p, m, fb, rtol) == pytest.approx(m.n_th, rel=2 * rtol)


class TestDisplacementSpectrum:
    def test_area_tracks_total_variance(self):
        # integral of S_q over both signs equals 2n + 1
        p, m, fb = toy_system(coupling=0.04, gain=0.25)
        n = langevin.phonon_occupancy(p, m, fb)

        def integrand(w):
            return langevin.observable_spectrum(p, m, fb, w, "q_mech")

        gamma_eff = m.gamma_m + abs(
            cooling.scattering_rates(p, m, fb).gamma_opt
        )
        edges = []
        for center in (-m.omega_m, m.omega_m):
            edges += [
                center - 300 * gamma_eff,
                center - 10 * gamma_eff,
                center + 10 * gamma_eff,
                center + 300 * gamma_eff,
            ]
        edges = sorted(edges + [-10 * m.omega_m, 10 * m.omega_m])
        area = langevin.adaptive_integral(integrand, np.array(edges), rtol=1e-4)
        assert area / (2 * math.pi) == pytest.approx(2 * n + 1, rel=5e-3)

    def test_loop_broadens_and_shifts_peak(self, experiment):
        sys = experiment
        p, m = sys.cavity, sys.mechanics
        gammas, shifts = [], []
        for gain_norm in (0.0, 0.45, 0.85):
            fb = sys.with_gain_norm(gain_norm)
            spec = langevin.displacement_spectrum(
                p, m, fb, points=1601
            )
            fit = langevin.lorentzian_extract(spec)
            gammas.append(fit.gamma_eff)
            shifts.append(abs(fit.omega_eff - m.omega_m))
        assert gammas[0] < gammas[1] < gammas[2]
        assert shifts[0] < shifts[1] < shifts[2]

    def test_natural_units_on_thirty_linewidths(self):
        p, m, fb = toy_system(coupling=0.04, gain=0.25)
        spec = langevin.displacement_spectrum(p, m, fb, points=201)
        a_plus, a_minus = langevin.sideband_rates(p, m, fb)
        half = 30.0 * (m.gamma_m + abs(a_minus - a_plus))
        assert half > 1e-4 * m.omega_m
        np.testing.assert_allclose(
            [spec.omega[0], spec.omega[-1]], [m.omega_m - half, m.omega_m + half], rtol=1e-15
        )
        np.testing.assert_array_equal(
            spec.values, langevin.observable_spectrum(p, m, fb, spec.omega, "q_mech")
        )


class TestLinewidthGuess:
    @pytest.mark.parametrize("gamma_opt", [0.02, -0.02], ids=["damped", "anti_damped"])
    def test_adds_the_optical_rate_magnitude(self, gamma_opt):
        p, m, fb = toy_system(coupling=0.04, gain=0.25)
        guess = langevin._mechanical_linewidth_guess(p, m, fb, gamma_opt)
        assert guess == m.gamma_m + 0.02

    def test_solves_the_rates_when_not_given(self):
        p, m, fb = toy_system(coupling=0.04, gain=0.25)
        a_plus, a_minus = langevin.sideband_rates(p, m, fb)
        assert langevin._mechanical_linewidth_guess(p, m, fb) == m.gamma_m + abs(a_minus - a_plus)
        # without coupling there is no optical rate to add
        p, m, fb = toy_system(coupling=0.0, gain=0.25)
        assert langevin._mechanical_linewidth_guess(p, m, fb, 0.02) == m.gamma_m


class TestLorentzianExtract:
    def test_recovers_exact_lorentzian(self):
        w = np.linspace(90.0, 110.0, 2001)
        gamma, w0, h, c = 0.8, 100.3, 4.7, 0.2
        s = c + h * (gamma / 2) ** 2 / ((w - w0) ** 2 + (gamma / 2) ** 2)
        fit = langevin.lorentzian_extract(Spectrum(w, s))
        assert fit.omega_eff == pytest.approx(w0, rel=1e-6)
        assert fit.gamma_eff == pytest.approx(gamma, rel=1e-6)
        assert fit.area == pytest.approx(h * math.pi * gamma / 2, rel=1e-6)

    def test_thermal_peak_parameters(self):
        p, m, fb = toy_system()
        spec = langevin.displacement_spectrum(p, m, fb, points=1201)
        fit = langevin.lorentzian_extract(spec)
        assert fit.omega_eff == pytest.approx(m.omega_m, rel=1e-6)
        assert fit.gamma_eff == pytest.approx(m.gamma_m, rel=0.01)

    def test_cooled_linewidth_matches_rates(self, experiment):
        sys = experiment
        p, m = sys.cavity, sys.mechanics
        fb = sys.with_gain_norm(0.85)
        spec = langevin.displacement_spectrum(p, m, fb)
        fit = langevin.lorentzian_extract(spec)
        gamma_opt = cooling.scattering_rates(p, m, fb).gamma_opt
        assert fit.gamma_eff == pytest.approx(m.gamma_m + gamma_opt, rel=0.15)

    def test_rejects_double_peak(self):
        w = np.linspace(0.0, 10.0, 2001)
        s = 1.0 / ((w - 3) ** 2 + 0.01) + 0.8 / ((w - 7) ** 2 + 0.01)
        with pytest.raises(FitError, match="secondary peak"):
            langevin.lorentzian_extract(Spectrum(w, s))

    def test_rejects_edge_peak(self):
        w = np.linspace(0.0, 10.0, 501)
        with pytest.raises(FitError):
            langevin.lorentzian_extract(Spectrum(w, w.copy()))


def anti_damped_stable_loop():
    """A strongly coupled reflection loop, in units of omega_m, whose weak
    rates anti-damp the mode (A+ 0.15025, A- 0.14884) while det M has no
    zero in the upper half plane: the exact occupancy is 1.9510."""
    p = CavityParams(
        0.18550629887984516, 0.03146344770606672, 0.003912769137919975, 1.7793992771822393
    )
    m = MechanicsParams(1.0, 2.4329637617185058e-08, 10.0, G=0.41142851811077824)
    fb = FeedbackConfig(Port.REFLECTION, -1.4746794644235939, 0.26397096041167206,
                        FlatDelay(1.0023144696801418, 3.771215962352912, math.pi))
    return p, m, fb


class TestExactHeadline:
    def test_exact_occupancy_temperatures(self, experiment):
        # the paper's headline on the exact occupancies: anti-squashing
        # feedback takes the sideband-cooled mode from 2 K to 0.35 K, 7.5 dB
        sys = experiment
        t_cooled, t_loop = (
            optimize.evaluate(sys.cavity, sys.mechanics, sys.with_gain_norm(g), "langevin")
            .temperature_final
            for g in (0.0, 0.87)
        )
        assert t_cooled == pytest.approx(2.0, rel=0.01)
        assert t_loop == pytest.approx(0.35, rel=0.01)
        assert 10 * math.log10(t_cooled / t_loop) == pytest.approx(7.5, abs=0.25)

    def test_anti_damped_weak_rates_with_a_stable_exact_loop(self):
        # the weak formula has no occupancy here (A+ > A- + gamma_m), but the
        # exact loop has no unstable zero, and the zero count is the exact
        # evaluator's only verdict
        p, m, fb = anti_damped_stable_loop()
        a_plus, a_minus = langevin.sideband_rates(p, m, fb)
        assert a_plus - a_minus >= m.gamma_m
        scale = max(abs(p.detuning), m.omega_m, p.kappa)
        assert langevin._zero_count(p, m, fb)[0] == 0
        assert box_zero_count(p, m, fb, 6.0 * scale, 3.0 * scale) == 0
        n = langevin.phonon_occupancy(p, m, fb)
        assert n == pytest.approx(1.9510, rel=1e-4)
        report = optimize.evaluate(p, m, fb, "langevin")
        assert report.stable and report.n_final == pytest.approx(n, rel=1e-3)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @example(loop=anti_damped_stable_loop())
    @given(loop=flat_loops())
    def test_a_report_is_stable_when_it_has_an_occupancy(self, loop):
        # every report keeps the rates it solved, whatever its verdict; the
        # exact verdict is the full-G zero count, a pole on the real axis
        # counting as unstable
        p, m, fb = loop
        try:
            exact = langevin.closed_loop_stability(p, m, fb)
        except InstabilityBoundaryError:
            exact = False
        reports = {ev: optimize.evaluate(p, m, fb, ev) for ev in optimize.EVALUATORS}
        for report in reports.values():
            assert math.isfinite(report.rates.a_plus) and math.isfinite(report.rates.a_minus)
            assert report.stable is math.isfinite(report.n_final)
        assert reports["langevin"].stable is exact


class TestSpectrumExport:
    def test_csv_round_trip_and_determinism(self, tmp_path):
        from loopcool import spectra

        w = np.linspace(1e3, 1e5, 57)
        values = np.sin(w / 1e4) ** 2
        spec = Spectrum(w, values)
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        spectra.write_spectrum_csv(path_a, spec)
        spectra.write_spectrum_csv(path_b, spec)
        assert path_a.read_bytes() == path_b.read_bytes()
        rows = path_a.read_text().strip().splitlines()
        assert rows[0] == "omega_hz,value"
        back = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
        np.testing.assert_allclose(back[:, 0] * TWO_PI, w, rtol=1e-15)
        np.testing.assert_allclose(back[:, 1], values, rtol=1e-15)

    @pytest.mark.parametrize("omega, values, message", [
        ([1.0], [1.0], "Spectrum needs at least two samples"),
        ([1.0, 2.0], [1.0, 2.0, 3.0], "omega and values must have matching shapes"),
        ([1.0, 1.0, 2.0], [1.0, 2.0, 3.0], "Spectrum frequencies must strictly increase"),
    ], ids=["one_sample", "shapes", "not_increasing"])
    def test_bad_samples_rejected(self, omega, values, message):
        with pytest.raises(ValidationError) as raised:
            Spectrum(np.array(omega), np.array(values))
        assert str(raised.value) == message

    def test_rows_of_unequal_columns_raise(self, tmp_path):
        from loopcool import spectra

        with pytest.raises(ValueError):
            spectra.write_rows(tmp_path / "c.csv", ("x", "y"), [1.0, 2.0, 3.0], [4.0, 5.0])
        with pytest.raises(ValueError):
            spectra.write_curve_csv(tmp_path / "d.csv", "x", "y", [1.0, 2.0], [4.0, 5.0, 6.0])


class TestDetailedBalanceAnchor:
    def test_extracted_linewidth_matches_rate_convention(self):
        # resolved sideband, no loop: the fitted effective linewidth equals
        # gamma_m + 2 G^2/kappa (the rate-convention anchor; kappa here is a
        # half width)
        kappa = 1.0
        omega_m = 40.0
        p = CavityParams(kappa0=0.5, kappa1=0.5, kappa_prime=0.0, detuning=omega_m)
        m = MechanicsParams(omega_m=omega_m, gamma_m=1e-4, n_th=20.0, G=0.05)
        fb = FeedbackConfig(gain=FlatDelay(0.0))
        spec = langevin.displacement_spectrum(p, m, fb, points=2401)
        fit = langevin.lorentzian_extract(spec)
        expected = m.gamma_m + 2 * m.G**2 / kappa
        assert fit.gamma_eff == pytest.approx(expected, rel=0.10)
        gamma_opt = cooling.scattering_rates(p, m, fb).gamma_opt
        assert gamma_opt == pytest.approx(2 * m.G**2 / kappa, rel=0.01)


class TestModuleGraph:
    def test_langevin_does_not_import_cooling(self):
        # cooling builds its rates on langevin, never the other way round
        tree = ast.parse(Path(langevin.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.update(alias.name for alias in node.names)
                imported.add((node.module or "").rsplit(".", 1)[-1])
            elif isinstance(node, ast.Import):
                imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        assert "cooling" not in imported

    def test_one_home_for_the_system_constants(self):
        # the input phases are read only where the kernel builds M's
        # constants, and no code rebuilds a config to read M at another gain
        tree = ast.parse(Path(langevin.__file__).read_text())
        kernel = next(
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "_Kernel"
        )
        inside = {id(node) for node in ast.walk(kernel)}
        phase_reads, gain_replaces = [], []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "input_phase_shifts":
                phase_reads.append(id(node) in inside)
            if name == "replace" and any(kw.arg == "gain" for kw in node.keywords):
                gain_replaces.append(node.lineno)
        assert phase_reads == [True]
        assert gain_replaces == []

    def test_one_elimination_formula_for_det_m(self):
        # the solve, R and the delay-crossing parts all take det M from the
        # kernel's elimination
        tree = ast.parse(Path(langevin.__file__).read_text())
        consumers = {"solve_rows", "closed_loop_determinant", "_DetParts"}
        calls = {}
        for node in tree.body:
            if getattr(node, "name", None) in consumers:
                calls[node.name] = any(
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "eliminate"
                    for call in ast.walk(node)
                )
        assert calls == dict.fromkeys(consumers, True)

    def test_one_home_for_the_sideband_rates(self):
        # the G = 0 solve of the cavity quadrature behind the scattering rates
        # and the occupancy's linewidth guess is written once in the package
        sites = []
        for path in sorted(Path(langevin.__file__).parent.glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                for call in ast.walk(node):
                    if not isinstance(call, ast.Call) or not any(
                        isinstance(arg, ast.Constant) and arg.value == "x_cavity"
                        for arg in call.args
                    ):
                        continue
                    decoupled = any(
                        kw.arg == "G" and getattr(kw.value, "value", None) == 0.0
                        for arg in call.args if isinstance(arg, ast.Call)
                        for kw in arg.keywords
                    )
                    sites.append((path.name, node.name, decoupled))
        assert sites == [("langevin.py", "sideband_rates", True)]

    def test_no_dense_solve_in_package(self):
        # the per-frequency solve is closed form; the dense 5x5 solve lives
        # on only as the oracle in these tests
        calls = []
        for path in sorted(Path(langevin.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr == "solve":
                    if isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
                        calls.append((path.name, node.lineno))
                elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                    if any(alias.name == "solve" for alias in node.names):
                        calls.append((path.name, node.lineno))
        assert calls == []
