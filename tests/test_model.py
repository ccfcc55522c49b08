import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.constants import hbar, k as k_B

from loopcool import model
from loopcool.errors import CurveDomainError, ValidationError
from loopcool.model import (
    CavityParams,
    FeedbackConfig,
    FlatDelay,
    MechanicsParams,
    MembraneGeometry,
    Port,
    Tabulated,
)

TWO_PI = 2 * math.pi


def make_cavity(kappa0=TWO_PI * 10.075e3, kappa1=TWO_PI * 10.075e3,
                kappa_prime=0.0, detuning=TWO_PI * 330e3, **kw):
    return CavityParams(kappa0=kappa0, kappa1=kappa1, kappa_prime=kappa_prime,
                        detuning=detuning, **kw)


class TestCavitySusceptibility:
    def test_value_at_detuning_is_two(self):
        p = make_cavity()
        assert model.cavity_susceptibility(p, p.detuning) == pytest.approx(2.0)

    def test_dc_magnitude_against_direct_arithmetic(self):
        # independent oracle: 2k/|k + i d| with the quoted numbers
        kappa = TWO_PI * 20.15e3
        delta = TWO_PI * 330e3
        p = make_cavity(kappa0=kappa / 2, kappa1=kappa / 2, detuning=delta)
        expected = 2 * kappa / math.hypot(kappa, delta)
        assert abs(model.cavity_susceptibility(p, 0.0)) == pytest.approx(expected)
        assert expected == pytest.approx(0.1219, abs=2e-4)

    def test_conjugate_reflection(self, rng):
        for _ in range(20):
            p = make_cavity(detuning=rng.uniform(-5e6, 5e6))
            p_neg = make_cavity(detuning=-p.detuning)
            w = rng.uniform(-5e6, 5e6)
            assert model.cavity_susceptibility(p_neg, -w) == pytest.approx(
                np.conjugate(model.cavity_susceptibility(p, w))
            )

    def test_pole_at_detuning(self):
        p = make_cavity()
        w = np.linspace(p.detuning - 5 * p.kappa, p.detuning + 5 * p.kappa, 20001)
        mags = np.abs(model.cavity_susceptibility(p, w))
        peak = w[np.argmax(mags)]
        assert abs(peak - p.detuning) <= (w[1] - w[0])


class TestInputPhaseShifts:
    def test_detuning_equals_kappa(self):
        p = make_cavity(detuning=TWO_PI * 20.15e3)
        theta, _ = model.input_phase_shifts(p)
        assert theta == pytest.approx(-math.pi / 4)

    def test_resonant_drive(self):
        p = make_cavity(detuning=0.0)
        assert model.input_phase_shifts(p) == (0.0, 0.0)

    def test_against_direct_formula(self):
        p = make_cavity(kappa_prime=TWO_PI * 1e3)
        theta, theta_bar = model.input_phase_shifts(p)
        assert theta == pytest.approx(math.atan(-p.detuning / p.kappa))
        expected = math.atan(
            2 * p.detuning * p.kappa0
            / (p.detuning**2 + p.kappa * (p.kappa1 - p.kappa0))
        )
        assert theta_bar == pytest.approx(expected)
        assert np.isfinite(theta_bar)


_RATES = st.floats(0.0, 1e6)


class TestDetectedPort:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(kappa0=_RATES, kappa1=_RATES, kappa_prime=st.floats(1e-3, 1e6),
           detuning=st.floats(-1e6, 1e6), phi=st.floats(-10.0, 10.0))
    def test_fields_follow_the_input_phase_shifts(self, kappa0, kappa1, kappa_prime,
                                                  detuning, phi):
        # reflection detects mirror 0 behind theta_bar, transmission mirror 1
        # behind theta; equal as floats, one expression each
        p = CavityParams(kappa0, kappa1, kappa_prime, detuning)
        theta, theta_bar = model.input_phase_shifts(p)
        reflection = model.detected_port(p, FeedbackConfig(Port.REFLECTION, phi))
        transmission = model.detected_port(p, FeedbackConfig(Port.TRANSMISSION, phi))
        assert reflection == (p.kappa0, theta_bar, 0, phi + theta - theta_bar, phi - theta_bar)
        assert transmission == (p.kappa1, theta, 1, phi, phi)
        assert reflection._fields == ("kappa", "theta", "z", "cavity_angle", "input_angle")

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(amplitude=st.floats(-model.MAX_GAIN, model.MAX_GAIN),
           delay=st.floats(0.0, 1e-3), phi=st.floats(-10.0, 10.0),
           eta=st.floats(0.0, 1.0))
    def test_transmission_has_no_direct_path(self, amplitude, delay, phi, eta):
        p = make_cavity()
        fb = FeedbackConfig(Port.TRANSMISSION, phi, eta, FlatDelay(amplitude, delay))
        ratio = model.direct_ratio(p, fb)
        assert ratio == 0.0 and math.copysign(1.0, ratio) == 1.0
        tabulated = Tabulated(np.array([1.0, 2.0]), np.array([amplitude or 1.0, 1j]))
        assert model.direct_ratio(p, replace(fb, gain=tabulated)) == 0.0


class TestZetaOut:
    def test_reality(self, rng):
        p = make_cavity()
        for port in Port:
            fb = FeedbackConfig(port=port, phi=0.37, eta=0.8)
            w = rng.uniform(-3e6, 3e6, size=50)
            z_pos = model.zeta_out(p, fb, w)
            z_neg = model.zeta_out(p, fb, -w)
            np.testing.assert_allclose(np.conjugate(z_pos), z_neg, rtol=0, atol=1e-14)

    def test_zero_gain_gives_shot_noise(self):
        from loopcool import langevin

        p = make_cavity()
        m = MechanicsParams(omega_m=TWO_PI * 343e3, gamma_m=1.0, n_th=100.0, G=TWO_PI * 5e3)
        fb = FeedbackConfig(gain=FlatDelay(0.0))
        w = np.linspace(-3e6, 3e6, 101)
        s = langevin.observable_spectrum(p, replace(m, G=0.0), fb, w, "i_fb")
        np.testing.assert_allclose(s, 1.0)

    def test_transmission_peak_magnitude(self):
        # Delta >> kappa, omega = Delta: dominated by the resonant term
        p = make_cavity()
        fb = FeedbackConfig(port=Port.TRANSMISSION, phi=0.0)
        expected = math.sqrt(p.kappa0 * p.kappa1) / p.kappa
        assert abs(model.zeta_out(p, fb, p.detuning)) == pytest.approx(
            expected, rel=0.05
        )

    def test_port_structure(self):
        # z=1 has no direct term; z=0 carries -cos(phi - theta_bar)
        p = make_cavity(kappa1=TWO_PI * 4e3, kappa_prime=TWO_PI * 1e3)
        w = np.linspace(-2e6, 2e6, 7)
        theta, theta_bar = model.input_phase_shifts(p)
        chi_p = model.cavity_susceptibility(p, w)
        chi_m = np.conjugate(model.cavity_susceptibility(p, -w))
        for port, kappa_fb, theta_fb, z in (
            (Port.TRANSMISSION, p.kappa1, theta, 1),
            (Port.REFLECTION, p.kappa0, theta_bar, 0),
        ):
            phi = 0.83
            fb = FeedbackConfig(port=port, phi=phi)
            psi = phi - theta_fb
            chi_part = (
                math.sqrt(p.kappa0 * kappa_fb)
                / (2 * p.kappa)
                * (chi_p * np.exp(1j * psi) + chi_m * np.exp(-1j * psi))
            )
            direct = model.zeta_out(p, fb, w) - chi_part
            if z == 1:
                np.testing.assert_allclose(direct, 0.0, atol=1e-15)
            else:
                np.testing.assert_allclose(direct, -math.cos(psi), atol=1e-15)


class TestZetaCavity:
    def test_reality(self, rng):
        p = make_cavity()
        w = rng.uniform(-3e6, 3e6, size=50)
        np.testing.assert_allclose(
            np.conjugate(model.zeta_cavity(p, 0.55, w)),
            model.zeta_cavity(p, 0.55, -w),
            atol=1e-14,
        )

    def test_resonant_symmetric_case(self):
        p = make_cavity(detuning=0.0)
        assert model.zeta_cavity(p, 0.0, 0.0) == pytest.approx(2 * p.kappa0 / p.kappa)

    def test_against_direct_evaluation_at_stokes_frequency(self):
        p = make_cavity()
        w = -TWO_PI * 343.13e3
        theta, _ = model.input_phase_shifts(p)
        chi_p = model.cavity_susceptibility(p, w)
        chi_m = complex(np.conjugate(model.cavity_susceptibility(p, -w)))
        expected = (
            p.kappa0
            / (2 * p.kappa)
            * (
                chi_p * np.exp(1j * (0.0 - theta))
                + chi_m * np.exp(-1j * (0.0 - theta))
            )
        )
        assert model.zeta_cavity(p, 0.0, w) == pytest.approx(expected)


class TestPhotonNumberAndCoupling:
    # the tabletop drive: 33 uW at 1064 nm, g0/2pi = 0.84 Hz
    POWER, WAVELENGTH, G0 = 33e-6, 1064e-9, TWO_PI * 0.84

    def exp_params(self):
        p = make_cavity(kappa0=TWO_PI * 10.75e3, kappa1=TWO_PI * 10.75e3)
        m = MechanicsParams(omega_m=TWO_PI * 343.13e3, gamma_m=TWO_PI * 1.18, n_th=1.82e7)
        return p, m

    def coupling(self, p, power=POWER):
        return model.photon_number_and_coupling(p, power, self.WAVELENGTH, self.G0)

    def test_zero_power(self):
        p, _ = self.exp_params()
        assert self.coupling(p, 0.0) == (0.0, 0.0)

    def test_against_direct_arithmetic(self):
        p, _ = self.exp_params()
        n_c, coupling = self.coupling(p)
        omega_l = TWO_PI * 299792458.0 / 1064e-9
        expected_nc = (
            2 * p.kappa0 * 33e-6 / (hbar * omega_l * (p.kappa**2 + p.detuning**2))
        )
        assert n_c == pytest.approx(expected_nc, rel=1e-12)
        assert coupling == pytest.approx(self.G0 * math.sqrt(2 * n_c), rel=1e-12)

    def test_power_scaling(self):
        p, _ = self.exp_params()
        n1, g1 = self.coupling(p)
        n2, g2 = self.coupling(p, 66e-6)
        assert n2 == pytest.approx(2 * n1)
        assert g2 == pytest.approx(math.sqrt(2) * g1)

    @pytest.mark.parametrize("power, wavelength, g0", [
        (-1e-9, 1064e-9, 1.0), (math.inf, 1064e-9, 1.0), (33e-6, 0.0, 1.0),
        (33e-6, math.nan, 1.0), (33e-6, 1064e-9, math.nan), (33e-6, 1064e-9, -math.inf),
    ], ids=["negative_power", "infinite_power", "zero_wavelength", "nan_wavelength",
            "nan_g0", "infinite_g0"])
    def test_out_of_range_inputs_raise(self, power, wavelength, g0):
        p, _ = self.exp_params()
        with pytest.raises(ValidationError, match="drive_power"):
            model.photon_number_and_coupling(p, power, wavelength, g0)

    @pytest.mark.xfail(
        reason="quoted incident power implies ~4x the G^2 the cooling benchmarks "
        "give; incident-vs-coupled power is not resolvable from the published "
        "values",
        strict=True,
    )
    def test_consistency_with_cooling_benchmarks(self):
        p, m = self.exp_params()
        _, coupling = self.coupling(p)
        n_th = model.temperature_to_occupancy(300.0, m.omega_m)
        n_sc = model.temperature_to_occupancy(2.0, m.omega_m)
        target_sq = n_th * m.gamma_m * p.kappa / (2 * n_sc)
        assert coupling**2 == pytest.approx(target_sq, rel=0.3)


class TestGainModels:
    def test_flat_delay_conjugate_symmetry(self, rng):
        g = FlatDelay(0.7, delay=3e-7, phase_offset=math.pi)
        w = rng.uniform(-1e7, 1e7, size=40)
        np.testing.assert_allclose(np.conjugate(g(w)), g(-w), atol=1e-15)

    def test_flat_delay_rejects_other_offsets(self):
        with pytest.raises(ValidationError):
            FlatDelay(1.0, phase_offset=0.3)
        FlatDelay(1.0, phase_offset=-math.pi)  # multiples of pi are fine

    def test_flat_delay_is_amplitude_times_phase_factor(self, rng):
        g = FlatDelay(-0.7, delay=3e-7, phase_offset=math.pi)
        w = rng.uniform(-1e7, 1e7, size=40)
        assert np.array_equal(g(w), -0.7 * g.phase_factor(w))
        assert g(w[0]) == complex(-0.7 * g.phase_factor(w[0]))
        np.testing.assert_allclose(np.abs(g.phase_factor(w)), 1.0, rtol=1e-15)

    def test_tabulated_symmetry_and_domain(self):
        w = np.linspace(1e3, 1e6, 300)
        vals = 0.4 * np.exp(1j * (w * 5e-7 + math.pi))
        gain = Tabulated(w, vals)
        probe = np.array([2e3, 5e5])
        np.testing.assert_allclose(np.conjugate(gain(probe)), gain(-probe), atol=1e-15)
        with pytest.raises(CurveDomainError):
            gain(5e6)
        with pytest.raises(CurveDomainError):
            gain(10.0)

    def test_tabulated_interpolates_log_mag_unwrapped_phase(self):
        w = np.geomspace(1e3, 1e6, 60)
        corner = TWO_PI * 150e3
        vals = (1j * w / (1j * w + corner)) * np.exp(1j * w * 7.5e-7)
        gain = Tabulated(w, vals)
        probe = np.geomspace(2e3, 8e5, 57)
        expected = (1j * probe / (1j * probe + corner)) * np.exp(1j * probe * 7.5e-7)
        np.testing.assert_allclose(gain(probe), expected, rtol=3e-3)

    @pytest.mark.parametrize("omega, values, message", [
        ([1.0], [1.0], "Tabulated needs at least two samples"),
        ([1.0, 2.0], [1.0, 1.0, 1.0], "omega and values must have matching shapes"),
        ([1.0, 1.0, 2.0], [1.0, 1.0, 1.0], "Tabulated frequencies must strictly increase"),
        ([1.0, 2.0], [1.0, 0.0], "Tabulated sample magnitudes must lie in (0, 1e+06]"),
        ([-1.0, 2.0], [1.0, 1.0], "Tabulated frequencies must be positive"),
    ], ids=["one_sample", "shapes", "not_increasing", "zero_sample", "negative"])
    def test_tabulated_validation(self, omega, values, message):
        with pytest.raises(ValidationError) as raised:
            Tabulated(np.array(omega), np.array(values, complex))
        assert str(raised.value) == message

    def test_tabulated_compares_and_hashes_by_its_samples(self):
        # numpy's elementwise == used to make both raise
        w = np.linspace(1e3, 1e6, 50)
        vals = 0.4 * np.exp(1j * w * 5e-7)
        gain = Tabulated(w, vals)
        twin = Tabulated(w.copy(), list(vals))
        assert gain == twin and hash(gain) == hash(twin)
        assert gain != gain.scaled(1.0 + 1e-15)
        assert gain != Tabulated(w[:-1], vals[:-1])
        assert gain != FlatDelay(0.4)
        loop = FeedbackConfig(Port.TRANSMISSION, 0.0, 1.0, gain)
        assert loop == FeedbackConfig(Port.TRANSMISSION, 0.0, 1.0, twin)
        assert len({loop, replace(loop, gain=twin)}) == 1
        assert loop != replace(loop, gain=gain.scaled(0.5))


class TestParamValidation:
    def test_loop_phase_bound(self):
        # delay * max(|Delta|, omega_m, kappa): omega_m is the largest rate here
        p = make_cavity()
        m = MechanicsParams(omega_m=TWO_PI * 343e3, gamma_m=1.0, n_th=100.0)
        delay = model.MAX_LOOP_PHASE / m.omega_m
        model.check_loop_phase(p, m, FeedbackConfig(gain=FlatDelay(0.1, 0.99 * delay)))
        with pytest.raises(ValidationError, match="delay too long"):
            model.check_loop_phase(p, m, FeedbackConfig(gain=FlatDelay(0.1, 1.01 * delay)))
        # the bound follows the largest rate, here the detuning
        fast = make_cavity(detuning=100 * m.omega_m)
        with pytest.raises(ValidationError, match="delay too long"):
            model.check_loop_phase(fast, m, FeedbackConfig(gain=FlatDelay(0.1, 0.02 * delay)))
        # a tabulated gain has no delay to bound
        gain = Tabulated(np.array([1.0, 2.0]), np.ones(2, complex))
        model.check_loop_phase(fast, m, FeedbackConfig(gain=gain))

    def test_cavity(self):
        with pytest.raises(ValidationError):
            CavityParams(kappa0=-1.0, kappa1=0.0, kappa_prime=0.0, detuning=0.0)
        with pytest.raises(ValidationError):
            CavityParams(kappa0=0.0, kappa1=0.0, kappa_prime=0.0, detuning=0.0)
        with pytest.raises(ValidationError):
            CavityParams(kappa0=1.0, kappa1=0.0, kappa_prime=0.0, detuning=math.nan)

    def test_mechanics(self):
        with pytest.raises(ValidationError):
            MechanicsParams(omega_m=0.0, gamma_m=1.0, n_th=0.0)
        with pytest.raises(ValidationError):
            MechanicsParams(omega_m=1.0, gamma_m=1.0, n_th=-1.0)

    def test_feedback_eta_range(self):
        with pytest.raises(ValidationError):
            FeedbackConfig(eta=1.5)

    # one valid record of each kind; each test below moves one field
    VALID = {
        CavityParams: dict(kappa0=1.0, kappa1=0.5, kappa_prime=0.1, detuning=0.3),
        MechanicsParams: dict(omega_m=1.0, gamma_m=1e-3, n_th=5.0, G=0.1),
        FlatDelay: dict(amplitude=0.5, delay=1e-7),
        FeedbackConfig: dict(phi=0.2, eta=0.5),
        MembraneGeometry: dict(radius=1e-3, thickness=1e-7, density=3e3, sound_speed=500.0),
    }
    NUMERIC = [(cls, f.name) for cls in VALID for f in fields(cls) if "float" in str(f.type)]

    def record(self, cls, name, value):
        kwargs = {**self.VALID[cls], name: value}
        if name == "stress":  # a membrane takes a sound speed or a stress
            kwargs["sound_speed"] = None
        return cls(**kwargs)

    @pytest.mark.parametrize("cls, name", NUMERIC, ids=lambda v: getattr(v, "__name__", v))
    def test_every_numeric_field_is_checked_against_ranges(self, cls, name):
        lo, hi = model.RANGES[name]
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match=f"{name} must be finite and in"):
                self.record(cls, name, value)
        for end, outside in ((lo, -math.inf), (hi, math.inf)):
            if math.isfinite(end):
                assert getattr(self.record(cls, name, end), name) == end
                with pytest.raises(ValidationError, match=f"{name} must be finite and in"):
                    self.record(cls, name, math.nextafter(end, outside))

    def test_gain_samples_share_the_amplitude_bound(self):
        omega = np.linspace(1e3, 1e6, 8)
        gain = Tabulated(omega, np.full(8, model.MAX_GAIN * 1j))
        with pytest.raises(ValidationError, match="magnitudes"):
            Tabulated(omega, np.full(8, 2.0 * model.MAX_GAIN))
        with pytest.raises(ValidationError, match="magnitudes"):
            gain.scaled(1.5)
        with pytest.raises(ValidationError, match="magnitudes"):
            Tabulated(omega, np.full(8, complex(1.0, math.nan)))


class TestMembraneModes:
    GEOM = MembraneGeometry(
        radius=0.615e-3, thickness=97e-9, density=3100.0, sound_speed=551.3534489207402
    )

    def test_frequency_ratio_from_bessel_zero_table(self):
        modes = {(m.n, m.j): m for m in model.membrane_modes(self.GEOM, 1, 2)}
        ratio = modes[(0, 2)].omega / modes[(0, 1)].omega
        assert ratio == pytest.approx(5.5200781102863106 / 2.4048255576957728, rel=1e-12)
        assert ratio == pytest.approx(2.2954, abs=2e-4)

    def test_effective_mass_against_closed_form(self):
        # the closed form J_{n+1}(a)^2 / 2 against its defining integral
        # int_0^1 x J_n(a x)^2 dx, at a zero a of J_n
        modes = model.membrane_modes(self.GEOM, 4, 3)
        for mode in modes:
            alpha = special.jn_zeros(mode.n, mode.j)[-1]
            expected, _ = integrate.quad(
                lambda x: x * special.jv(mode.n, alpha * x) ** 2, 0.0, 1.0,
                epsabs=1e-10, epsrel=1e-10,
            )
            assert mode.m_eff_ratio == pytest.approx(expected, rel=1e-8)

    def test_fundamental_ratio_value(self):
        modes = model.membrane_modes(self.GEOM, 1, 1)
        assert modes[0].m_eff_ratio == pytest.approx(0.1348, abs=2e-4)

    def test_fundamental_frequency_round_trip(self):
        # sound speed back-solved from the quoted fundamental
        modes = model.membrane_modes(self.GEOM, 1, 1)
        assert modes[0].omega / TWO_PI == pytest.approx(343.13e3, rel=1e-4)

    def test_modes_sorted_and_mass(self):
        modes = model.membrane_modes(self.GEOM, 3, 3)
        freqs = [m.omega for m in modes]
        assert freqs == sorted(freqs)
        assert self.GEOM.physical_mass == pytest.approx(
            3100.0 * math.pi * 0.615e-3**2 * 97e-9
        )

    def test_stress_derived_sound_speed(self):
        geom = MembraneGeometry(
            radius=1e-3, thickness=1e-7, density=3100.0, stress=1e9
        )
        assert geom.c_s == pytest.approx(math.sqrt(1e9 / 3100.0))

    def test_validation(self):
        with pytest.raises(ValidationError):
            model.membrane_modes(self.GEOM, 0, 1)


class TestTemperatureConversion:
    def test_two_kelvin_occupancy(self):
        omega_m = TWO_PI * 343.13e3
        n = model.temperature_to_occupancy(2.0, omega_m)
        assert n == pytest.approx(k_B * 2.0 / (hbar * omega_m))
        assert n == pytest.approx(1.21e5, rel=5e-3)
        assert model.occupancy_to_temperature(n, omega_m) == pytest.approx(2.0)
