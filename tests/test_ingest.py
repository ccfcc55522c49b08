import io
import math
from dataclasses import replace

import numpy as np
import pytest

from loopcool import feedback, ingest
from loopcool.errors import BandError, ParseError, ValidationError
from loopcool.model import CavityParams, FeedbackConfig, FlatDelay, Port, Tabulated

TWO_PI = 2 * math.pi

KAPPA = TWO_PI * 20.15e3
DETUNING = TWO_PI * 330e3
OMEGA_M = TWO_PI * 343.13e3
DELAY = 750e-9
HP_CORNER = TWO_PI * 150e3


def cavity():
    return CavityParams(
        kappa0=KAPPA / 2, kappa1=KAPPA / 2, kappa_prime=0.0, detuning=DETUNING
    )


class MeasuredLikeFilter:
    """High-pass + low-pass + delay + inverting stage, tuned so the loop
    phase at the optimal detuning matches the benchmark margin of -0.59."""

    def __init__(self, lp_corner=TWO_PI * 244.5e3, amplitude=1.0):
        self.lp = lp_corner
        self.amplitude = amplitude

    def __call__(self, omega):
        omega = np.asarray(omega, dtype=float)
        hp = 1j * omega / (1j * omega + HP_CORNER)
        lp = self.lp / (self.lp + 1j * omega)
        return -self.amplitude * hp * lp * np.exp(1j * omega * DELAY)


def bode_csv(frequency_hz, mag_db, phase_rad):
    lines = ["# synthetic trace", "frequency_hz,magnitude_db,phase_rad"]
    for f, m, ph in zip(frequency_hz, mag_db, phase_rad):
        lines.append(f"{f},{m},{ph}")
    return io.StringIO("\n".join(lines) + "\n")


class TestParseBode:
    def test_well_formed(self):
        trace = ingest.parse_bode(bode_csv([1.0, 2.0, 3.0], [0, -3, -6], [0, 0.1, 0.2]))
        assert len(trace) == 3
        np.testing.assert_allclose(trace.frequency_hz, [1.0, 2.0, 3.0])

    def test_duplicate_frequency_names_line(self):
        # comment + header occupy lines 1-2; the duplicate sits on line 5
        with pytest.raises(ParseError, match=":5.*non-monotone"):
            ingest.parse_bode(bode_csv([1.0, 2.0, 2.0], [0, 0, 0], [0, 0, 0]))

    def test_empty_field_is_error(self):
        stream = io.StringIO(
            "frequency_hz,magnitude_db,phase_rad\n1.0,,0.0\n"
        )
        with pytest.raises(ParseError, match="malformed row"):
            ingest.parse_bode(stream)

    def test_non_numeric_is_error(self):
        stream = io.StringIO(
            "frequency_hz,magnitude_db,phase_rad\n1.0,-inf-ish,0.0\n"
        )
        with pytest.raises(ParseError, match="malformed row"):
            ingest.parse_bode(stream)

    def test_empty_file(self):
        with pytest.raises(ParseError, match="empty file"):
            ingest.parse_bode(io.StringIO(""))
        with pytest.raises(ParseError, match="no data rows"):
            ingest.parse_bode(io.StringIO("frequency_hz,magnitude_db,phase_rad\n"))

    def test_wrong_header(self):
        with pytest.raises(ParseError, match="expected header"):
            ingest.parse_bode(io.StringIO("freq,mag,phase\n1,2,3\n"))

    def test_file_path(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("frequency_hz,magnitude_db,phase_rad\n1.0,0.0,0.0\n2.0,1.0,0.1\n")
        trace = ingest.parse_bode(path)
        assert trace.source.endswith("trace.csv")


class TestParseSpectrum:
    def test_well_formed(self):
        spec = ingest.parse_spectrum(
            io.StringIO("frequency_hz,psd\n1.0,0.5\n2.0,0.25\n")
        )
        np.testing.assert_allclose(spec.omega, TWO_PI * np.array([1.0, 2.0]))

    def test_negative_psd(self):
        with pytest.raises(ParseError, match="negative PSD"):
            ingest.parse_spectrum(io.StringIO("frequency_hz,psd\n1.0,-0.5\n2.0,1.0\n"))

    def test_non_monotone(self):
        with pytest.raises(ParseError, match="non-monotone"):
            ingest.parse_spectrum(io.StringIO("frequency_hz,psd\n2.0,0.5\n1.0,1.0\n"))


class TestDecomposition:
    def freqs(self):
        return np.linspace(10e3, 3e6, 4000)

    def test_flat_delay_round_trip(self):
        p = cavity()
        true = FlatDelay(0.37, DELAY, math.pi)
        trace = ingest.compose_open_loop(true, p, Port.TRANSMISSION, self.freqs())
        filt = ingest.decompose_electronic_filter(trace, p, Port.TRANSMISSION)
        np.testing.assert_allclose(np.abs(filt.values), 0.37, rtol=1e-6)
        fitted = ingest.delay_from_phase(filt, filt.domain)
        assert fitted == pytest.approx(DELAY, abs=1e-9)
        # recompose and compare with the original trace
        back = ingest.compose_open_loop(filt, p, Port.TRANSMISSION, self.freqs())
        np.testing.assert_allclose(back.values(), trace.values(), rtol=1e-9)

    def test_measured_like_filter_recovery(self):
        p = cavity()
        true = MeasuredLikeFilter()
        trace = ingest.compose_open_loop(true, p, Port.TRANSMISSION, self.freqs())
        filt = ingest.decompose_electronic_filter(trace, p, Port.TRANSMISSION)
        # delay from the high band, where the filter corners add little slope
        fitted = ingest.delay_from_phase(filt, (TWO_PI * 2e6, TWO_PI * 3e6))
        assert fitted == pytest.approx(DELAY, abs=20e-9)
        # high-pass corner from a magnitude-model fit of the recovered filter
        from scipy.optimize import curve_fit

        w = filt.omega
        mags = np.abs(filt.values)

        def log_model(omega, amp, w_hp, w_lp):
            hp = omega / np.hypot(omega, w_hp)
            lp = w_lp / np.hypot(w_lp, omega)
            return np.log(amp * hp * lp)

        popt, _ = curve_fit(
            log_model, w, np.log(mags), p0=(1.0, TWO_PI * 1e5, TWO_PI * 3e5)
        )
        assert popt[1] == pytest.approx(HP_CORNER, rel=0.10)

    def test_loop_phase_margin_with_ingested_filter(self):
        # the full loop with the recovered electronics shows the benchmark
        # phase margin at the optimal detuning, and the optimal bare
        # detuning lands at the reported value
        p = cavity()
        trace = ingest.compose_open_loop(
            MeasuredLikeFilter(), p, Port.TRANSMISSION, self.freqs()
        )
        filt = ingest.decompose_electronic_filter(trace, p, Port.TRANSMISSION)
        fb = FeedbackConfig(port=Port.TRANSMISSION, phi=0.0, eta=1.0, gain=filt)
        delta_opt = feedback.optimal_bare_detuning(p, fb, OMEGA_M)
        assert delta_opt / TWO_PI == pytest.approx(329.4e3, abs=1e3)
        p_opt = replace(p, detuning=delta_opt)
        phase = np.angle(feedback.open_loop_transfer(p_opt, fb, delta_opt))
        assert phase == pytest.approx(-0.59, abs=0.05)

    def test_delay_with_constant_offset(self):
        w = TWO_PI * self.freqs()
        filt = Tabulated(w, 0.5 * np.exp(1j * (w * DELAY + math.pi)))
        fitted = ingest.delay_from_phase(filt, (w[0], w[-1]))
        assert fitted == pytest.approx(DELAY, rel=1e-6)

    def test_noisy_phase_delay(self, rng):
        w = TWO_PI * np.linspace(0.5e6, 3e6, 800)
        noise = rng.normal(0.0, 0.01, size=w.size)
        filt = Tabulated(w, np.exp(1j * (w * DELAY + noise)))
        fitted = ingest.delay_from_phase(filt, (w[0], w[-1]))
        assert fitted == pytest.approx(DELAY, rel=0.02)

    def test_band_too_sparse(self):
        w = TWO_PI * np.linspace(1e5, 1e6, 50)
        filt = Tabulated(w, np.exp(1j * w * DELAY))
        with pytest.raises(BandError, match="sparse"):
            ingest.delay_from_phase(filt, (w[0], w[0] + 1.0))

    def test_flatness_needs_three_samples(self):
        w = TWO_PI * np.linspace(1e5, 1e6, 50)
        filt = Tabulated(w, np.exp(1j * w * DELAY))
        with pytest.raises(BandError) as raised:
            ingest.phase_flatness(filt, (w[0], w[1]))
        assert str(raised.value) == "band too sparse for a flatness estimate"

    @pytest.mark.parametrize("f", [[1e3, 2e3, 2e3], [2e3, 1e3, 3e3]], ids=["repeated", "reversed"])
    def test_composed_trace_needs_increasing_frequencies(self, f):
        with pytest.raises(ValidationError) as raised:
            ingest.compose_open_loop(FlatDelay(1.0), cavity(), Port.TRANSMISSION, f)
        assert str(raised.value) == "trace frequencies must strictly increase"

    def test_wrong_port_detectable_by_flatness(self):
        p = cavity()
        true = FlatDelay(0.4, DELAY, math.pi)
        trace = ingest.compose_open_loop(true, p, Port.TRANSMISSION, self.freqs())
        right = ingest.decompose_electronic_filter(trace, p, Port.TRANSMISSION)
        wrong = ingest.decompose_electronic_filter(trace, p, Port.REFLECTION)
        band = (TWO_PI * 100e3, TWO_PI * 600e3)
        flat_right = ingest.phase_flatness(right, band)
        flat_wrong = ingest.phase_flatness(wrong, band)
        assert flat_right < 1e-9
        assert flat_wrong > 100 * max(flat_right, 1e-12)
        slope_wrong = ingest.delay_from_phase(wrong, band)
        assert abs(slope_wrong - DELAY) > 5e-9

    def test_blown_up_samples_dropped_with_warning(self):
        # tiny cavity and far-detuned samples push the response below the
        # division threshold
        p = CavityParams(kappa0=0.5, kappa1=0.5, kappa_prime=0.0, detuning=10.0)
        f = np.concatenate([np.linspace(0.1, 5.0, 50), np.linspace(1e7, 1.002e7, 4)])
        trace = ingest.compose_open_loop(FlatDelay(1.0), p, Port.TRANSMISSION, f)
        with pytest.warns(UserWarning, match="dropped 4 samples"):
            filt = ingest.decompose_electronic_filter(
                trace, p, Port.TRANSMISSION
            )
        assert filt.omega.size == 50

    def test_too_many_dropped_is_error(self):
        p = CavityParams(kappa0=0.5, kappa1=0.5, kappa_prime=0.0, detuning=10.0)
        f = np.concatenate([np.linspace(0.1, 5.0, 10), np.linspace(1e7, 1.01e7, 40)])
        trace = ingest.compose_open_loop(FlatDelay(1.0), p, Port.TRANSMISSION, f)
        with pytest.warns(UserWarning):
            with pytest.raises(ValidationError, match="too small"):
                ingest.decompose_electronic_filter(
                    trace, p, Port.TRANSMISSION
                )
