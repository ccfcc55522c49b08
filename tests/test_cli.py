import contextlib
import io
import itertools
import json
import math
import tempfile
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import closed_form
from loopcool import cli, cooling, ingest, langevin, optimize, presets
from loopcool.model import FlatDelay, MembraneGeometry, Port, membrane_modes

TWO_PI = 2 * math.pi


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_bode_copy(path, gain, f):
    """A Bode-trace CSV of `gain` sampled at the frequencies `f` (Hz)."""
    g = gain(2 * math.pi * f)
    rows = [f"{fi!r},{20 * math.log10(abs(gi))!r},{math.atan2(gi.imag, gi.real)!r}"
            for fi, gi in zip(f.tolist(), g.tolist())]
    path.write_text("frequency_hz,magnitude_db,phase_rad\n" + "\n".join(rows) + "\n")
    return path


class TestCooling:
    def test_experiment_no_feedback_reports_two_kelvin(self, tmp_path, capsys, experiment):
        code, out, err = run(["--out", str(tmp_path), "cooling"], capsys)
        assert code == 0 and err == ""
        assert "T=2" in out and "stable=True" in out
        sidecar = json.loads((tmp_path / "run_cooling.json").read_text())
        assert sidecar["result"]["temperature_final_k"] == pytest.approx(2.0, rel=1e-3)
        assert sidecar["config"]["mechanics"]["omega_m_hz"] == pytest.approx(343.13e3)

    def test_unstable_gain_exits_three(self, tmp_path, capsys, experiment):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "system": "experiment",
            "feedback": {"gain": {"type": "preset_gain_norm", "value": 1.05}},
        }))
        code, out, _ = run(
            ["--config", str(config), "--out", str(tmp_path), "cooling"], capsys
        )
        assert code == 3
        assert "stable=False" in out

    def test_loop_on_neutral_boundary_exits_three(self, tmp_path, capsys):
        # reflection loop whose direct ratio lies 6e-16 below 1: the exact
        # evaluator finds it on the retarded/neutral boundary
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "system": "experiment",
            "feedback": {
                "port": "reflection", "phi_rad": -2.603865296693537, "eta": 0.3875837894349707,
                "gain": {"type": "flat_delay", "amplitude": 0.9020343333059879,
                         "delay_s": 7.406897635804175e-07, "phase_offset_rad": 0.0},
            },
            "evaluator": {"kind": "langevin"},
        }))
        for command in ("cooling", "solve"):
            code, _, _ = run(["--config", str(config), "--out", str(tmp_path), command], capsys)
            assert code == 3, command

    def test_loop_within_an_ulp_of_the_neutral_boundary_exits_three(self, tmp_path, capsys):
        # a reflection loop whose direct ratio rounds to 1 (test_langevin's
        # ROUNDED_NEUTRAL_LOOPS[0]), in units of omega_m = 1 rad/s written in
        # Hz: its crossing probe read NaN, and cooling reported n = 14.63
        w = 1.0 / TWO_PI
        doc = {
            "cavity": {"kappa0_hz": 0.23209227321303258 * w, "kappa1_hz": 0.20375125325013443 * w,
                       "kappa_prime_hz": 0.011529731832936076 * w,
                       "detuning_hz": -0.4955816620385258 * w},
            "mechanics": {"omega_m_hz": w, "gamma_m_hz": 2.1951601552490525e-07 * w,
                          "n_th": 10.0, "coupling_hz": 0.0005042657638311589 * w},
            "feedback": {"port": "reflection", "phi_rad": -1.628373244092803,
                         "eta": 0.6022058311487298,
                         "gain": {"type": "flat_delay", "amplitude": -0.9753675453934559}},
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            code, out, cooled_err, outdir = _run_config(
                tmp_path, capsys, doc, ("--evaluator", "langevin", "cooling")
            )
            solved, _, err, _ = _run_config(tmp_path, capsys, doc, ("solve",))
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []
        assert code == 3 and "stable=False" in out
        result = json.loads((outdir / "run_cooling.json").read_text())["result"]
        assert "unstable: loop on the neutral boundary" in result["warnings"]
        assert solved == 3
        assert err == "error: loop on the neutral boundary\n"
        assert cooled_err == err

    @pytest.mark.parametrize("kind, reason", [
        ("weak", "no stationary weak-coupling occupancy"),
        ("langevin", "closed loop unstable; no stationary occupancy"),
    ])
    def test_unstable_cooling_names_its_reason_on_stderr(self, tmp_path, capsys, kind, reason):
        # past the loop threshold: one stderr line, solve's own under the
        # exact evaluator, and the sidecar's last warning names the same reason
        doc = {"system": "experiment",
               "feedback": {"gain": {"type": "preset_gain_norm", "value": 1.05}}}
        code, out, err, outdir = _run_config(
            tmp_path, capsys, doc, ("--evaluator", kind, "cooling")
        )
        assert code == 3 and out == "cooling: n_final=inf T=inf K stable=False\n"
        assert err == f"error: {reason}\n"
        result = json.loads((outdir / "run_cooling.json").read_text())["result"]
        assert result["stable"] is False
        assert result["warnings"][-1] == f"unstable: {reason}"
        if kind == "langevin":
            solved, _, solve_err, _ = _run_config(tmp_path, capsys, doc, ("solve",))
            assert solved == 3 and solve_err == err

    @pytest.mark.parametrize("doc, reason", [
        # fig1_optical's preset delay kept: the rates damp, the G = 0 loop winds twice
        ({"system": "fig1_optical",
          "feedback": {"phi_rad": 0.07427745862364432,
                       "gain": {"amplitude": 1.351391088977806}}},
         "decoupled loop fails the G = 0 Nyquist test"),
        # a reflection loop of neutral type (direct ratio 1.91) delayed by 0.01 / omega_m
        ({"cavity": {"kappa0_hz": 0.02 / TWO_PI, "kappa1_hz": 0.01 / TWO_PI,
                     "kappa_prime_hz": 0.05 / TWO_PI, "detuning_hz": 0.9832443963788964 / TWO_PI},
          "mechanics": {"omega_m_hz": 1.0 / TWO_PI, "gamma_m_hz": 1e-6 / TWO_PI, "n_th": 10.0,
                        "coupling_hz": 1e-4 / TWO_PI},
          "feedback": {"port": "reflection", "phi_rad": 0.8253462493365822, "eta": 0.05,
                       "gain": {"type": "flat_delay", "amplitude": 6.048726571822376,
                                "delay_s": 0.01}}},
         "delayed loop on or past the neutral boundary"),
    ], ids=["nyquist", "neutral"])
    def test_weak_unstable_cooling_names_its_rule(self, tmp_path, capsys, doc, reason):
        # the weak verdict's rule in the sidecar's warnings and on stderr
        code, out, err, outdir = _run_config(
            tmp_path, capsys, doc, ("--evaluator", "weak", "cooling")
        )
        assert code == 3 and out == "cooling: n_final=inf T=inf K stable=False\n"
        assert err == f"error: {reason}\n"
        result = json.loads((outdir / "run_cooling.json").read_text())["result"]
        assert result["gamma_opt"] > 0.0
        assert result["warnings"] == [f"unstable: {reason}"]

    def test_anti_damped_weak_rates_with_a_stable_exact_loop_exits_zero(self, tmp_path, capsys):
        # the weak rates anti-damp this strongly coupled loop, but det M has
        # no unstable zero: the exact evaluator finds its occupancy
        w = 1.0 / TWO_PI  # rates in units of omega_m = 1 rad/s, written in Hz
        doc = {
            "cavity": {"kappa0_hz": 0.18550629887984516 * w, "kappa1_hz": 0.03146344770606672 * w,
                       "kappa_prime_hz": 0.003912769137919975 * w,
                       "detuning_hz": 1.7793992771822393 * w},
            "mechanics": {"omega_m_hz": w, "gamma_m_hz": 2.4329637617185058e-08 * w,
                          "n_th": 10.0, "coupling_hz": 0.41142851811077824 * w},
            "feedback": {"port": "reflection", "phi_rad": -1.4746794644235939,
                         "eta": 0.26397096041167206,
                         "gain": {"type": "flat_delay", "amplitude": 1.0023144696801418,
                                  "delay_s": 3.771215962352912, "phase_offset_rad": math.pi}},
        }
        code, out, _, outdir = _run_config(
            tmp_path, capsys, doc, ("--evaluator", "langevin", "cooling")
        )
        assert code == 0 and "stable=True" in out
        result = json.loads((outdir / "run_cooling.json").read_text())["result"]
        assert result["stable"] is True
        assert result["n_final"] == pytest.approx(1.9510, rel=1e-4)
        assert result["a_plus"] - result["a_minus"] > 0.0

    def test_weak_anti_damped_sidecar_keeps_its_rates(self, tmp_path, capsys):
        # test_optimize's blue-detuned anti_damped_point: gamma_opt = -5e-3
        # against gamma_m = 1e-3, in units of rad/s written in Hz
        w = 1.0 / TWO_PI
        doc = {
            "cavity": {"kappa0_hz": w, "kappa1_hz": 0.0, "kappa_prime_hz": 0.0,
                       "detuning_hz": -5.0 * w},
            "mechanics": {"omega_m_hz": 5.0 * w, "gamma_m_hz": 1e-3 * w, "n_th": 7.0,
                          "coupling_hz": 0.05 * w},
            "feedback": {"gain": {"type": "flat_delay", "amplitude": 0.0}},
        }
        code, out, err, outdir = _run_config(
            tmp_path, capsys, doc, ("--evaluator", "weak", "cooling")
        )
        assert code == 3 and "stable=False" in out
        assert err == "error: no stationary weak-coupling occupancy\n"
        result = json.loads((outdir / "run_cooling.json").read_text())["result"]
        rates = cooling.scattering_rates(*cli.resolve_config(doc)[:3])
        assert (result["a_plus"], result["a_minus"]) == (rates.a_plus, rates.a_minus)
        assert result["stable"] is False and math.isinf(result["n_final"])
        assert result["warnings"] == ["optical anti-damping: a_plus exceeds a_minus",
                                      "unstable: no stationary weak-coupling occupancy"]

    def test_gain_norm_on_reflection_system_exits_two(self, tmp_path, capsys):
        # the normalized gain is defined for the transmission loop only
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "system": "fig1_optical",
            "feedback": {"gain": {"type": "preset_gain_norm", "value": 0.5}},
        }))
        code, _, err = run(
            ["--config", str(config), "--out", str(tmp_path), "cooling"], capsys
        )
        assert code == 2
        assert "no transmission gain normalization" in err

    @pytest.mark.parametrize("kind", ["weak", "langevin"])
    @pytest.mark.parametrize("system", ["fig1_optical", "fig1_microwave"])
    def test_reflection_sidecar_has_no_single_pole_cavity(self, tmp_path, capsys, system, kind):
        # the sidecar's single-pole keys are effective_cavity's, NaN off the
        # transmission port, written as JSON's NaN token
        code, _, _, outdir = _run_config(
            tmp_path, capsys, {"system": system}, ("--evaluator", kind, "cooling")
        )
        assert code == 0
        text = (outdir / "run_cooling.json").read_text()
        for key in ("delta_eff_hz", "gain_norm", "kappa_eff_hz"):
            assert f'    "{key}": NaN,\n' in text

    def test_trace_that_misses_the_detuning_has_no_single_pole(
        self, tmp_path, capsys, experiment
    ):
        # the experiment loop at gain_norm 0.5 traced from 336 kHz, above the
        # 330 kHz detuning: the weak report needs the gain at -+omega_m and on
        # the G = 0 contour only, so cooling writes its occupancy with NaN
        # single-pole keys, while effective-cavity, which reads the gain at the
        # detuning, exits 2
        f = np.geomspace(336e3, 1e8, 5000)
        path = write_bode_copy(tmp_path / "cut.csv", experiment.with_gain_norm(0.5).gain, f)
        doc = {"system": "experiment",
               "feedback": {"gain": {"type": "tabulated", "path": str(path)}}}
        code, out, err, outdir = _run_config(tmp_path, capsys, doc,
                                             ("--evaluator", "weak", "cooling"))
        assert (code, err) == (0, "")
        result = json.loads((outdir / "run_cooling.json").read_text())["result"]
        expected = optimize.evaluate(*cli.resolve_config(doc)[:3], "weak_coupling")
        assert result["n_final"] == expected.n_final == 58336.665166252016
        text = (outdir / "run_cooling.json").read_text()
        for key in ("delta_eff_hz", "gain_norm", "kappa_eff_hz"):
            assert f'    "{key}": NaN,\n' in text
        code, _, err, outdir = _run_config(tmp_path, capsys, doc, ("effective-cavity",))
        assert code == 2
        assert err.startswith("error: evaluation outside tabulated band")
        assert not (outdir / "run_effective-cavity.json").exists()

    def test_loop_inside_the_neutral_band_exits_three(self, tmp_path, capsys):
        # fig1_optical's loop without its delay, its direct ratio 3.9e-5 above
        # 1: the weak evaluator called it stable (n = 0.2508) where the exact
        # count finds it on the neutral boundary
        doc = {"system": "fig1_optical",
               "feedback": {"phi_rad": 1.9901137207329835,
                            "gain": {"amplitude": 0.6026078407424668, "delay_s": 0.0}}}
        for kind in ("weak", "langevin"):
            code, out, err, outdir = _run_config(
                tmp_path, capsys, doc, ("--evaluator", kind, "cooling")
            )
            assert code == 3 and out == "cooling: n_final=inf T=inf K stable=False\n", kind
            assert err == "error: loop on the neutral boundary\n", kind
            result = json.loads((outdir / "run_cooling.json").read_text())["result"]
            assert result["warnings"][-1] == "unstable: loop on the neutral boundary", kind

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"system": "experiment", "bogus": 1}))
        code, _, err = run(
            ["--config", str(config), "--out", str(tmp_path), "cooling"], capsys
        )
        assert code == 2
        assert "unknown keys" in err

    def test_explicit_sections_without_system(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "cavity": {"kappa0_hz": 10e3, "kappa1_hz": 10e3, "kappa_prime_hz": 0.0,
                       "detuning_hz": 330e3},
            "mechanics": {"omega_m_hz": 343.13e3, "gamma_m_hz": 1.18,
                          "bath_temperature_k": 300.0, "coupling_hz": 1600.0},
            "feedback": {"port": "transmission", "eta": 1.0,
                         "gain": {"type": "flat_delay", "amplitude": 0.0}},
        }))
        code, out, _ = run(
            ["--config", str(config), "--out", str(tmp_path), "cooling"], capsys
        )
        assert code == 0
        assert "n_final=" in out

    @pytest.mark.parametrize("key", ["coupling_hz", "n_th"])
    def test_non_finite_mechanics_exits_two(self, tmp_path, capsys, key):
        # 1e400 parses to inf; it must not reach the evaluator or the sidecar
        config = tmp_path / "cfg.json"
        config.write_text(
            '{"system": "experiment", "mechanics": {"%s": 1e400}}' % key
        )
        code, _, err = run(
            ["--config", str(config), "--out", str(tmp_path), "cooling"], capsys
        )
        assert code == 2
        assert "must be finite" in err
        assert not (tmp_path / "run_cooling.json").exists()

    def test_narrow_tabulated_band_exits_two(self, tmp_path, capsys):
        # a gain sampled only on 300-360 kHz fails the band guard: an input
        # error, not an instability
        path = tmp_path / "narrow.csv"
        rows = [f"{300e3 + 1e3 * k:g},-20,0" for k in range(61)]
        path.write_text("frequency_hz,magnitude_db,phase_rad\n" + "\n".join(rows) + "\n")
        doc = {"system": "experiment",
               "feedback": {"gain": {"type": "tabulated", "path": str(path)}}}
        code, _, err, outdir = _run_config(tmp_path, capsys, doc)
        assert code == 2
        assert "band too narrow" in err
        assert not (outdir / "run_cooling.json").exists()


    @pytest.mark.parametrize("kind", ["weak_coupling", "langevin"])
    def test_bode_copy_of_the_flat_gain_matches_it(self, tmp_path, capsys, experiment, kind):
        # the experiment loop at gain_norm 0.5, measured from 1 mHz to 1 GHz:
        # a trace reaching DC evaluates to the flat gain's occupancy
        f = np.geomspace(1e-3, 1e9, 60000)
        path = write_bode_copy(tmp_path / "copy.csv", experiment.with_gain_norm(0.5).gain, f)
        lines = []
        for gain in ({"type": "tabulated", "path": str(path)},
                     {"type": "preset_gain_norm", "value": 0.5}):
            doc = {"system": "experiment", "feedback": {"gain": gain}, "evaluator": {"kind": kind}}
            code, out, _, _ = _run_config(tmp_path, capsys, doc)
            assert code == 0
            lines.append(out)
        assert "stable=True" in lines[0] and lines[0] == lines[1]


class TestSpectrumCommand:
    def test_squash_spectrum_csv(self, tmp_path, capsys):
        code, out, _ = run(
            ["--out", str(tmp_path), "--points", "101",
             "--band", "300000:360000", "spectrum", "squash"],
            capsys,
        )
        assert code == 0
        rows = np.loadtxt(tmp_path / "run_spectrum_squash.csv", delimiter=",", skiprows=1)
        assert rows.shape == (101, 2)
        np.testing.assert_allclose(rows[:, 1], 1.0)  # preset default gain is off

    @pytest.mark.parametrize("gain", ["reflection", "tabulated"])
    def test_squash_matches_the_closed_form(self, tmp_path, capsys, experiment, gain):
        # the exact solve of i_fb at G = 0 against 1/|D|^2: a stable
        # reflection loop on fig1_optical, and a traced copy of the
        # experiment's gain at gain_norm 0.5
        if gain == "reflection":
            doc = {"system": "fig1_optical", "feedback": {"gain": {"amplitude": 0.3}}}
        else:
            f = np.geomspace(1e-3, 1e9, 60000)
            path = write_bode_copy(tmp_path / "copy.csv", experiment.with_gain_norm(0.5).gain, f)
            doc = {"system": "experiment",
                   "feedback": {"gain": {"type": "tabulated", "path": str(path)}}}
        code, _, _, outdir = _run_config(tmp_path, capsys, doc, ("--points", "201", "spectrum"))
        assert code == 0
        rows = np.loadtxt(outdir / "run_spectrum_squash.csv", delimiter=",", skiprows=1)
        p, _, fb = cli.resolve_config(doc)[:3]
        expected = closed_form.squash_spectrum(p, fb, TWO_PI * rows[:, 0])
        assert np.ptp(expected) > 0.1
        np.testing.assert_allclose(rows[:, 1], expected, rtol=1e-10)

    def test_squash_ignores_the_coupling(self, tmp_path, capsys):
        # squash is the decoupled loop's spectrum: the membrane's coupling
        # changes no byte of it
        csvs = []
        for coupling in (0.0, 1600.0, 20e3):
            doc = {"system": "experiment", "mechanics": {"coupling_hz": coupling},
                   "feedback": {"gain": {"type": "preset_gain_norm", "value": 0.6}}}
            code, _, _, outdir = _run_config(tmp_path, capsys, doc,
                                             ("--points", "101", "spectrum", "squash"))
            assert code == 0
            csvs.append((outdir / "run_spectrum_squash.csv").read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]
        assert csvs[0].count(b"\n") == 102

    @pytest.mark.parametrize("observable", ["q_mech", "n_mech", "squash"])
    def test_unstable_loop_exits_three(self, tmp_path, capsys, observable):
        # past the loop threshold there is no stationary state to take a
        # spectrum of, as for solve
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "system": "experiment",
            "feedback": {"gain": {"type": "preset_gain_norm", "value": 1.05}},
        }))
        code, _, err = run(
            ["--config", str(config), "--out", str(tmp_path), "spectrum", observable],
            capsys,
        )
        assert code == 3
        assert "closed loop unstable" in err
        assert not list(tmp_path.glob("run_spectrum*"))

    def test_neutral_squash_loop_exits_three(self, tmp_path, capsys):
        # a neutral-type reflection loop (direct ratio above 1, delay > 0) has
        # infinitely many unstable poles; the sampled G = 0 contour winds zero
        # times around it, the exact zero count does not
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "system": "fig1_optical",
            "cavity": {"detuning_hz": 141460262.53904572 / (2 * math.pi)},
            "feedback": {
                "port": "reflection", "phi_rad": -1.8992086968500186,
                "eta": 0.9025892083671126,
                "gain": {"amplitude": 0.5735033868544581,
                         "delay_s": 3.4125843011659366e-08, "phase_offset_rad": 0.0},
            },
        }))
        code, _, err = run(
            ["--config", str(config), "--out", str(tmp_path), "spectrum", "squash"], capsys
        )
        assert code == 3
        assert "closed loop unstable" in err
        assert not list(tmp_path.glob("run_spectrum*"))

    @pytest.mark.parametrize(
        "observable, band", [("x_cavity", "1e5:inf"), ("n_mech", "-inf:1e6")]
    )
    def test_non_finite_band_exits_two(self, tmp_path, capsys, observable, band):
        code, _, err = run(
            ["--out", str(tmp_path), f"--band={band}", "spectrum", observable], capsys
        )
        assert code == 2
        assert "--band bounds must be finite" in err
        assert not list(tmp_path.glob("run_spectrum*"))


class TestSolveAndOptimize:
    def test_solve_reports_occupancy(self, tmp_path, capsys, experiment):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "system": "experiment",
            "feedback": {"gain": {"type": "preset_gain_norm", "value": 0.85}},
        }))
        code, out, _ = run(
            ["--config", str(config), "--out", str(tmp_path), "solve"], capsys
        )
        assert code == 0
        assert "n_final=" in out
        assert (tmp_path / "run_displacement.csv").exists()

    @pytest.mark.parametrize("rtol", [0.0, 1e-20, -1e-3])
    def test_out_of_range_rtol_exits_two(self, tmp_path, capsys, monkeypatch, rtol):
        # a lowered refinement cap keeps a runaway quadrature short
        monkeypatch.setattr(langevin, "_MAX_ROUNDS", 4)
        config = tmp_path / "cfg.json"
        # gain_norm 1.05 is past the loop threshold: rtol is checked before
        # the unstable verdict, which would exit 3; the weak evaluator does
        # not read rtol, but a config's value is checked whatever the kind
        for kind, feedback in itertools.product(
            ("weak", "langevin"), ({}, {"gain": {"type": "preset_gain_norm", "value": 1.05}})
        ):
            config.write_text(json.dumps({
                "system": "experiment",
                "feedback": feedback,
                "evaluator": {"kind": kind, "rtol": rtol},
            }))
            for command in (
                ["solve"], ["cooling"],
                ["--points", "2", "optimize", "--free", "homodyne_phase:0:1"],
            ):
                code, _, err = run(
                    ["--config", str(config), "--out", str(tmp_path), *command], capsys
                )
                assert code == 2, (kind, feedback, command)
                assert "rtol" in err

    @pytest.mark.parametrize("kind, flag", [("weak", "langevin"), ("langevin", "weak")])
    def test_out_of_range_rtol_exits_two_under_evaluator_flag(
        self, tmp_path, capsys, kind, flag
    ):
        # the flag picks the evaluator, but the config's rtol is checked either way
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "system": "experiment", "evaluator": {"kind": kind, "rtol": -1},
        }))
        code, out, err = run(
            ["--config", str(config), "--out", str(tmp_path), "--evaluator", flag, "cooling"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "rtol must be finite and at least 1e-12" in err
        assert not (tmp_path / "run_cooling.json").exists()

    @pytest.mark.parametrize("command, printed", [
        (["cooling"], "n_final="),
        (["--points", "2", "optimize", "--free", "homodyne_phase:2.9:3.0"], "n_min="),
    ], ids=["cooling", "optimize"])
    def test_configured_rtol_reaches_the_quadrature(
        self, tmp_path, capsys, experiment, command, printed
    ):
        outputs = {}
        for rtol in (1e-3, 1e-9):
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({
                "system": "experiment",
                "feedback": {"gain": {"type": "preset_gain_norm", "value": 0.85}},
                "evaluator": {"kind": "langevin", "rtol": rtol},
            }))
            code, out, _ = run(
                ["--config", str(config), "--out", str(tmp_path), *command], capsys
            )
            assert code == 0
            sidecar = json.loads(next(tmp_path.glob("run_*.json")).read_text())
            assert sidecar["config"]["evaluator"] == {"kind": "langevin", "rtol": rtol}
            outputs[rtol] = out.split(printed)[1].split()[0]
        assert outputs[1e-3] != outputs[1e-9]

    def test_optimize_gain(self, tmp_path, capsys, experiment):
        sys = experiment
        hi = 1.2 / sys.gain_norm_per_amplitude
        code, out, _ = run(
            ["--out", str(tmp_path), "--points", "9", "optimize",
             "--free", f"gain_amplitude:0:{hi}"],
            capsys,
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "run_optimize.json").read_text())
        best = sidecar["result"]["best_occupancy"]
        assert best < 0.25 * 1.2145e5
        assert 0.0 < sidecar["result"]["delay_margin_s"] < math.inf
        assert "stability_margin" not in sidecar["result"]

    @pytest.mark.parametrize("name, lo, hi", [
        ("detuning", 320e3, 350e3), ("coupling", 1000.0, 2000.0),
    ])
    def test_optimize_reports_best_params_in_hz(self, tmp_path, capsys, name, lo, hi):
        # the loop is on, so detuning and coupling both move the occupancy
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "system": "experiment",
            "feedback": {"gain": {"type": "preset_gain_norm", "value": 0.5}},
        }))
        out = tmp_path / "out"
        code, _, _ = run(["--config", str(config), "--out", str(out), "--points", "3",
                          "optimize", "--free", f"{name}:{lo}:{hi}"], capsys)
        assert code == 0
        best = json.loads((out / "run_optimize.json").read_text())["result"]["best_params"]
        assert list(best) == [name]
        assert lo <= best[name] <= hi

    def test_optimize_reversed_bounds_exit_two(self, tmp_path, capsys):
        code, _, err = run(
            ["--out", str(tmp_path), "--points", "3", "optimize",
             "--free", "gain_amplitude:0.5:0.02"],
            capsys,
        )
        assert code == 2
        assert "lo < hi" in err
        assert not list(tmp_path.iterdir())

    def test_optimize_repeated_free_variable_exits_two(self, tmp_path, capsys):
        # the later range used to replace the earlier one
        code, _, err = run(
            ["--out", str(tmp_path), "--points", "3", "optimize",
             "--free", "gain_amplitude:0:0.5", "--free", "gain_amplitude:0.1:0.2"],
            capsys,
        )
        assert code == 2
        assert "'gain_amplitude'" in err
        assert not list(tmp_path.iterdir())

    def test_optimize_without_free_is_validation_error(self, tmp_path, capsys):
        code, _, err = run(["--out", str(tmp_path), "optimize"], capsys)
        assert code == 2

    def test_optimize_without_stable_point_exits_three(self, tmp_path, capsys, experiment):
        per_amp = experiment.gain_norm_per_amplitude
        code, _, err = run(
            ["--out", str(tmp_path), "--points", "3", "optimize",
             "--free", f"gain_amplitude:{1.05 / per_amp}:{1.5 / per_amp}"],
            capsys,
        )
        assert code == 3
        assert "no stable point" in err

    def test_unknown_system_exits_two(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"system": "bogus"}))
        code, _, err = run(
            ["--config", str(config), "--out", str(tmp_path), "cooling"], capsys
        )
        assert code == 2
        assert "unknown system" in err


class TestPresetCommand:
    def test_fig3_bundle(self, tmp_path, capsys):
        code, out, _ = run(
            ["--out", str(tmp_path), "preset", "fig3_effective_cavity"], capsys
        )
        assert code == 0
        assert (tmp_path / "fig3_kappa_eff.csv").exists()
        assert (tmp_path / "fig3_delta_eff_shift.csv").exists()
        assert (tmp_path / "fig3_effective_cavity.json").exists()


def _record_bits(record):
    """A record's fields, floats as their hex bits and nested records alike."""
    return {
        f.name: _record_bits(v) if is_dataclass(v) else v.hex() if isinstance(v, float) else v
        for f in fields(record) for v in [getattr(record, f.name)]
    }


class TestManifestSystemBlock:
    """A figure manifest describes each system by the config sections a CLI
    sidecar echoes, so the block alone rebuilds the preset's records."""

    @pytest.mark.parametrize("name", optimize.PRESET_NAMES)
    def test_block_rebuilds_the_preset_and_matches_the_sidecar(self, tmp_path, capsys, name):
        optimize.figure_preset(name, tmp_path, points=2)
        manifest = json.loads((tmp_path / f"{name}.json").read_text())
        for block in manifest.get("systems", [manifest]):
            sections = {key: block[key] for key in ("cavity", "mechanics", "feedback")}
            # no 'system' key: every field comes from the block, none from the preset
            p, m, fb, _, _ = cli.resolve_config(sections)
            sys = presets.get_system(block["system"])
            assert [_record_bits(r) for r in (p, m, fb)] == [
                _record_bits(r) for r in (sys.cavity, sys.mechanics, sys.loop)
            ]
            code, _, _, outdir = _run_config(tmp_path, capsys, {"system": block["system"]})
            assert code == 0
            config = json.loads((outdir / "run_cooling.json").read_text())["config"]
            del config["units"], config["evaluator"]
            assert config == sections


class TestIngestCommand:
    def test_decompose_and_delay(self, tmp_path, capsys, experiment_empty):
        sys = experiment_empty
        f = np.linspace(10e3, 3e6, 2000)
        trace = ingest.compose_open_loop(
            FlatDelay(0.4, 750e-9, math.pi), sys.cavity, Port.TRANSMISSION, f
        )
        path = tmp_path / "trace.csv"
        with open(path, "w") as fh:
            fh.write("frequency_hz,magnitude_db,phase_rad\n")
            for row in zip(trace.frequency_hz, trace.magnitude_db, trace.phase_rad):
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"system": "experiment_empty"}))
        code, out, _ = run(
            ["--config", str(config), "--out", str(tmp_path), "ingest",
             "--bode", str(path)],
            capsys,
        )
        assert code == 0
        assert "delay=750" in out
        assert (tmp_path / "run_filter.csv").exists()

    @pytest.mark.parametrize("band, message", [
        ("1:x", "--band expects lo:hi in Hz, got '1:x'"),
        ("1:2", "band too sparse"),
    ], ids=["malformed", "sparse"])
    def test_bad_band_exits_two_and_writes_nothing(self, tmp_path, capsys, band, message):
        # the filter CSV used to be written before the band was read
        path = write_bode_copy(tmp_path / "trace.csv", FlatDelay(0.4, 750e-9, math.pi),
                               np.linspace(10e3, 3e6, 200))
        out = tmp_path / "out"
        code, stdout, err = run(["--out", str(out), "ingest", "--bode", str(path),
                                 "--band", band], capsys)
        assert code == 2 and not stdout
        assert message in err
        assert not list(out.iterdir())

    def test_malformed_trace_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("frequency_hz,magnitude_db,phase_rad\n1.0,,0\n")
        code, _, err = run(
            ["--out", str(tmp_path), "ingest", "--bode", str(path)], capsys
        )
        assert code == 2
        assert "malformed" in err

    def test_missing_trace_exits_two(self, tmp_path, capsys):
        path = tmp_path / "absent.csv"
        code, _, err = run(["--out", str(tmp_path), "ingest", "--bode", str(path)], capsys)
        assert code == 2
        assert f"No such file or directory: '{path}'" in err

    @pytest.mark.parametrize("command", ["ingest", "cooling"])
    def test_non_finite_trace_exits_two(self, tmp_path, capsys, command):
        # a nan magnitude on line 6, read as a trace and as a tabulated gain
        path = tmp_path / "nan.csv"
        rows = [f"{1e3 * k:g},0,0" for k in range(1, 21)]
        rows[4] = "5e3,nan,0"
        path.write_text("frequency_hz,magnitude_db,phase_rad\n" + "\n".join(rows) + "\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "system": "experiment",
            "feedback": {"gain": {"type": "tabulated", "path": str(path)}},
        }))
        if command == "ingest":
            args = ["--out", str(tmp_path), "ingest", "--bode", str(path)]
        else:
            args = ["--config", str(config), "--out", str(tmp_path), "cooling"]
        code, _, err = run(args, capsys)
        assert code == 2
        assert f"{path}:6: non-finite" in err


class TestByteIdenticalArtifacts:
    """Every command writes the same bytes, CSV and sidecar, on a second run."""

    @pytest.mark.parametrize("argv", [
        ["cooling"],
        ["effective-cavity"],
        *(pytest.param(["--points", "64", "spectrum", observable], id=f"spectrum-{observable}")
          for observable in ("i_fb", "x_cavity", "q_mech", "n_mech", "squash")),
        ["solve"],
        ["--points", "3", "optimize", "--free", "gain_amplitude:0:2"],
        ["ingest", "--bode", "trace.csv"],
        ["membrane", "--j", "3"],
    ], ids=lambda argv: next(a for a in argv if a[0].isalpha()))
    def test_two_runs_write_the_same_bytes(self, tmp_path, capsys, experiment_empty, argv):
        f = np.linspace(10e3, 3e6, 400)
        trace = ingest.compose_open_loop(
            FlatDelay(0.4, 750e-9, math.pi), experiment_empty.cavity, Port.TRANSMISSION, f
        )
        rows = zip(trace.frequency_hz, trace.magnitude_db, trace.phase_rad)
        (tmp_path / "trace.csv").write_text("frequency_hz,magnitude_db,phase_rad\n" + "".join(
            ",".join(format(v, ".17g") for v in row) + "\n" for row in rows
        ))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "system": "experiment",
            "feedback": {"gain": {"type": "preset_gain_norm", "value": 0.9}},
        }))
        argv = [str(tmp_path / a) if a == "trace.csv" else a for a in argv]
        if argv[0] != "membrane":
            argv = ["--config", str(config), *argv]
        written = []
        for sub in ("a", "b"):
            code, _, _ = run(["--out", str(tmp_path / sub), *argv], capsys)
            assert code == 0
            written.append({p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()})
        assert written[0] and written[0] == written[1]


class TestMembraneCommand:
    def test_mode_table_led_by_fundamental(self, tmp_path, capsys):
        code, out, _ = run(
            ["--out", str(tmp_path), "membrane", "--radius", "0.615e-3", "--j", "3"],
            capsys,
        )
        assert code == 0
        first = out.strip().splitlines()[0]
        assert first.startswith("(0,1)")
        assert "343.1" in first
        rows = (tmp_path / "membrane_modes.csv").read_text().splitlines()
        assert rows[0] == "n,j,frequency_hz,m_eff_ratio"
        assert len(rows) == 4  # header + (0,1..3)

    def test_stress_keeps_preset_geometry(self, tmp_path, capsys):
        code, _, _ = run(["--out", str(tmp_path), "membrane", "--stress", "1e9"], capsys)
        assert code == 0
        geom = MembraneGeometry(0.615e-3, 97e-9, 3100.0, stress=1e9)
        expected = ["n,j,frequency_hz,m_eff_ratio"] + [
            f"{mode.n},{mode.j},{mode.omega / TWO_PI:.17g},{mode.m_eff_ratio:.17g}"
            for mode in membrane_modes(geom, 1, 3)
        ]
        assert (tmp_path / "membrane_modes.csv").read_text().splitlines() == expected

    def test_sound_speed_with_stress_exits_two(self, tmp_path, capsys):
        code, _, err = run(
            ["--out", str(tmp_path), "membrane", "--sound-speed", "551.3534489207402",
             "--stress", "1e9"],
            capsys,
        )
        assert code == 2
        assert "not both" in err
        assert not (tmp_path / "membrane_modes.csv").exists()


class TestEffectiveCavityCommand:
    def test_reports_narrowed_linewidth(self, tmp_path, capsys, experiment_empty):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "system": "experiment_empty",
            "feedback": {"gain": {"type": "preset_gain_norm", "value": 0.9}},
        }))
        code, out, _ = run(
            ["--config", str(config), "--out", str(tmp_path), "effective-cavity"],
            capsys,
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "run_effective-cavity.json").read_text())
        result = sidecar["result"]
        assert result["kappa_eff_hz"] == pytest.approx(0.1 * 20.15e3, rel=1e-9)
        assert result["single_pole_valid"] is True

    @pytest.mark.parametrize("system", ["fig1_optical", "fig1_microwave"])
    def test_reflection_port_exits_two(self, tmp_path, capsys, system):
        code, _, err, outdir = _run_config(tmp_path, capsys, {"system": system},
                                           ("effective-cavity",))
        assert code == 2
        assert "needs a transmission-port loop" in err
        assert not (outdir / "run_effective-cavity.json").exists()

    def test_evaluator_override_flag(self, tmp_path, capsys, experiment):
        code, out, _ = run(
            ["--out", str(tmp_path), "--evaluator", "langevin", "cooling"], capsys
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "run_cooling.json").read_text())
        assert sidecar["config"]["evaluator"]["kind"] == "langevin"


def _run_config(tmp_path, capsys, doc, command=("cooling",)):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    return (*run(["--config", str(config), "--out", str(out), *command], capsys), out)


#: the accepted-range checker's message
_RANGE = "must be finite and in"

#: cavity and mechanics sections that stand without a 'system'
_BARE = {
    "cavity": {"kappa0_hz": 10e3, "kappa1_hz": 10e3, "detuning_hz": 330e3},
    "mechanics": {"omega_m_hz": 343.13e3, "gamma_m_hz": 1.18, "n_th": 100.0},
}


class TestConfigReader:
    @pytest.mark.parametrize("doc, key", [
        ({"cavity": {"detuning_hz": "330e3"}}, "cavity.detuning_hz"),
        ({"feedback": {"eta": "x"}}, "feedback.eta"),
        ({"mechanics": {"n_th": "5"}}, "mechanics.n_th"),
        ({"evaluator": {"rtol": "x"}}, "evaluator.rtol"),
        ({"feedback": {"gain": {"amplitude": None}}}, "feedback.gain.amplitude"),
        ({"system": ["experiment"]}, "system"),
        ({"feedback": 5}, "feedback"),
        ({"feedback": {"gain": 5}}, "feedback.gain"),
        ({"mechanics": {"coupling_hz": True}}, "mechanics.coupling_hz"),
        ({"feedback": {"port": 1}}, "feedback.port"),
        ({"evaluator": {"kind": None}}, "evaluator.kind"),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_wrong_typed_value_exits_two(self, tmp_path, capsys, doc, key):
        code, _, err, outdir = _run_config(tmp_path, capsys, {"system": "experiment", **doc})
        assert code == 2
        assert f"error: {key} must be" in err
        assert not list(outdir.iterdir())

    @pytest.mark.parametrize("doc", [
        {"system": "experiment", "feedback": {"eta": 0.5}},
        {"system": "experiment", "feedback": {"phi_rad": 0.1}},
        {"system": "experiment", "feedback": {"port": "transmission"}},
        {"system": "experiment", "feedback": {"eta": 0.5, "phi_rad": 0.1, "port": "transmission"}},
        {"system": "experiment", "cavity": {"detuning_hz": 250e3}},
        {"system": "fig1_microwave", "feedback": {"port": "transmission"}},
        {**_BARE, "feedback": {"eta": 0.5}},
    ], ids=["eta", "phi_rad", "port", "eta-phi_rad-port", "detuning", "microwave", "no_system"])
    def test_preset_gain_norm_normalizes_the_configured_loop(self, tmp_path, capsys, doc):
        # the norm scales the loop the other sections resolved, not the preset's
        fbs = {**doc["feedback"]} if "feedback" in doc else {}
        fbs["gain"] = {"type": "preset_gain_norm", "value": 0.85}
        code, _, _, outdir = _run_config(
            tmp_path, capsys, {**doc, "feedback": fbs}, ("effective-cavity",)
        )
        assert code == 0
        sidecar = json.loads((outdir / "run_effective-cavity.json").read_text())
        assert sidecar["result"]["gain_norm"] == pytest.approx(0.85, rel=1e-12)
        for key in ("eta", "phi_rad"):
            if key in fbs:
                assert sidecar["config"]["feedback"][key] == fbs[key]

    @pytest.mark.parametrize("doc, unit", [
        ({"system": "experiment", "feedback": {"port": "reflection"}}, "nan"),
        ({"system": "experiment", "feedback": {"eta": 0.0}}, "0"),
        ({**_BARE, "cavity": {**_BARE["cavity"], "kappa1_hz": 0.0}}, "0"),
    ], ids=["reflection", "blind", "one_sided"])
    def test_preset_gain_norm_without_normalization_exits_two(self, tmp_path, capsys, doc, unit):
        fbs = {**doc.get("feedback", {}), "gain": {"type": "preset_gain_norm", "value": 0.85}}
        code, out, err, outdir = _run_config(
            tmp_path, capsys, {**doc, "feedback": fbs}, ("effective-cavity",)
        )
        assert code == 2 and not out
        assert err == f"error: no transmission gain normalization: unit gain_norm {unit}\n"
        assert not list(outdir.iterdir())

    @pytest.mark.parametrize("kind, stray", [
        ("flat_delay", {"value": 0.5}),
        ("flat_delay", {"path": "nope.csv"}),
        ("tabulated", {"amplitude": 5.0}),
        ("tabulated", {"amplitude": 5.0, "delay_s": 1.0}),
        ("preset_gain_norm", {"amplitude": 7.0}),
        ("preset_gain_norm", {"amplitude": 7.0, "delay_s": 1e-3, "path": "nope.csv"}),
    ], ids=lambda v: v if isinstance(v, str) else "-".join(v))
    def test_gain_type_rejects_keys_it_does_not_read(
        self, tmp_path, capsys, experiment, kind, stray
    ):
        # each runs with exit 0 without its stray keys
        own = {
            "flat_delay": {},
            "tabulated": {"path": str(write_bode_copy(
                tmp_path / "copy.csv", experiment.with_gain_norm(0.5).gain,
                np.geomspace(1e-3, 1e8, 5000),
            ))},
            "preset_gain_norm": {"value": 0.5},
        }[kind]
        doc = {"system": "experiment", "feedback": {"gain": {"type": kind, **own, **stray}}}
        code, _, err, outdir = _run_config(tmp_path, capsys, doc)
        assert code == 2
        assert repr(kind) in err and all(repr(key) in err for key in stray)
        assert not list(outdir.iterdir())

    @pytest.mark.parametrize("path", [987654, 5.5, ["trace.csv"], None])
    def test_gain_path_must_name_a_readable_file(self, tmp_path, capsys, path):
        # open() reads an integer as a file descriptor, so a path must be a
        # string; 987654 is a descriptor no process has open.  None stands
        # for a file that does not exist
        missing = str(tmp_path / "missing.csv")
        doc = {"system": "experiment",
               "feedback": {"gain": {"type": "tabulated", "path": path or missing}}}
        code, _, err, outdir = _run_config(tmp_path, capsys, doc)
        assert code == 2
        assert ("missing.csv" if path is None else "feedback.gain.path") in err
        assert not list(outdir.iterdir())

    @pytest.mark.parametrize("label", ["../escaped", "a/b", "<tmp>/abs", ".", "..", "", "a\0b"])
    def test_label_must_be_a_plain_name(self, tmp_path, capsys, label):
        label = label.replace("<tmp>", str(tmp_path))
        doc = {"system": "experiment", "output": {"label": label}}
        code, _, err, outdir = _run_config(tmp_path, capsys, doc)
        assert code == 2
        assert "output.label" in err
        assert not list(outdir.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]

    def test_plain_label_names_every_artifact(self, tmp_path, capsys):
        doc = {"system": "experiment", "output": {"label": "run-1.a"}}
        code, _, _, outdir = _run_config(tmp_path, capsys, doc, ["solve"])
        assert code == 0
        assert sorted(p.name for p in outdir.iterdir()) == [
            "run-1.a_displacement.csv", "run-1.a_solve.json"
        ]

    @pytest.mark.parametrize("doc, message", [
        ({"cavity": {"detuning_hz": 1e300}}, _RANGE),  # detuning**2 in input_phase_shifts
        ({"mechanics": {"omega_m_hz": 1e-308, "bath_temperature_k": 1.0}},
         _RANGE),  # hbar omega_m == 0
        ({"feedback": {"gain": {"amplitude": 1e100}}},
         _RANGE),  # its zero count overflowed to "stable"
        ({"feedback": {"gain": {"phase_offset_rad": 1e400}}},
         _RANGE),  # math.remainder(inf, pi) raised
        ({"feedback": {"gain": {"delay_s": math.nan}}}, _RANGE),
        ({"feedback": {"gain": {"delay_s": 1e300}}}, _RANGE),
        ({"mechanics": {"n_th": math.inf}}, _RANGE),  # echoed as Infinity
        ({"feedback": {"phi_rad": math.nan}}, _RANGE),
        # in range, but delay * omega_m = 2.2e166 rad leaves the phase no resolution
        ({"feedback": {"gain": {"amplitude": 0.1, "delay_s": 1e160}}},
         "delay too long: loop phase 2.15595e+166 exceeds 1e+06 rad"),
    ], ids=["huge_detuning", "tiny_omega_m", "huge_amplitude", "infinite_phase_offset",
            "nan_delay", "huge_delay", "infinite_n_th", "nan_phi",
            "unresolved_delay"])
    def test_out_of_range_number_exits_two(self, tmp_path, capsys, doc, message):
        code, _, err, outdir = _run_config(
            tmp_path, capsys, {"system": "experiment", **doc}, ["effective-cavity"]
        )
        assert code == 2
        assert message in err
        assert not list(outdir.iterdir())

    @pytest.mark.parametrize("section, key", [
        ("cavity", "drive_power_w"), ("cavity", "laser_wavelength_m"), ("mechanics", "g0_hz"),
    ], ids=["drive_power_w", "laser_wavelength_m", "g0_hz"])
    def test_removed_drive_key_exits_two_and_names_it(self, tmp_path, capsys, section, key):
        # the drive and g0 never set a result; G is the coupling every evaluator reads
        doc = {"system": "experiment", section: {key: 1.0}}
        code, out, err, outdir = _run_config(tmp_path, capsys, doc)
        assert code == 2 and not out
        assert err == f"error: unknown keys in {section}: ['{key}']\n"
        assert not list(outdir.iterdir())

    @pytest.mark.parametrize("command", [["solve"], ["cooling"], ["spectrum", "i_fb"]])
    def test_unresolved_delay_exits_two_and_writes_nothing(self, tmp_path, capsys, command):
        # these used to exit 0 with n = 1.219e5 from rounding noise in the loop phase
        doc = {"system": "experiment", "feedback": {"gain": {"amplitude": 0.1, "delay_s": 1e160}}}
        code, out, err, outdir = _run_config(tmp_path, capsys, doc, command)
        assert code == 2
        assert "delay too long" in err and not out
        assert not outdir.exists() or not list(outdir.iterdir())

    def test_config_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'\xff\xfe{"system": "experiment"}')
        code, _, err = run(["--config", str(config), "--out", str(tmp_path), "cooling"], capsys)
        assert code == 2
        assert "config is not valid JSON" in err

    def test_integer_numbers_read_and_echo_as_floats(self, tmp_path, capsys):
        doc = {"system": "experiment", "mechanics": {"n_th": 80}, "feedback": {"eta": 1}}
        code, _, _, outdir = _run_config(tmp_path, capsys, doc, ["effective-cavity"])
        assert code == 0
        text = (outdir / "run_effective-cavity.json").read_text()
        assert '"n_th": 80.0,' in text and '"eta": 1.0,' in text


# file key -> (record, field, unit factor), spelled out independently of cli
_HZ = 2 * math.pi
_OVERRIDABLE = {
    "cavity": {
        "kappa0_hz": ("kappa0", _HZ), "kappa1_hz": ("kappa1", _HZ),
        "kappa_prime_hz": ("kappa_prime", _HZ), "detuning_hz": ("detuning", _HZ),
    },
    "mechanics": {
        "omega_m_hz": ("omega_m", _HZ), "gamma_m_hz": ("gamma_m", _HZ),
        "n_th": ("n_th", 1.0), "coupling_hz": ("G", _HZ),
    },
    "feedback": {"phi_rad": ("phi", 1.0), "eta": ("eta", 1.0)},
    "feedback.gain": {
        "amplitude": ("amplitude", 1.0), "delay_s": ("delay", 1.0),
        "phase_offset_rad": ("phase_offset", 1.0),
    },
}
_POSITIVE = st.floats(1e-3, 1e9)
_OVERRIDE_VALUES = {
    "detuning_hz": st.floats(-1e9, 1e9), "phi_rad": st.floats(-10.0, 10.0),
    "eta": st.floats(0.0, 1.0), "amplitude": st.floats(-1e6, 1e6), "delay_s": st.floats(0.0, 1e-6),
    "phase_offset_rad": st.sampled_from([0.0, math.pi, -math.pi]),
}


def _partial(section):
    keys = st.sets(st.sampled_from(sorted(_OVERRIDABLE[section])), max_size=4)
    return keys.flatmap(lambda chosen: st.fixed_dictionaries(
        {key: _OVERRIDE_VALUES.get(key, _POSITIVE) for key in chosen}
    ))


def _bits(value):
    return float(value).hex()


# fuzz documents: arbitrary JSON trees, and documents built from the valid
# keys whose values are usually of the right type and range
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=12,
)


def _usually(good):
    """`good` nine times in ten, any JSON value otherwise."""
    return st.integers(0, 9).flatmap(lambda i: good if i else _JSON)


def _section(**values):
    keys = st.sets(st.sampled_from(sorted(values)))
    return _usually(keys.flatmap(
        lambda chosen: st.fixed_dictionaries({key: values[key] for key in chosen})
    ))


_NUMBER = _usually(st.floats(0.0, 1.0) | st.floats(-1e7, 1e7) | st.floats())
_CONFIG_DOCS = st.fixed_dictionaries({
    "system": _usually(st.sampled_from(sorted(presets.SYSTEMS))),
}, optional={
    "cavity": _section(**dict.fromkeys(_OVERRIDABLE["cavity"], _NUMBER)),
    "mechanics": _section(
        **dict.fromkeys([*_OVERRIDABLE["mechanics"], "bath_temperature_k"], _NUMBER)
    ),
    "feedback": _section(
        port=_usually(st.sampled_from(["reflection", "transmission"])),
        phi_rad=_NUMBER, eta=_NUMBER,
        gain=_section(
            type=_usually(st.sampled_from(["flat_delay", "tabulated", "preset_gain_norm"])),
            amplitude=_NUMBER, delay_s=_NUMBER, phase_offset_rad=_NUMBER, value=_NUMBER,
            path=_usually(st.text()),
        ),
    ),
    "evaluator": _section(
        kind=_usually(st.sampled_from(["weak", "weak_coupling", "langevin"])), rtol=_NUMBER
    ),
    "output": _section(label=_usually(st.text())),
})


class TestConfigProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        system=st.sampled_from(sorted(presets.SYSTEMS)),
        cavity=_partial("cavity"), mechanics=_partial("mechanics"), feedback=_partial("feedback"),
        gain=_partial("feedback.gain"),
    )
    def test_partial_override_changes_only_named_fields(
        self, system, cavity, mechanics, feedback, gain
    ):
        # a flat gain section edits the preset's gain like any other section
        sys = presets.get_system(system)
        doc = {"system": system, "cavity": cavity, "mechanics": mechanics,
               "feedback": {**feedback, "gain": gain}}
        p, m, fb, _, _ = cli.resolve_config(doc)
        records = {"cavity": (sys.cavity, p), "mechanics": (sys.mechanics, m),
                   "feedback": (sys.loop, fb), "feedback.gain": (sys.loop.gain, fb.gain)}
        named = {**doc, "feedback.gain": gain}
        for section, (before, after) in records.items():
            for key, (field, factor) in _OVERRIDABLE[section].items():
                expected = getattr(before, field)
                if key in named[section]:
                    expected = factor * named[section][key]
                assert _bits(getattr(after, field)) == _bits(expected), (section, key)
        assert fb.port is sys.loop.port and type(fb.gain) is FlatDelay

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        system=st.sampled_from([None, *sorted(presets.SYSTEMS)]),
        cavity=st.fixed_dictionaries({}, optional={
            "kappa0_hz": st.floats(1e3, 1e7), "kappa1_hz": st.floats(1e3, 1e7),
            "kappa_prime_hz": st.floats(0.0, 1e6), "detuning_hz": st.floats(-1e7, 1e7),
        }),
        loop=st.fixed_dictionaries({}, optional={
            "phi_rad": st.floats(-math.pi, math.pi), "eta": st.floats(1e-3, 1.0),
        }),
        value=st.floats(-1.5, 1.5),
    )
    def test_preset_gain_norm_holds_on_any_transmission_loop(
        self, tmp_path_factory, system, cavity, loop, value
    ):
        doc = {"system": system} if system else {**_BARE, "cavity": {**_BARE["cavity"]}}
        doc["cavity"] = {**doc.get("cavity", {}), **cavity}
        doc["feedback"] = {**loop, "port": "transmission",
                           "gain": {"type": "preset_gain_norm", "value": value}}
        tmp = tmp_path_factory.mktemp("norm")
        config = tmp / "cfg.json"
        config.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["--config", str(config), "--out", str(tmp), "effective-cavity"])
        # fig1_optical's cavity has no transmission port unless kappa1 is given
        if system == "fig1_optical" and "kappa1_hz" not in cavity:
            assert code == 2 and "no transmission gain normalization" in err.getvalue()
            return
        assert code == 0, err.getvalue()
        result = json.loads((tmp / "run_effective-cavity.json").read_text())["result"]
        assert result["gain_norm"] == pytest.approx(value, rel=1e-12, abs=0.0)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(doc=st.one_of(_JSON, _CONFIG_DOCS))
    def test_reader_maps_any_document_to_an_exit_code(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "cfg.json"
            config.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["--config", str(config), "--out", str(Path(tmp) / "out"),
                                 "effective-cavity"])
        assert code in (0, 2, 3)


class TestUnreadFlags:
    """A shared flag that the chosen command does not read exits 2, given
    before or after the command."""

    @pytest.mark.parametrize("command, flags, unread", [
        (["preset", "fig4_gain"], ["--config", "/nonexistent.json"], "--config"),
        (["solve"], ["--evaluator", "langevin"], "--evaluator"),
        (["cooling"], ["--points", "5", "--band", "1:2"], "--points, --band"),
        (["membrane"], ["--config", "x"], "--config"),
        (["effective-cavity"], ["--points", "5"], "--points"),
        (["ingest", "--bode", "trace.csv"], ["--evaluator", "weak"], "--evaluator"),
        (["optimize", "--free", "homodyne_phase:0:1"], ["--band", "1:2"], "--band"),
        (["spectrum", "squash"], ["--evaluator", "langevin"], "--evaluator"),
    ], ids=lambda v: v[0] if isinstance(v, list) else "")
    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_unread_flag_exits_two(self, tmp_path, capsys, command, flags, unread, before):
        out = ["--out", str(tmp_path)]
        argv = [*out, *flags, *command] if before else [*out, *command, *flags]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert f"{command[0]} does not read {unread}" in err
        assert not list(tmp_path.iterdir())

    def test_preset_reads_points(self, tmp_path, capsys):
        code, _, _ = run(
            ["--out", str(tmp_path), "preset", "fig3_effective_cavity", "--points", "3"], capsys
        )
        assert code == 0
        rows = (tmp_path / "fig3_kappa_eff.csv").read_text().splitlines()
        assert len(rows) == 1 + 3

    #: README's "read by" table, spelled out here and not read from cli
    READ_BY = {
        "--config": {"cooling", "effective-cavity", "spectrum", "solve", "optimize", "ingest"},
        "--evaluator": {"cooling", "optimize"},
        "--points": {"spectrum", "optimize", "preset"},
        "--band": {"spectrum", "ingest"},
    }
    COMMANDS = {
        "cooling": [], "effective-cavity": [], "spectrum": ["squash"], "solve": [],
        "optimize": ["--free", "homodyne_phase:0:1"], "preset": ["fig4_gain"],
        "ingest": ["--bode", "trace.csv"], "membrane": [],
    }

    @pytest.mark.parametrize("flag", ["--config", "--evaluator", "--points", "--band"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_every_command_against_every_shared_flag(
        self, tmp_path, capsys, command, flag, before
    ):
        # a read flag passes the check, and a missing config file or
        # --points 1 stops the run before any work
        missing = str(tmp_path / "missing.json")
        value = {"--config": missing, "--evaluator": "langevin", "--points": "1",
                 "--band": "1:2"}[flag]
        flags = ["--out", str(tmp_path / "out"), flag, value]
        if command in self.READ_BY["--config"] and flag != "--config":
            flags += ["--config", missing]
        words = [command, *self.COMMANDS[command]]
        code, out, err = run([*flags, *words] if before else [*words, *flags], capsys)
        assert code == 2 and not out
        if command in self.READ_BY[flag]:
            expected = "--points must be at least 2" if flag == "--points" else missing
            assert "does not read" not in err and expected in err
        else:
            assert err == f"error: {command} does not read {flag}\n"
        assert not list((tmp_path / "out").iterdir())


#: a loop past its threshold: the spectrum's stability check exits 3 on it
_UNSTABLE = {"system": "experiment",
             "feedback": {"gain": {"type": "preset_gain_norm", "value": 1.5}}}


class TestInputChecks:
    """Each input check exits 2 with its message and writes nothing."""

    @pytest.mark.parametrize("doc, message", [
        ({"system": "experiment", "feedback": {"gain": {"type": "bode"}}},
         "unknown gain type 'bode'"),
        ({"system": "experiment", "feedback": {"gain": {"type": "tabulated"}}},
         "tabulated gain needs a 'path'"),
        ({"system": "experiment", "evaluator": {"kind": "exact"}},
         "unknown evaluator 'exact'"),
        ({"system": "experiment", "mechanics": {"n_th": 5.0, "bath_temperature_k": 300.0}},
         "give n_th or bath_temperature_k, not both"),
        ({"cavity": _BARE["cavity"]}, "config needs a 'system' or a 'mechanics' section"),
        ({"mechanics": _BARE["mechanics"]}, "config needs a 'system' or a 'cavity' section"),
        ({"system": "experiment", "feedback": {"port": "both"}},
         "port must be 'reflection' or 'transmission', got 'both'"),
    ], ids=["gain_type", "tabulated_path", "evaluator", "n_th_and_temperature", "no_mechanics",
            "no_cavity", "port"])
    def test_config_check(self, tmp_path, capsys, doc, message):
        code, out, err, outdir = _run_config(tmp_path, capsys, doc)
        assert code == 2 and not out
        assert err == f"error: {message}\n"
        assert not list(outdir.iterdir())

    @pytest.mark.parametrize("command, flags, message", [
        (["spectrum", "squash"], ["--band", "300e3-360e3"],
         "--band expects lo:hi in Hz, got '300e3-360e3'"),
        (["spectrum", "squash"], ["--band", "1:2:3"], "--band expects lo:hi in Hz, got '1:2:3'"),
        (["spectrum", "squash"], ["--band", "360e3:300e3"], "--band needs lo < hi"),
        (["spectrum", "squash"], ["--band", "3e5:3e5"], "--band needs lo < hi"),
        (["optimize", "--free", "gain_amplitude:0"], [],
         "--free expects name:lo:hi, got 'gain_amplitude:0'"),
        (["optimize", "--free", "gain_amplitude:0:x"], [],
         "--free expects name:lo:hi, got 'gain_amplitude:0:x'"),
        (["spectrum", "squash"], ["--points", "1"], "--points must be at least 2"),
        (["optimize", "--free", "gain_amplitude:0:1"], ["--points", "0"],
         "--points must be at least 2"),
        (["preset", "fig4_gain"], ["--points", "-3"], "--points must be at least 2"),
        # the band is read before the stability check of this unstable loop
        (["spectrum", "i_fb"], ["--band", "1:x", "--config", _UNSTABLE],
         "--band expects lo:hi in Hz, got '1:x'"),
    ], ids=["band_dash", "band_three", "band_reversed", "band_empty", "free_short",
            "free_word", "points_spectrum", "points_optimize", "points_preset",
            "band_unstable"])
    def test_flag_check(self, tmp_path, tmp_path_factory, capsys, command, flags, message):
        args = []
        for flag in flags:
            if isinstance(flag, dict):  # a config document, written outside --out
                path = tmp_path_factory.mktemp("config") / "cfg.json"
                path.write_text(json.dumps(flag))
                flag = str(path)
            args.append(flag)
        code, out, err = run(["--out", str(tmp_path), *command, *args], capsys)
        assert code == 2 and not out
        assert err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

