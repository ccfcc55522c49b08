import json
import math

import numpy as np
import pytest

from loopcool import cli, ingest, langevin
from loopcool.model import FlatDelay, MembraneGeometry, Port, membrane_modes

TWO_PI = 2 * math.pi


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCooling:
    def test_experiment_no_feedback_reports_two_kelvin(self, tmp_path, capsys, experiment):
        code, out, _ = run(["--out", str(tmp_path), "cooling"], capsys)
        assert code == 0
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
                         "delay_s": 7.406897635804175e-07},
            },
            "evaluator": {"kind": "langevin"},
        }))
        for command in ("cooling", "solve"):
            code, _, _ = run(["--config", str(config), "--out", str(tmp_path), command], capsys)
            assert code == 3, command

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

    def test_determinism(self, tmp_path, capsys):
        args = ["--out", None, "--points", "64", "spectrum", "squash"]
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            args[1] = str(d)
            assert cli.main(args) == 0
            capsys.readouterr()
            outs.append((d / "run_spectrum_squash.csv").read_bytes())
        assert outs[0] == outs[1]


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
        # the unstable verdict, which would exit 3
        for feedback in ({}, {"gain": {"type": "preset_gain_norm", "value": 1.05}}):
            config.write_text(json.dumps({
                "system": "experiment",
                "feedback": feedback,
                "evaluator": {"kind": "langevin", "rtol": rtol},
            }))
            for command in (
                ["solve"], ["cooling"],
                ["--points", "2", "optimize", "--free", "homodyne_phase:0:1"],
            ):
                code, _, err = run(
                    ["--config", str(config), "--out", str(tmp_path), *command], capsys
                )
                assert code == 2, (feedback, command)
                assert "rtol" in err

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

    def test_malformed_trace_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("frequency_hz,magnitude_db,phase_rad\n1.0,,0\n")
        code, _, err = run(
            ["--out", str(tmp_path), "ingest", "--bode", str(path)], capsys
        )
        assert code == 2
        assert "malformed" in err

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

    def test_evaluator_override_flag(self, tmp_path, capsys, experiment):
        code, out, _ = run(
            ["--out", str(tmp_path), "--evaluator", "langevin", "cooling"], capsys
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "run_cooling.json").read_text())
        assert sidecar["config"]["evaluator"]["kind"] == "langevin"
