"""The cold_cli workload: fresh CLI processes, one at a time.

One round runs `cooling` and `solve` (experiment system at a seeded
`preset_gain_norm`, langevin evaluator), `preset fig4_gain`, and `ingest`
on a seeded synthetic Bode trace, each in its own interpreter through
`cli_child.py`.  Every run checks the exit code and a sidecar value
against an in-process reference, and every artifact of a later round must
be byte-identical to the first round's.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from env import BENCH_DIR, ROOT, child_env
from loopcool import ingest, optimize, presets
from loopcool.model import FlatDelay, Port

COMMANDS = ("cooling", "solve", "preset", "ingest")
#: sidecar file and the value in it that each command is checked on
SIDECARS = {
    "cooling": ("run_cooling.json", ("result", "n_final")),
    "solve": ("run_solve.json", ("result", "n_final")),
    "preset": ("fig4_gain.json", ("no_feedback_occupancy",)),
    "ingest": ("run_ingest.json", ("result", "delay_s")),
}
#: sidecar values are computed by the same code as the reference
VALUE_RTOL = 1e-9
BODE_POINTS = 601
CHILD_TIMEOUT_S = 120


def _write_bode(path: Path, trace) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("frequency_hz,magnitude_db,phase_rad\n")
        for f, mag, phase in zip(trace.frequency_hz, trace.magnitude_db, trace.phase_rad):
            fh.write(f"{float(f)!r},{float(mag)!r},{float(phase)!r}\n")


@dataclass
class ColdCli:
    """Seeded inputs: the normalized gain of the cooling/solve/ingest
    config, drawn from [0.6, 0.9] (stable on the experiment system), and
    the amplitude and delay of the flat-delay filter behind the synthetic
    Bode trace."""

    workdir: Path
    config: Path
    bode: Path
    expected: dict
    min_tasks = 2

    @classmethod
    def prepare(cls, seed: int, workdir: Path) -> "ColdCli":
        rng = np.random.default_rng(seed)
        gain_norm = float(rng.uniform(0.6, 0.9))
        amplitude = float(rng.uniform(0.5, 2.0))
        delay = float(rng.uniform(0.5e-6, 1.0e-6))
        s = presets.experiment()
        config = workdir / "config.json"
        config.write_text(json.dumps({
            "system": "experiment",
            "feedback": {"gain": {"type": "preset_gain_norm", "value": gain_norm}},
            "evaluator": {"kind": "langevin"},
        }))
        bode = workdir / "bode.csv"
        trace = ingest.compose_open_loop(
            FlatDelay(amplitude, delay, math.pi), s.cavity, Port.TRANSMISSION,
            np.linspace(250e3, 420e3, BODE_POINTS),
        )
        _write_bode(bode, trace)
        p, m = s.cavity, s.mechanics
        n_loop = optimize.evaluate(p, m, s.with_gain_norm(gain_norm), "langevin").n_final
        n_quiet = optimize.evaluate(p, m, s.with_gain_norm(0.0), "langevin").n_final
        expected = {"cooling": n_loop, "solve": n_loop, "preset": n_quiet, "ingest": delay}
        return cls(workdir=workdir, config=config, bode=bode, expected=expected)

    def argv(self, command: str, outdir: Path) -> list[str]:
        out = ["--out", str(outdir)]
        if command == "cooling":
            return ["cooling", "--config", str(self.config), *out]
        if command == "solve":
            return ["solve", "--config", str(self.config), *out]
        if command == "preset":
            return ["preset", "fig4_gain", *out]
        return ["ingest", "--config", str(self.config), "--bode", str(self.bode), *out]

    def run_round(self, r: int, traced: bool) -> list[dict]:
        """Run the four commands once, one child at a time."""
        outs = []
        for command in COMMANDS:
            outdir = self.workdir / f"round{r}" / command
            record = outdir.parent / f"{command}.record.json"
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(record),
                   "1" if traced else "0", *self.argv(command, outdir)]
            t0 = perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                      text=True, timeout=CHILD_TIMEOUT_S)
                rc, stderr = proc.returncode, proc.stderr
            except subprocess.TimeoutExpired:
                rc, stderr = None, f"timed out after {CHILD_TIMEOUT_S} s"
            t1 = perf_counter()
            data = json.loads(record.read_text()) if record.is_file() else None
            outs.append({"command": command, "round": r, "traced": traced, "iv": (t0, t1),
                         "wall_s": t1 - t0, "rc": rc, "stderr": stderr[-2000:],
                         "record": data, "outdir": outdir})
        return outs

    def check(self, out) -> tuple[int, list[str]]:
        """One invocation: exit code, sidecar value, and (after the first
        round) byte-identical artifacts."""
        command = out["command"]
        if out["rc"] != 0 or out["record"] is None:
            return 1, [f"{command} round {out['round']}: exit {out['rc']}: {out['stderr']}"]
        name, keys = SIDECARS[command]
        doc = json.loads((out["outdir"] / name).read_text())
        for key in keys:
            doc = doc[key]
        want = self.expected[command]
        errors = []
        if not abs(doc - want) <= VALUE_RTOL * abs(want):
            errors.append(f"{command}: sidecar value {doc!r}, expected {want!r}")
        if command == "ingest":
            samples = json.loads((out["outdir"] / name).read_text())["result"]["samples"]
            if samples != BODE_POINTS:
                errors.append(f"ingest: {samples} samples, expected {BODE_POINTS}")
        if out["round"] > 0:
            first = self.workdir / "round0" / command
            mine = sorted(p.name for p in out["outdir"].iterdir())
            theirs = sorted(p.name for p in first.iterdir()) if first.is_dir() else []
            if mine != theirs:
                errors.append(f"{command}: artifacts {mine} differ from round 0's {theirs}")
            else:
                for fname in mine:
                    if (out["outdir"] / fname).read_bytes() != (first / fname).read_bytes():
                        errors.append(f"{command}: {fname} differs from round 0")
        return 1, errors
