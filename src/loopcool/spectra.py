"""The package's file formats: the config keys of the parameter records,
the sampled-spectrum container, and the one CSV and one JSON writer.

Frequencies are rad/s inside the package and Hz in files (`omega_hz`
columns hold omega / 2*pi).  Each key table maps a config key to (record
field, unit factor): the CLI's config reader stores factor * value, and
`echo` writes field / factor.  CSV values are written `.17g` and JSON with
sorted keys, both LF-terminated, so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import TWO_PI, CavityParams, FeedbackConfig, FlatDelay, MechanicsParams, check_sampled

CAVITY_KEYS = {
    "kappa0_hz": ("kappa0", TWO_PI),
    "kappa1_hz": ("kappa1", TWO_PI),
    "kappa_prime_hz": ("kappa_prime", TWO_PI),
    "detuning_hz": ("detuning", TWO_PI),
    "drive_power_w": ("drive_power", 1.0),
    "laser_wavelength_m": ("laser_wavelength", 1.0),
}
MECHANICS_KEYS = {
    "omega_m_hz": ("omega_m", TWO_PI),
    "gamma_m_hz": ("gamma_m", TWO_PI),
    "n_th": ("n_th", 1.0),
    "g0_hz": ("g0", TWO_PI),
    "coupling_hz": ("G", TWO_PI),
}
FEEDBACK_KEYS = {"phi_rad": ("phi", 1.0), "eta": ("eta", 1.0)}
FLAT_DELAY_KEYS = {
    "amplitude": ("amplitude", 1.0),
    "delay_s": ("delay", 1.0),
    "phase_offset_rad": ("phase_offset", 1.0),
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _echo(record, table) -> dict:
    echo = {}
    for key, (field, factor) in table.items():
        value = getattr(record, field)
        echo[key] = None if value is None else value / factor
    return echo


def echo(p: CavityParams, m: MechanicsParams, fb: FeedbackConfig) -> dict:
    """The `cavity`, `mechanics` and `feedback` config sections of (p, m,
    fb); a tabulated gain is echoed by its band and sample count."""
    if isinstance(fb.gain, FlatDelay):
        gain = {"type": "flat_delay", **_echo(fb.gain, FLAT_DELAY_KEYS)}
    else:
        lo, hi = fb.gain.domain
        gain = {
            "type": "tabulated",
            "band_hz": [lo / TWO_PI, hi / TWO_PI],
            "samples": int(fb.gain.omega.size),
        }
    return {
        "cavity": _echo(p, CAVITY_KEYS),
        "mechanics": _echo(m, MECHANICS_KEYS),
        "feedback": {"port": fb.port.value, **_echo(fb, FEEDBACK_KEYS), "gain": gain},
    }


def write_json(path, doc: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_rows(path, header, *columns) -> None:
    """A CSV of the `header` line and one row per index of `columns`, which
    must all have the same length (ValueError otherwise)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns, strict=True):
            fh.write(",".join(map(_fmt, row)) + "\n")


@dataclass(frozen=True)
class Spectrum:
    """Real-valued spectral density sampled on an increasing grid."""

    omega: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        check_sampled(self, float)


def write_spectrum_csv(path, spectrum: Spectrum) -> None:
    write_rows(path, ("omega_hz", "value"), spectrum.omega / TWO_PI, spectrum.values)


def write_complex_csv(path, omega, values) -> None:
    values = np.asarray(values)
    write_rows(path, ("omega_hz", "re", "im"),
               np.asarray(omega, dtype=float) / TWO_PI, values.real, values.imag)


def write_curve_csv(path, x_name: str, y_name: str, x, y) -> None:
    write_rows(path, (x_name, y_name), x, y)
