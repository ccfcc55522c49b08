"""Sampled spectra and deterministic CSV emitters.

Frequencies are stored in rad/s internally and written as ordinary
frequency in Hz (`omega_hz` columns hold omega / 2*pi).  Floats are
formatted with repr-level precision so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import TWO_PI


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class Spectrum:
    """Real-valued spectral density sampled on an increasing grid."""

    omega: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if omega.ndim != 1 or omega.size < 2:
            raise ValidationError("Spectrum needs at least two samples")
        if values.shape != omega.shape:
            raise ValidationError("omega and values must have matching shapes")
        if not np.all(np.diff(omega) > 0):
            raise ValidationError("Spectrum frequencies must strictly increase")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)

    @property
    def band(self) -> tuple[float, float]:
        return float(self.omega[0]), float(self.omega[-1])


def write_spectrum_csv(path, spectrum: Spectrum) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("omega_hz,value\n")
        for w, v in zip(spectrum.omega, spectrum.values):
            fh.write(f"{_fmt(w / TWO_PI)},{_fmt(v)}\n")


def write_complex_csv(path, omega, values) -> None:
    values = np.asarray(values)
    with open(path, "w", newline="\n") as fh:
        fh.write("omega_hz,re,im\n")
        for w, v in zip(np.asarray(omega, dtype=float), values):
            fh.write(f"{_fmt(w / TWO_PI)},{_fmt(v.real)},{_fmt(v.imag)}\n")


def write_curve_csv(path, x_name: str, y_name: str, x, y) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{x_name},{y_name}\n")
        for a, b in zip(np.asarray(x, dtype=float), np.asarray(y, dtype=float)):
            fh.write(f"{_fmt(a)},{_fmt(b)}\n")
