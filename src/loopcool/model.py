"""Parameter records and the elementary complex response functions.

All frequencies and rates are angular (rad/s) everywhere inside the
package; conversion from/to ordinary frequency in Hz happens only at
external boundaries (CLI, file formats).  The cavity decay rate kappa is
a half width: the intensity decay rate is 2*kappa.

Spectral convention: <O(w) O'(w')> = delta(w+w') S_OO'(w), so shot noise
is S = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import NamedTuple, Union

import numpy as np

from .errors import CurveDomainError, ValidationError

TWO_PI = 2.0 * math.pi
# exact SI values (2019 redefinition), bit-equal to scipy.constants
hbar = 6.62607015e-34 / TWO_PI
k_B = 1.380649e-23


#: largest accepted |rate| in rad/s (the kappas, the detuning, omega_m,
#: gamma_m and G): det M is of degree 4 in the rates and the crossing test
#: squares it, so every product the kernel forms stays below 1e240
MAX_RATE = 1e30
#: smallest accepted omega_m in rad/s: hbar omega_m, the unit the occupancy
#: is converted with, stays a normal float
MIN_OMEGA_M = 1e-6
#: largest accepted |gain| (a FlatDelay amplitude, a Tabulated sample): up
#: to it the flat-gain zero count is the same at every rate scale to MAX_RATE
MAX_GAIN = 1e6
#: largest accepted loop delay in s: delay * w < 1e240 for every w up to 1e40 rad/s
MAX_DELAY = 1e200
#: largest accepted loop phase of a flat gain in rad (check_loop_phase): past it the
#: rounding of the lag nears the delay-crossing test's phase tolerance (1e-9)
MAX_LOOP_PHASE = 1e6
_POSITIVE = math.ulp(0.0)  # the least positive float: [_POSITIVE, hi] is 0 < x <= hi

#: accepted closed range [lo, hi] of each numeric record field; NaN and +-inf always
#: fail (hi = inf asks for a finite value), and None passes where it is the default
RANGES = {
    **dict.fromkeys(("kappa0", "kappa1", "kappa_prime", "G"), (0.0, MAX_RATE)),
    "detuning": (-MAX_RATE, MAX_RATE),
    "omega_m": (MIN_OMEGA_M, MAX_RATE),
    "gamma_m": (_POSITIVE, MAX_RATE),
    "amplitude": (-MAX_GAIN, MAX_GAIN),
    "delay": (0.0, MAX_DELAY),
    "eta": (0.0, 1.0),
    **dict.fromkeys(("n_th", "drive_power"), (0.0, math.inf)),
    **dict.fromkeys(("g0", "phi", "phase_offset"), (-math.inf, math.inf)),
    **dict.fromkeys(("laser_wavelength", "radius", "thickness", "density", "sound_speed",
                     "stress"), (_POSITIVE, math.inf)),
}


def _ranged(cls):
    """Over @dataclass: cls._ranges, the (name, nullable, lo, hi) rows of _check_ranges."""
    cls._ranges = tuple((f.name, f.default is None, *RANGES[f.name])
                        for f in fields(cls) if f.name in RANGES)
    return cls


def _check_ranges(record) -> None:
    """ValidationError unless each field of `record` that RANGES names is in range."""
    for name, nullable, lo, hi in record._ranges:
        v = getattr(record, name)
        if not (v is None and nullable or math.isfinite(v) and lo <= v <= hi):
            raise ValidationError(f"{name} must be finite and in [{lo:g}, {hi:g}], got {v}")


def check_sampled(record, dtype) -> None:
    """Store `record`'s omega and values as float and `dtype` arrays; ValidationError,
    named after the record's type, unless omega is 1-D with at least two strictly
    increasing samples and values has its shape."""
    name = type(record).__name__
    omega = np.asarray(record.omega, dtype=float)
    values = np.asarray(record.values, dtype=dtype)
    if omega.ndim != 1 or omega.size < 2:
        raise ValidationError(f"{name} needs at least two samples")
    if values.shape != omega.shape:
        raise ValidationError("omega and values must have matching shapes")
    if not np.all(np.diff(omega) > 0):
        raise ValidationError(f"{name} frequencies must strictly increase")
    object.__setattr__(record, "omega", omega)
    object.__setattr__(record, "values", values)


class Port(Enum):
    """Which cavity output feeds the loop detector."""

    REFLECTION = "reflection"
    TRANSMISSION = "transmission"


@_ranged
@dataclass(frozen=True)
class CavityParams:
    """Driven two-mirror cavity with internal loss.

    kappa0 is the input/feedback mirror decay rate, kappa1 the second
    mirror, kappa_prime internal losses; all rad/s half-widths.  The
    drive enters through mirror 0 detuned by `detuning` (cavity resonance
    minus laser frequency).
    """

    kappa0: float
    kappa1: float
    kappa_prime: float
    detuning: float
    drive_power: float | None = None
    laser_wavelength: float = 1064e-9

    def __post_init__(self):
        _check_ranges(self)
        if self.kappa <= 0:
            raise ValidationError("total decay rate kappa must be > 0")

    @property
    def kappa(self) -> float:
        return self.kappa0 + self.kappa1 + self.kappa_prime


@_ranged
@dataclass(frozen=True)
class MechanicsParams:
    """Single mechanical mode coupled to the cavity field."""

    omega_m: float
    gamma_m: float
    n_th: float
    g0: float | None = None
    G: float = 0.0

    def __post_init__(self):
        _check_ranges(self)


@_ranged
@dataclass(frozen=True)
class FlatDelay:
    """Electronic gain that is flat in magnitude with a linear phase.

    g(w) = amplitude * exp(i*(delay*w + phase_offset)).  A real impulse
    response requires g(w)* = g(-w), which restricts phase_offset to 0 or
    pi; amplitude may be negative (equivalent to shifting the offset by
    pi).
    """

    amplitude: float
    delay: float = 0.0
    phase_offset: float = 0.0

    def __post_init__(self):
        _check_ranges(self)
        if abs(math.remainder(self.phase_offset, math.pi)) > 1e-12:
            raise ValidationError("phase_offset must be a multiple of pi so that g(w)* = g(-w)")

    def phase_factor(self, omega):
        """exp(i*(delay*w + phase_offset)), the gain without its amplitude."""
        return np.exp(1j * (self.delay * np.asarray(omega, dtype=float) + self.phase_offset))

    def __call__(self, omega):
        out = np.asarray(self.amplitude * self.phase_factor(omega))
        return out if out.ndim else complex(out)


@dataclass(frozen=True, eq=False)
class Tabulated:
    """Gain sampled over a one-sided (positive) frequency band, as measured.

    Interpolation is linear in (log magnitude, unwrapped phase).
    Negative frequencies evaluate through the reflection rule
    value(-w) = value(w)*; evaluation outside [omega[0], omega[-1]] is an
    error, never extrapolation.  Two gains are equal, and hash alike, when
    their samples are equal byte for byte.
    """

    omega: np.ndarray
    values: np.ndarray
    _log_mag: np.ndarray = field(init=False, repr=False, compare=False)
    _phase: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_sampled(self, complex)
        if self.omega[0] <= 0:
            raise ValidationError("Tabulated frequencies must be positive")
        mags = np.abs(self.values)
        if not np.all((mags > 0) & (mags <= MAX_GAIN)):
            raise ValidationError(f"Tabulated sample magnitudes must lie in (0, {MAX_GAIN:g}]")
        object.__setattr__(self, "_log_mag", np.log(mags))
        object.__setattr__(self, "_phase", np.unwrap(np.angle(self.values)))

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.omega[0]), float(self.omega[-1])

    @property
    def unwrapped_phase(self) -> np.ndarray:
        return self._phase

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        scalar = w.ndim == 0
        w = np.atleast_1d(w)
        mag_w = np.abs(w)
        lo, hi = self.domain
        if np.any(mag_w < lo) or np.any(mag_w > hi):
            raise CurveDomainError(
                f"evaluation outside tabulated band [{lo:g}, {hi:g}] rad/s"
            )
        logm = np.interp(mag_w, self.omega, self._log_mag)
        ph = np.interp(mag_w, self.omega, self._phase)
        out = np.exp(logm + 1j * ph)
        np.conjugate(out, where=w < 0, out=out)
        return complex(out[0]) if scalar else out

    def scaled(self, factor: float) -> "Tabulated":
        return Tabulated(self.omega, self.values * factor)

    def _samples(self) -> tuple[bytes, bytes]:
        return self.omega.tobytes(), self.values.tobytes()

    def __eq__(self, other):
        if not isinstance(other, Tabulated):
            return NotImplemented
        return self._samples() == other._samples()

    def __hash__(self):
        return hash(self._samples())


GainModel = Union[FlatDelay, Tabulated]


@_ranged
@dataclass(frozen=True)
class FeedbackConfig:
    """Homodyne-detected output port feeding an amplitude modulator.

    phi is the detected quadrature angle, eta the detection efficiency
    (any in-loop excess noise can be folded into an effective eta), and
    gain the electronic transfer function g_fb(w).
    """

    port: Port = Port.TRANSMISSION
    phi: float = 0.0
    eta: float = 1.0
    gain: GainModel = FlatDelay(0.0)

    def __post_init__(self):
        _check_ranges(self)


def check_loop_phase(p: CavityParams, m: MechanicsParams, fb: FeedbackConfig) -> None:
    """ValidationError if a flat gain's loop phase, delay * max(|Delta|, omega_m, kappa),
    exceeds MAX_LOOP_PHASE."""
    phase = getattr(fb.gain, "delay", 0.0) * max(abs(p.detuning), m.omega_m, p.kappa)
    if phase > MAX_LOOP_PHASE:
        raise ValidationError(f"delay too long: loop phase {phase:g} exceeds {MAX_LOOP_PHASE:g} rad")


def cavity_susceptibility(p: CavityParams, omega):
    """chi_c(w) = 2*kappa / [kappa + i*(Delta - w)]."""
    omega = np.asarray(omega, dtype=float)
    out = np.asarray(2.0 * p.kappa / (p.kappa + 1j * (p.detuning - omega)))
    return out if out.ndim else complex(out)


def input_phase_shifts(p: CavityParams) -> tuple[float, float]:
    """Static phase shifts of the intracavity and reflected mean fields.

    theta = arctan(-Delta/kappa) rotates the drive so the mean cavity
    field is real; theta_bar = arctan{2*Delta*kappa0 / [Delta^2 +
    kappa*(kappa1 - kappa0)]} does the same for the output of mirror 0.
    """
    theta = math.atan2(-p.detuning, p.kappa)
    theta_bar = math.atan2(
        2.0 * p.detuning * p.kappa0,
        p.detuning**2 + p.kappa * (p.kappa1 - p.kappa0),
    )
    return theta, theta_bar


class DetectedPort(NamedTuple):
    """The detected mirror's rate, the phase that makes its output's mean field real, z = 1
    on transmission (0 on reflection), and the homodyne angles to the cavity field and to
    the mirror's input, which on reflection carries the modulation straight to the detector."""

    kappa: float
    theta: float
    z: int
    cavity_angle: float
    input_angle: float


def detected_port(p: CavityParams, fb: FeedbackConfig) -> DetectedPort:
    """The one port branch.  Reflection: (kappa0, theta_bar, 0, phi + theta - theta_bar,
    phi - theta_bar); transmission: (kappa1, theta, 1, phi, phi)."""
    theta, theta_bar = input_phase_shifts(p)
    if fb.port is Port.REFLECTION:
        return DetectedPort(p.kappa0, theta_bar, 0, fb.phi + theta - theta_bar, fb.phi - theta_bar)
    return DetectedPort(p.kappa1, theta, 1, fb.phi, fb.phi)


def direct_ratio(p: CavityParams, fb: FeedbackConfig) -> float:
    """|c Q_4 / P_4| of a flat gain's det M = P + c e^{i tau w} Q, 1 on the neutral
    boundary: 2 sqrt(eta) |A cos(input_angle)| (detected_port) on reflection, 0 on transmission."""
    port = detected_port(p, fb)
    return 0.0 if port.z else 2.0 * math.sqrt(fb.eta) * abs(
        fb.gain.amplitude * math.cos(port.input_angle))


def _quadrature_response(p: CavityParams, pref: float, psi: float, omega):
    """pref * [chi(w) e^{i psi} + chi(-w)* e^{-i psi}]; complex for a scalar w."""
    chi_p = cavity_susceptibility(p, omega)
    chi_m = np.conjugate(cavity_susceptibility(p, -np.asarray(omega, dtype=float)))
    out = np.asarray(pref * (chi_p * np.exp(1j * psi) + chi_m * np.exp(-1j * psi)))
    return out if out.ndim else complex(out)


def zeta_out(p: CavityParams, fb: FeedbackConfig, omega):
    """Response of the detected output quadrature to input amplitude
    fluctuations:

    zeta(w) = sqrt(kappa0*kappa_fb)/(2*kappa) *
              [chi(w) e^{i(phi-theta_fb)} + chi(-w)* e^{-i(phi-theta_fb)}]
              - (1-z) cos(phi - theta_fb),   (kappa_fb, theta_fb, z) from detected_port
    """
    port = detected_port(p, fb)
    psi = fb.phi - port.theta
    out = _quadrature_response(p, math.sqrt(p.kappa0 * port.kappa) / (2.0 * p.kappa), psi, omega)
    return out - math.cos(psi) if port.z == 0 else out


def zeta_cavity(p: CavityParams, varphi: float, omega):
    """Response of the intracavity quadrature at angle varphi to input
    amplitude fluctuations:

    zeta_c(w) = kappa0/(2*kappa) *
                [chi(w) e^{i(varphi-theta)} + chi(-w)* e^{-i(varphi-theta)}]
    """
    theta, _ = input_phase_shifts(p)
    return _quadrature_response(p, p.kappa0 / (2.0 * p.kappa), varphi - theta, omega)


def photon_number_and_coupling(
    p: CavityParams, m: MechanicsParams
) -> tuple[float, float]:
    """Mean intracavity photon number and linearized coupling.

    n_c = 2*kappa0*P / [hbar*omega_L*(kappa^2 + Delta^2)], G = g0*sqrt(2*n_c).
    """
    if p.drive_power is None or m.g0 is None:
        raise ValidationError(
            "insufficient parameters: drive_power and g0 are both required"
        )
    omega_l = TWO_PI * 299792458.0 / p.laser_wavelength
    n_c = 2.0 * p.kappa0 * p.drive_power / (
        hbar * omega_l * (p.kappa**2 + p.detuning**2)
    )
    return n_c, m.g0 * math.sqrt(2.0 * n_c)


@_ranged
@dataclass(frozen=True)
class MembraneGeometry:
    """Circular taut membrane.  Sound speed is given directly or derived
    from tensile stress (Pa) and density as c_s = sqrt(stress/rho); exactly
    one of the two must be provided."""

    radius: float
    thickness: float
    density: float
    sound_speed: float | None = None
    stress: float | None = None

    def __post_init__(self):
        _check_ranges(self)
        if (self.sound_speed is None) == (self.stress is None):
            raise ValidationError("provide sound_speed or stress, not both")

    @property
    def c_s(self) -> float:
        if self.sound_speed is not None:
            return self.sound_speed
        return math.sqrt(self.stress / self.density)

    @property
    def physical_mass(self) -> float:
        return self.density * math.pi * self.radius**2 * self.thickness


@dataclass(frozen=True)
class MembraneMode:
    """One (n, j) drum mode.

    m_eff_ratio is the defining integral int_0^1 x J_n(a_nj x)^2 dx, i.e.
    m_eff = m * m_eff_ratio, taken in its closed form J_{n+1}(a_nj)^2 / 2
    (a_nj is a zero of J_n).  Quoted effective masses sometimes omit the 1/2.
    """

    n: int
    j: int
    omega: float
    m_eff_ratio: float


def membrane_modes(
    geom: MembraneGeometry, n_max: int, j_max: int
) -> list[MembraneMode]:
    """Eigenfrequencies w_nj = (c_s/R) * a_nj and effective-mass ratios for
    azimuthal orders n = 0..n_max-1 and radial orders j = 1..j_max."""
    from scipy import special

    if n_max < 1 or j_max < 1:
        raise ValidationError("n_max and j_max must be >= 1")
    modes = []
    for n in range(n_max):
        zeros = special.jn_zeros(n, j_max)
        for j, alpha in enumerate(zeros, start=1):
            modes.append(
                MembraneMode(
                    n=n,
                    j=j,
                    omega=geom.c_s / geom.radius * alpha,
                    m_eff_ratio=float(special.jv(n + 1, alpha) ** 2 / 2.0),
                )
            )
    modes.sort(key=lambda mode: mode.omega)
    return modes


def occupancy_to_temperature(n: float, omega_m: float) -> float:
    """Equivalent temperature T = hbar*omega_m*n / k_B."""
    return hbar * omega_m * n / k_B


def temperature_to_occupancy(temperature: float, omega_m: float) -> float:
    """Inverse of occupancy_to_temperature (same linear convention)."""
    return k_B * temperature / (hbar * omega_m)
