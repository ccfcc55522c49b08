"""Closed-loop properties of the in-loop light with the membrane decoupled:
open-loop transfer, loop denominator, effective cavity, Nyquist stability,
the gain that cancels Stokes scattering; spectra, squashing too, are langevin's.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from . import model
from .errors import (
    BandError,
    ConvergenceError,
    InstabilityBoundaryError,
    LoopcoolError,
    ValidationError,
)
from .model import CavityParams, FeedbackConfig, FlatDelay, Port

#: single-pole approximation is flagged valid only for detuning/kappa >= this
SINGLE_POLE_DETUNING_RATIO = 5.0
#: ... and kappa * tau_fb <= this
SINGLE_POLE_DELAY_PRODUCT = 0.2

_BOUNDARY_EPS = 1e-12
_EDGE_LOOP_GUARD = 1e-3
#: initial contour samples across the band and in each window around +-Delta
_CONTOUR_SAMPLES = 4096
#: refinement cap of the winding test; beyond it the sampling is too coarse
_MAX_CONTOUR_POINTS = 2_000_000
#: optimal_bare_detuning: convergence step (1 Hz, in rad/s) and iteration cap
_DETUNING_TOL = 2.0 * math.pi * 1.0
_DETUNING_MAX_ITER = 200


@dataclass(frozen=True)
class EffectiveCavity:
    """Single-pole closed-loop cavity: kappa_eff = kappa*(1 - gain_norm),
    delta_eff = Delta - kappa*Im[T(Delta) e^{i phi}].  `valid` flags whether
    the single-pole regime conditions hold; values are returned either way
    (NaN on the reflection port, see effective_cavity).
    """

    kappa_eff: float
    delta_eff: float
    gain_norm: float
    valid: bool


#: the all-NaN cavity of a loop that has no single pole, as on the reflection port
NO_SINGLE_POLE = EffectiveCavity(math.nan, math.nan, math.nan, valid=False)


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    winding_number: int
    margin: float


def _gain_free(p: CavityParams, fb: FeedbackConfig, omega):
    """2*sqrt(eta)*zeta_out(w), the open-loop factor without the gain."""
    return 2.0 * math.sqrt(fb.eta) * model.zeta_out(p, fb, omega)


def loop_factor(p: CavityParams, fb: FeedbackConfig, omega):
    """Open-loop factor 2*sqrt(eta)*zeta_out(w)*g_fb(w); valid for either
    detected port (this, not T(w), is the general object)."""
    return _gain_free(p, fb, omega) * fb.gain(omega)


def loop_denominator(p: CavityParams, fb: FeedbackConfig, omega):
    """D(w) = 1 - 2*sqrt(eta)*zeta_out(w)*g_fb(w)."""
    return 1.0 - loop_factor(p, fb, omega)


def checked_loop_denominator(p: CavityParams, fb: FeedbackConfig, omega) -> np.ndarray:
    """D(w) as an array, raising InstabilityBoundaryError where it vanishes
    (effective_susceptibility divides by it and is undefined there)."""
    d = np.asarray(loop_denominator(p, fb, omega))
    if np.any(np.abs(d) < _BOUNDARY_EPS):
        raise InstabilityBoundaryError(
            "loop denominator vanished: configuration on instability boundary"
        )
    return d


def open_loop_transfer(p: CavityParams, fb: FeedbackConfig, omega):
    """Complete open-loop transfer function of the transmission loop,

    T(w) = sqrt(eta*kappa0*kappa1)/kappa * g_fb(w) * chi_c(w) * e^{-i theta}.

    Only defined for the transmission port; for reflection use
    loop_factor, which carries the direct-reflection term that a plain
    cavity-times-filter factorization cannot represent.
    """
    if fb.port is not Port.TRANSMISSION:
        raise ValidationError(
            "open_loop_transfer is the transmission-loop normalization; "
            "use loop_factor for the reflection port"
        )
    port = model.detected_port(p, fb)
    pref = math.sqrt(fb.eta * p.kappa0 * port.kappa) / p.kappa
    return (pref * fb.gain(omega) * model.cavity_susceptibility(p, omega)
            * cmath.exp(-1j * port.theta))


def effective_susceptibility(p: CavityParams, fb: FeedbackConfig, omega):
    """Exact closed-loop susceptibility chi_eff(w) = chi_c(w)/D(w)."""
    d = checked_loop_denominator(p, fb, omega)
    out = np.asarray(model.cavity_susceptibility(p, omega)) / d
    return out if out.ndim else complex(out)


def _gain_delay_estimate(fb: FeedbackConfig, omega: float) -> float:
    if isinstance(fb.gain, FlatDelay):
        return fb.gain.delay
    # local phase slope of a tabulated filter
    step = max(abs(omega) * 1e-4, 1.0)
    g_hi = fb.gain(omega + step)
    g_lo = fb.gain(omega - step)
    return float(np.angle(g_hi / g_lo)) / (2.0 * step)


def effective_cavity(p: CavityParams, fb: FeedbackConfig) -> EffectiveCavity:
    """Single-pole effective cavity seen by a probe near resonance.

    gain_norm = Re[T(Delta) e^{i phi}] equals 1 at the stability threshold
    (kappa_eff = 0).  This is the one place that decides they exist only on
    transmission: on reflection, which has no T, all are NaN and not valid.
    """
    if fb.port is not Port.TRANSMISSION:
        return NO_SINGLE_POLE
    t_at_delta = open_loop_transfer(p, fb, p.detuning) * cmath.exp(1j * fb.phi)
    gain_norm = float(t_at_delta.real)
    kappa_eff = p.kappa * (1.0 - gain_norm)
    delta_eff = p.detuning - p.kappa * float(t_at_delta.imag)
    tau = abs(_gain_delay_estimate(fb, p.detuning))
    valid = (
        abs(p.detuning) / p.kappa >= SINGLE_POLE_DETUNING_RATIO
        and p.kappa * tau <= SINGLE_POLE_DELAY_PRODUCT
    )
    return EffectiveCavity(
        kappa_eff=kappa_eff, delta_eff=delta_eff, gain_norm=gain_norm, valid=valid
    )


def unit_gain_norm(p: CavityParams, fb: FeedbackConfig) -> float:
    """effective_cavity's gain_norm of a flat-gain loop at amplitude 1 (NaN
    on the reflection port, as effective_cavity's is)."""
    probe = replace(fb, gain=replace(fb.gain, amplitude=1.0))
    return effective_cavity(p, probe).gain_norm


def scaled_to_gain_norm(fb: FeedbackConfig, gain_norm: float, unit: float) -> FeedbackConfig:
    """fb at the normalized gain `gain_norm`, `unit` being its unit_gain_norm:
    amplitude gain_norm / unit; ValidationError when `unit` is 0 or not finite."""
    if not 0.0 < abs(unit) < math.inf:
        raise ValidationError(f"no transmission gain normalization: unit gain_norm {unit:g}")
    return replace(fb, gain=replace(fb.gain, amplitude=gain_norm / unit))


def loop_contour(p: CavityParams, fb: FeedbackConfig) -> np.ndarray:
    """Sorted real-frequency contour of a Tabulated gain, from -hi to +hi.

    It closes where the loop is negligible: |loop| < 1e-3 at +-hi (else
    BandError), so a reflection trace, whose direct term does not decay,
    must roll off.  The unmeasured |w| < lo is one step, from -lo to lo,
    held by winding_verdict to the quarter-turn rule of every other step
    (refining it evaluates the curve there: CurveDomainError).
    """
    lo, hi = fb.gain.domain
    top = np.abs(loop_factor(p, fb, np.array([-hi, hi]))).max()
    if top > _EDGE_LOOP_GUARD:
        raise BandError(f"band too narrow: |loop| {top:.2e} > {_EDGE_LOOP_GUARD:g} at its top")
    omega = _contour_grid(p.detuning, p.kappa, hi)
    return np.union1d(omega[np.abs(omega) > lo], (-lo, lo))


@lru_cache(maxsize=1)
def _contour_grid(detuning: float, kappa: float, hi: float) -> np.ndarray:
    """Sorted contour: a span over [-hi, hi], windows of +-8 kappa around +-Delta."""
    spans = ((0.0, hi), (-abs(detuning), 8 * kappa), (abs(detuning), 8 * kappa))
    grid = [np.linspace(c - h, c + h, _CONTOUR_SAMPLES) for c, h in spans]
    omega = np.unique(np.concatenate(grid))
    omega = omega[(omega >= -hi) & (omega <= hi)]
    omega.flags.writeable = False
    return omega


@lru_cache(maxsize=1)
def _contour_gain_free(p: CavityParams, port: Port, phi: float, eta: float, hi: float):
    z = _gain_free(p, FeedbackConfig(port, phi, eta), _contour_grid(p.detuning, p.kappa, hi))
    z.flags.writeable = False
    return z


@lru_cache(maxsize=1)
def _contour_phase(delay: float, offset: float, detuning: float, kappa: float, hi: float):
    e = FlatDelay(1.0, delay, offset).phase_factor(_contour_grid(detuning, kappa, hi))
    e.flags.writeable = False
    return e


def winding_verdict(fn, omega: np.ndarray, d=None) -> StabilityVerdict:
    """Winding number of fn(w) around 0 along the sorted contour `omega`, on
    which fn is `d` when given, refined until adjacent phase steps stay below
    pi/2; stable iff zero.  `fn` must be elementwise: rounds evaluate midpoints.
    """
    d = np.asarray(fn(omega) if d is None else d)
    while True:
        steps = np.angle(d[1:] / d[:-1])
        bad = np.flatnonzero(np.abs(steps) > (math.pi / 2))
        if not bad.size:
            break
        if omega.size > _MAX_CONTOUR_POINTS:
            raise BandError(
                "sampling too coarse: adjacent phase jumps above pi/2 persist "
                f"after refining to {omega.size} points"
            )
        mids = 0.5 * (omega[bad] + omega[bad + 1])
        omega = np.insert(omega, bad + 1, mids)
        d = np.insert(d, bad + 1, fn(mids))

    winding = int(round(float(steps.sum()) / (2.0 * math.pi)))
    margin = float(np.min(np.abs(d)))
    return StabilityVerdict(stable=(winding == 0), winding_number=winding, margin=margin)


def nyquist_stability(p: CavityParams, fb: FeedbackConfig) -> StabilityVerdict:
    """Winding number of D(w) = 1 - 2*sqrt(eta)*zeta_out*g_fb around 0 as w
    runs over a FlatDelay gain's contour; stable iff it is zero.  This is the
    membrane-decoupled (G = 0) case of langevin.closed_loop_stability, the
    test of a Tabulated gain (ValidationError here).

    The contour and its gain-free factors Z = 2*sqrt(eta)*zeta_out and E =
    FlatDelay.phase_factor are cached by value, one entry each, so a sweep
    point that changes only the gain amplitude forms only D = 1 - Z*(A*E),
    bit-identical to loop_denominator, which the refinement midpoints take.
    """
    if not isinstance(fb.gain, FlatDelay):
        raise ValidationError("a tabulated gain's test is langevin.closed_loop_stability")
    hi, gain, key = _flat_band_edge(p, fb), fb.gain, (p.detuning, p.kappa)
    z = _contour_gain_free(p, fb.port, fb.phi, fb.eta, hi)
    e = _contour_phase(gain.delay, gain.phase_offset, *key, hi)
    fn = partial(loop_denominator, p, fb)
    return winding_verdict(fn, _contour_grid(*key, hi), 1.0 - z * (gain.amplitude * e))


def _flat_band_edge(p: CavityParams, fb: FeedbackConfig) -> float:
    """Band edge hi for a flat gain: the first of |Delta| + 64 kappa and its
    23 doublings at which the cavity-mediated loop, the loop factor without the
    direct (instantaneous) reflection path, is under the edge guard at +-hi."""
    port = model.detected_port(p, fb)
    hi = (abs(p.detuning) + 64.0 * p.kappa) * 2.0 ** np.arange(24)
    probe = np.concatenate([-hi, hi])
    zeta_cav = model.zeta_out(p, fb, probe) + (1 - port.z) * math.cos(fb.phi - port.theta)
    small = np.abs(2.0 * math.sqrt(fb.eta) * zeta_cav * fb.gain(probe)) < _EDGE_LOOP_GUARD
    fits = np.flatnonzero(small[:24] & small[24:])
    if not fits.size:
        raise BandError("could not find a band edge with negligible loop factor")
    return float(hi[fits[0]])


def stokes_suppression_gain(
    p: CavityParams, fb: FeedbackConfig, omega_m: float
) -> complex:
    """Gain value g_fb(-omega_m) that makes the Stokes rate vanish at unit
    detection efficiency on a single detected port.

    Cancellation of the coherent term of the rate spectrum at -omega_m
    requires

        2 g = chi(-wm)* / [chi(-wm)* zeta_out(-wm)
                           - sqrt(kappa_fb/kappa0) zeta_c(-wm) e^{i phi_q}]

    with (kappa_fb, phi_q) the model.detected_port's (kappa, cavity_angle).
    At eta < 1 (or with undetected ports) the same gain leaves a strictly
    positive Stokes rate.
    """
    port = model.detected_port(p, fb)
    chi_conj = np.conjugate(model.cavity_susceptibility(p, -omega_m))
    zeta = model.zeta_out(p, fb, -omega_m)
    zeta_c = model.zeta_cavity(p, 0.0, -omega_m)
    rotation = cmath.exp(1j * port.cavity_angle)
    denom = chi_conj * zeta - math.sqrt(port.kappa / p.kappa0) * zeta_c * rotation
    if abs(denom) < _BOUNDARY_EPS:
        raise LoopcoolError(
            "no suppressing gain at this phase: output and cavity responses coincide"
        )
    return complex(chi_conj / (2.0 * denom))


def gain_model_at(omega_m: float, value: complex) -> FlatDelay:
    """Flat-magnitude delay line whose value at -omega_m equals `value`
    (and hence value* at +omega_m).  Convenience for feeding a computed
    suppression gain into the rate formulas, which sample the gain only at
    -/+ omega_m."""
    amp = abs(value)
    if amp == 0.0:
        return FlatDelay(0.0)
    # at offset 0 the phase at -omega_m is -delay*omega_m: any phase has a delay
    delay = (0.0 - cmath.phase(value)) % (2.0 * math.pi) / omega_m
    return FlatDelay(amp, delay)


def optimal_bare_detuning(
    p: CavityParams,
    fb: FeedbackConfig,
    omega_m: float,
) -> float:
    """Bare detuning solving Delta_eff(Delta) = omega_m at the stability
    threshold (gain_norm = 1):

        Delta = omega_m + kappa * tan[phi_T(Delta) + phi]

    found by damped fixed-point iteration (damping 0.5), converged to 1 Hz
    within 200 steps.
    """
    delta = p.detuning if p.detuning != 0 else omega_m
    for _ in range(_DETUNING_MAX_ITER):
        phase = _transfer_phase(p, fb, delta)
        update = omega_m + p.kappa * math.tan(phase + fb.phi)
        new = 0.5 * delta + 0.5 * update
        if not math.isfinite(new):
            break
        if abs(new - delta) < _DETUNING_TOL:
            return new
        delta = new
    raise ConvergenceError("no fixed point in band for the optimal bare detuning")


def _transfer_phase(p: CavityParams, fb: FeedbackConfig, delta: float) -> float:
    """Phase of T at its own resonance for a trial bare detuning."""
    p_trial = replace(p, detuning=delta)
    return cmath.phase(open_loop_transfer(p_trial, fb, delta))
