"""Named parameter sets used by the figure studies, the CLI, and the tests.

The tabletop system ("experiment") is anchored to three measured
benchmarks: the mode thermalizes at 300 K, plain sideband cooling at the
bare detuning reaches 2 K, and the loop-assisted optimum reaches 350 mK.
The linearized coupling G is calibrated against the 2 K point (quoted
incident power overestimates the intracavity photon number, see
photon_number_and_coupling), and the loop's noise budget is folded into an
effective detection efficiency calibrated against the 350 mK point: the
in-loop photocurrent there is dominated by classical electronic/laser
noise, which enters the quantum model exactly like undetected vacuum.

The two low-noise systems ("fig1_*") are backaction-limited parameter sets
from published sideband-cooling experiments in the optical and microwave
domains; their couplings are pinned at round fractions of omega_m since the
sources do not print a value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import cooling, feedback, model
from .errors import LoopcoolError, ValidationError
from .model import (
    CavityParams,
    FeedbackConfig,
    FlatDelay,
    MechanicsParams,
    MembraneGeometry,
    Port,
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PresetSystem:
    name: str
    cavity: CavityParams
    mechanics: MechanicsParams
    loop: FeedbackConfig
    #: normalized gain produced by unit gain amplitude (NaN when the
    #: transmission normalization does not apply)
    gain_norm_per_amplitude: float
    notes: dict

    def with_gain_norm(self, gain_norm: float) -> FeedbackConfig:
        """Loop configuration scaled to the requested normalized gain."""
        if not math.isfinite(self.gain_norm_per_amplitude):
            raise ValidationError(
                f"{self.name} has no transmission gain normalization"
            )
        amp = gain_norm / self.gain_norm_per_amplitude
        return replace(self.loop, gain=replace(self.loop.gain, amplitude=amp))


def _unit_gain_norm(p: CavityParams, fb: FeedbackConfig) -> float:
    if fb.port is not Port.TRANSMISSION:
        return math.nan
    probe = replace(fb, gain=replace(fb.gain, amplitude=1.0))
    return feedback.effective_cavity(p, probe).gain_norm


# --------------------------------------------------------------------------
# tabletop membrane experiment

_EXP_KAPPA = TWO_PI * 21.5e3
_EXP_KAPPA_EMPTY = TWO_PI * 20.15e3
_EXP_DETUNING = TWO_PI * 330e3
_EXP_OMEGA_M = TWO_PI * 343.13e3
_EXP_GAMMA_M = TWO_PI * 1.18
_EXP_G0 = TWO_PI * 0.84
_EXP_DELAY = 750e-9
_EXP_T_BATH = 300.0
_EXP_T_SIDEBAND = 2.0
_EXP_T_LOOP_MIN = 0.35
_EXP_LOOP_PHASE = -0.59  # loop phase margin at the optimal detuning, rad
_EXP_MASS_EFF = 48.2e-12  # kg
_EXP_MEMBRANE = MembraneGeometry(
    radius=0.615e-3, thickness=97e-9, density=3100.0, sound_speed=551.3534489207402
)


def _experiment_cavity(detuning: float = _EXP_DETUNING) -> CavityParams:
    half = _EXP_KAPPA / 2.0
    return CavityParams(
        kappa0=half,
        kappa1=half,
        kappa_prime=0.0,
        detuning=detuning,
        drive_power=33e-6,
        laser_wavelength=1064e-9,
    )


def _calibrated_coupling(p: CavityParams, omega_m, gamma_m, n_th, n_target) -> float:
    """G such that plain sideband cooling at the preset detuning settles at
    n_target (unit-coupling rates scale as G^2, so this is closed-form)."""
    chi = model.cavity_susceptibility(p, np.array([-omega_m, omega_m]))
    s_unit = np.abs(chi) ** 2 / (2.0 * p.kappa)  # S_X at -+omega_m per G^2
    s_plus, s_minus = float(s_unit[0]), float(s_unit[1])
    g_sq = gamma_m * (n_th - n_target) / (n_target * (s_minus - s_plus) - s_plus)
    return math.sqrt(g_sq)


def _experiment_phi(p: CavityParams) -> float:
    """Homodyne offset making the loop phase at the optimal detuning equal
    the measured margin.  The electronic chain's extra phase cannot live in
    a flat-delay model (real impulse response pins its offset to 0 or pi),
    but a quadrature rotation is equivalent near resonance."""
    delta_opt = _EXP_OMEGA_M + p.kappa * math.tan(_EXP_LOOP_PHASE)
    p_opt = replace(p, detuning=delta_opt)
    probe = FeedbackConfig(
        port=Port.TRANSMISSION, phi=0.0, eta=1.0, gain=FlatDelay(1.0, _EXP_DELAY, math.pi)
    )
    phase_t = cmath.phase(feedback.open_loop_transfer(p_opt, probe, delta_opt))
    phi = _EXP_LOOP_PHASE - phase_t
    return math.remainder(phi, TWO_PI)


def _loop_min_occupancy(p, m, fb_template, eta: float) -> float:
    """Minimum exact-solver occupancy over the normalized gain.  The
    optimum sits where the optical damping rivals the effective cavity
    linewidth, so the weak-coupling formulas under-read it; calibration
    therefore uses the full solve.  Unstable evaluations count as huge so
    the root-find stays bracketed."""
    from . import langevin

    fb_eta = replace(fb_template, eta=eta)
    per_amp = _unit_gain_norm(p, fb_eta)

    def occupancy(gain_norm: float) -> float:
        fb = replace(fb_eta, gain=replace(fb_eta.gain, amplitude=gain_norm / per_amp))
        try:
            return langevin.phonon_occupancy(p, m, fb, check_stability=False)
        except LoopcoolError:
            return 1e30

    res = minimize_scalar(occupancy, bounds=(0.6, 0.95), method="bounded",
                          options={"xatol": 2e-4})
    return min(float(res.fun), 1e30)


@lru_cache(maxsize=None)
def experiment() -> PresetSystem:
    """Membrane-in-the-middle system with the transmission loop closed."""
    p = _experiment_cavity()
    n_th = model.temperature_to_occupancy(_EXP_T_BATH, _EXP_OMEGA_M)
    n_sc = model.temperature_to_occupancy(_EXP_T_SIDEBAND, _EXP_OMEGA_M)
    n_loop = model.temperature_to_occupancy(_EXP_T_LOOP_MIN, _EXP_OMEGA_M)
    coupling = _calibrated_coupling(p, _EXP_OMEGA_M, _EXP_GAMMA_M, n_th, n_sc)
    m = MechanicsParams(
        omega_m=_EXP_OMEGA_M,
        gamma_m=_EXP_GAMMA_M,
        n_th=n_th,
        g0=_EXP_G0,
        G=coupling,
    )
    phi = _experiment_phi(p)
    template = FeedbackConfig(
        port=Port.TRANSMISSION,
        phi=phi,
        eta=1.0,
        gain=FlatDelay(0.0, _EXP_DELAY, math.pi),
    )
    eta_eff = brentq(
        lambda log_eta: _loop_min_occupancy(p, m, template, math.exp(log_eta)) - n_loop,
        math.log(1e-6),
        math.log(1e-2),
        xtol=1e-4,
    )
    fb = replace(template, eta=math.exp(eta_eff))
    return PresetSystem(
        name="experiment",
        cavity=p,
        mechanics=m,
        loop=fb,
        gain_norm_per_amplitude=_unit_gain_norm(p, fb),
        notes={
            "n_th": n_th,
            "n_sideband": n_sc,
            "n_loop_min": n_loop,
            "bath_temperature_k": _EXP_T_BATH,
            "sideband_temperature_k": _EXP_T_SIDEBAND,
            "loop_min_temperature_k": _EXP_T_LOOP_MIN,
            "loop_phase_at_optimum": _EXP_LOOP_PHASE,
            "effective_mass_kg": _EXP_MASS_EFF,
            "eta_is_effective_noise_budget": True,
        },
    )


@lru_cache(maxsize=None)
def experiment_empty() -> PresetSystem:
    """Same cavity with the membrane parked at a field node (no coupling);
    the configuration of the squashing and effective-cavity studies."""
    half = _EXP_KAPPA_EMPTY / 2.0
    p = CavityParams(
        kappa0=half, kappa1=half, kappa_prime=0.0, detuning=_EXP_DETUNING
    )
    m = MechanicsParams(
        omega_m=_EXP_OMEGA_M,
        gamma_m=_EXP_GAMMA_M,
        n_th=model.temperature_to_occupancy(_EXP_T_BATH, _EXP_OMEGA_M),
        g0=0.0,
        G=0.0,
    )
    fb = FeedbackConfig(
        port=Port.TRANSMISSION,
        phi=_experiment_phi(p),
        eta=1.0,
        gain=FlatDelay(0.0, _EXP_DELAY, math.pi),
    )
    return PresetSystem(
        name="experiment_empty",
        cavity=p,
        mechanics=m,
        loop=fb,
        gain_norm_per_amplitude=_unit_gain_norm(p, fb),
        notes={"loop_phase_at_optimum": _EXP_LOOP_PHASE},
    )


def membrane() -> MembraneGeometry:
    return _EXP_MEMBRANE


# --------------------------------------------------------------------------
# low-noise (backaction-limited) parameter sets

def _best_bare_detuning(p: CavityParams, m: MechanicsParams) -> float:
    """Detuning minimizing the no-feedback weak-coupling occupancy."""
    quiet = FeedbackConfig(port=Port.REFLECTION, gain=FlatDelay(0.0))

    def occupancy(delta: float) -> float:
        try:
            rates = cooling.scattering_rates(replace(p, detuning=delta), m, quiet)
            return cooling.occupancy_weak_coupling(m, rates).n_final
        except LoopcoolError:  # pragma: no cover
            return math.inf

    res = minimize_scalar(
        occupancy,
        bounds=(0.3 * m.omega_m, 3.0 * m.omega_m),
        method="bounded",
        options={"xatol": 1e-6 * m.omega_m},
    )
    return float(res.x)


@lru_cache(maxsize=None)
def fig1_optical() -> PresetSystem:
    """Optical membrane system at the quantum backaction limit; one-sided
    cavity detected and driven in reflection."""
    kappa = TWO_PI * 13.5e6
    kappa_prime = TWO_PI * 50e3
    omega_m = TWO_PI * 10.1e6
    m = MechanicsParams(
        omega_m=omega_m, gamma_m=TWO_PI * 16.0, n_th=75.0, G=omega_m / 20.0
    )
    p = CavityParams(
        kappa0=kappa - kappa_prime, kappa1=0.0, kappa_prime=kappa_prime, detuning=0.0
    )
    p = replace(p, detuning=_best_bare_detuning(p, m))
    # quarter-period loop delay decouples the gain phases at -+omega_m,
    # which the two loop knobs (amplitude, homodyne angle) cannot do alone
    fb = FeedbackConfig(
        port=Port.REFLECTION,
        phi=0.0,
        eta=1.0,
        gain=FlatDelay(0.0, delay=(math.pi / 4.0) / omega_m),
    )
    return PresetSystem(
        name="fig1_optical",
        cavity=p,
        mechanics=m,
        loop=fb,
        gain_norm_per_amplitude=math.nan,
        notes={"realistic_eta": 0.36},
    )


@lru_cache(maxsize=None)
def fig1_microwave() -> PresetSystem:
    """Microwave electromechanical system; two-port cavity detected at the
    strongly coupled port."""
    omega_m = TWO_PI * 1.48e6
    m = MechanicsParams(
        omega_m=omega_m, gamma_m=TWO_PI * 0.18, n_th=5000.0, G=omega_m / 10.0
    )
    p = CavityParams(
        kappa0=TWO_PI * 1.17e6, kappa1=TWO_PI * 0.13e6, kappa_prime=0.0, detuning=0.0
    )
    p = replace(p, detuning=_best_bare_detuning(p, m))
    fb = FeedbackConfig(
        port=Port.REFLECTION,
        phi=0.0,
        eta=1.0,
        gain=FlatDelay(0.0, delay=(math.pi / 6.0) / omega_m, phase_offset=math.pi),
    )
    return PresetSystem(
        name="fig1_microwave",
        cavity=p,
        mechanics=m,
        loop=fb,
        gain_norm_per_amplitude=math.nan,
        notes={"realistic_eta": 0.42},
    )


SYSTEMS = {
    "experiment": experiment,
    "experiment_empty": experiment_empty,
    "fig1_optical": fig1_optical,
    "fig1_microwave": fig1_microwave,
}


def get_system(name: str) -> PresetSystem:
    if name not in SYSTEMS:
        raise ValidationError(f"unknown system {name!r}; known: {sorted(SYSTEMS)}")
    return SYSTEMS[name]()
