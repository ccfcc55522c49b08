"""Named parameter sets used by the figure studies, the CLI, and the tests.

Every preset is a literal record: the numbers below are pinned, not
recomputed per process.  The tabletop system ("experiment") was calibrated
once against three measured benchmarks: the mode thermalizes at 300 K,
plain sideband cooling at the bare detuning reaches 2 K, and the
loop-assisted optimum reaches 350 mK.  The linearized coupling G is pinned
at the 2 K point: the quoted drive, 33 uW at 1064 nm with g0/2pi = 0.84 Hz,
gives about 4x that G^2 through photon_number_and_coupling (incident power
overestimates the intracavity photon number), so no preset carries the
power, the wavelength or g0.  The homodyne offset phi sets the loop phase
at the optimal detuning to the measured margin (the electronic chain's
extra phase cannot live in a flat-delay gain, whose real impulse response
pins its offset to 0 or pi, but a quadrature rotation is equivalent near
resonance), and the loop's noise budget is an effective detection
efficiency pinned at the 350 mK point: the in-loop photocurrent there is
dominated by classical electronic/laser noise, which enters the quantum
model exactly like undetected vacuum.

The two low-noise systems ("fig1_*") are backaction-limited parameter sets
from published sideband-cooling experiments in the optical and microwave
domains; their couplings are pinned at round fractions of omega_m since the
sources do not print a value, and their detunings at the minimum of the
no-feedback weak-coupling occupancy.

tests/test_presets.py checks each pinned number against its anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import feedback, model
from .errors import ValidationError
from .model import (
    TWO_PI,
    CavityParams,
    FeedbackConfig,
    FlatDelay,
    MechanicsParams,
    MembraneGeometry,
    Port,
)


@dataclass(frozen=True)
class PresetSystem:
    name: str
    cavity: CavityParams
    mechanics: MechanicsParams
    loop: FeedbackConfig
    #: normalized gain per unit amplitude, feedback.unit_gain_norm (NaN on reflection)
    gain_norm_per_amplitude: float
    notes: dict

    def with_gain_norm(self, gain_norm: float) -> FeedbackConfig:
        """Loop configuration scaled to the requested normalized gain."""
        return feedback.scaled_to_gain_norm(self.loop, gain_norm, self.gain_norm_per_amplitude)


# --------------------------------------------------------------------------
# tabletop membrane experiment

_EXP_KAPPA = TWO_PI * 21.5e3
_EXP_KAPPA_EMPTY = TWO_PI * 20.15e3
_EXP_DETUNING = TWO_PI * 330e3
_EXP_OMEGA_M = TWO_PI * 343.13e3
_EXP_GAMMA_M = TWO_PI * 1.18
_EXP_DELAY = 750e-9
_EXP_T_BATH = 300.0
_EXP_T_SIDEBAND = 2.0
_EXP_T_LOOP_MIN = 0.35
_EXP_LOOP_PHASE = -0.59  # loop phase margin at the optimal detuning, rad
_EXP_MASS_EFF = 48.2e-12  # kg
# calibrated values, pinned (anchors checked in tests/test_presets.py)
_EXP_G = 10128.611556641754  # plain sideband cooling at _EXP_DETUNING reaches 2 K
_EXP_PHI = -0.5030194620411054  # loop phase at the optimal detuning is _EXP_LOOP_PHASE
_EXP_ETA = 0.0011702648455752908  # exact minimum over gain_norm 0.6-0.95 is 0.35 K
_EXP_EMPTY_PHI = -0.5115366788094676  # empty-cavity loop phase is _EXP_LOOP_PHASE
_EXP_MEMBRANE = MembraneGeometry(
    radius=0.615e-3, thickness=97e-9, density=3100.0, sound_speed=551.3534489207402
)


@lru_cache(maxsize=None)
def experiment() -> PresetSystem:
    """Membrane-in-the-middle system with the transmission loop closed."""
    half = _EXP_KAPPA / 2.0
    p = CavityParams(
        kappa0=half,
        kappa1=half,
        kappa_prime=0.0,
        detuning=_EXP_DETUNING,
    )
    n_th = model.temperature_to_occupancy(_EXP_T_BATH, _EXP_OMEGA_M)
    n_sc = model.temperature_to_occupancy(_EXP_T_SIDEBAND, _EXP_OMEGA_M)
    n_loop = model.temperature_to_occupancy(_EXP_T_LOOP_MIN, _EXP_OMEGA_M)
    m = MechanicsParams(
        omega_m=_EXP_OMEGA_M,
        gamma_m=_EXP_GAMMA_M,
        n_th=n_th,
        G=_EXP_G,
    )
    fb = FeedbackConfig(
        port=Port.TRANSMISSION,
        phi=_EXP_PHI,
        eta=_EXP_ETA,
        gain=FlatDelay(0.0, _EXP_DELAY, math.pi),
    )
    return PresetSystem(
        name="experiment",
        cavity=p,
        mechanics=m,
        loop=fb,
        gain_norm_per_amplitude=feedback.unit_gain_norm(p, fb),
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
        G=0.0,
    )
    fb = FeedbackConfig(
        port=Port.TRANSMISSION,
        phi=_EXP_EMPTY_PHI,
        eta=1.0,
        gain=FlatDelay(0.0, _EXP_DELAY, math.pi),
    )
    return PresetSystem(
        name="experiment_empty",
        cavity=p,
        mechanics=m,
        loop=fb,
        gain_norm_per_amplitude=feedback.unit_gain_norm(p, fb),
        notes={"loop_phase_at_optimum": _EXP_LOOP_PHASE},
    )


def membrane() -> MembraneGeometry:
    return _EXP_MEMBRANE


# --------------------------------------------------------------------------
# low-noise (backaction-limited) parameter sets

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
        kappa0=kappa - kappa_prime,
        kappa1=0.0,
        kappa_prime=kappa_prime,
        # minimum of the no-feedback weak-coupling occupancy
        detuning=100691497.83662139,
    )
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
        gain_norm_per_amplitude=feedback.unit_gain_norm(p, fb),
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
        kappa0=TWO_PI * 1.17e6,
        kappa1=TWO_PI * 0.13e6,
        kappa_prime=0.0,
        # minimum of the no-feedback weak-coupling occupancy
        detuning=11872483.052351067,
    )
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
        gain_norm_per_amplitude=feedback.unit_gain_norm(p, fb),
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
