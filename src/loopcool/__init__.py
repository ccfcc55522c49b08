"""Frequency-domain toolkit for feedback-controlled cavity optomechanical
sideband cooling: in-loop light spectra, effective cavity parameters,
scattering rates, stationary phonon occupancies, and loop optimization."""

from . import cooling, feedback, ingest, langevin, model, optimize, presets, spectra
from .cooling import (
    CoolingReport,
    RatePair,
    occupancy_weak_coupling,
    scattering_rates,
)
from .feedback import (
    EffectiveCavity,
    StabilityVerdict,
    effective_cavity,
    effective_susceptibility,
    nyquist_stability,
    open_loop_transfer,
    squash_spectrum,
    stokes_suppression_gain,
)
from .langevin import displacement_spectrum, observable_spectrum, phonon_occupancy
from .model import (
    CavityParams,
    FeedbackConfig,
    FlatDelay,
    GainModel,
    MechanicsParams,
    MembraneGeometry,
    Port,
    Tabulated,
    cavity_susceptibility,
    membrane_modes,
)
from .spectra import Spectrum

__version__ = "0.1.0"
