"""Frequency-domain toolkit for feedback-controlled cavity optomechanical
sideband cooling: in-loop light spectra, effective cavity parameters,
scattering rates, stationary phonon occupancies, and loop optimization.
Each name is imported from its module; the package re-exports none."""

from . import cooling, feedback, ingest, langevin, model, optimize, presets, quasipoly, spectra

__version__ = "0.1.0"
