"""Weak-coupling scattering rates, occupancy formulas, and the analytic
high-temperature cooling chain.

The rate spectrum is the empty-cavity amplitude-quadrature spectrum S_X(w),
taken from the exact closed-loop solve at G = 0; Stokes and anti-Stokes
rates follow as A+- = G^2 S_X(-+omega_m), solved in langevin.sideband_rates.
All spectra use the <O(w)O(w')> = delta(w+w') S(w) convention with shot
noise 1.  occupancy_weak_coupling builds the CoolingReport from the rates,
the one place a report is made; optimize.evaluate settles its verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import langevin, model
from .errors import OptomechanicalInstabilityError, ValidationError
from .feedback import EffectiveCavity
from .model import CavityParams, FeedbackConfig, MechanicsParams

#: advisory threshold for the weak-coupling formulas
WEAK_COUPLING_RATIO = 1.0 / 20.0


@dataclass(frozen=True)
class RatePair:
    """Stokes (a_plus) and anti-Stokes (a_minus) scattering rates, rad/s."""

    a_plus: float
    a_minus: float

    @property
    def gamma_opt(self) -> float:
        return self.a_minus - self.a_plus


@dataclass(frozen=True)
class CoolingReport:
    """Principal result record for one operating point."""

    rates: RatePair
    n_backaction: float
    n_final: float
    temperature_final: float
    warnings: tuple[str, ...] = ()

    @property
    def gamma_opt(self) -> float:
        return self.rates.gamma_opt

    @property
    def stable(self) -> bool:
        """A point is stable exactly when it has a stationary occupancy."""
        return bool(self.n_final < math.inf)


def scattering_rates(p: CavityParams, m: MechanicsParams, fb: FeedbackConfig) -> RatePair:
    """A+- = G^2 S_X(-+omega_m) as a RatePair; langevin.sideband_rates solves
    them, S_X being the exact closed-loop cavity quadrature at G = 0."""
    a_plus, a_minus = langevin.sideband_rates(p, m, fb)
    return RatePair(a_plus=a_plus, a_minus=a_minus)


def occupancy_weak_coupling(
    m: MechanicsParams, rates: RatePair, warnings: tuple[str, ...] = ()
) -> CoolingReport:
    """The report of `rates` and `warnings`: backaction limit n0 = A+/(A- - A+)
    and stationary occupancy

        n = (gamma_m n_th + Gamma_opt n0) / (gamma_m + Gamma_opt).

    Outside the formula's domain Gamma_opt > -gamma_m (an anti-damped mode,
    or NaN rates) there is no stationary occupancy: n and the temperature
    are inf.
    """
    gamma_opt = rates.gamma_opt
    n0 = rates.a_plus / gamma_opt if gamma_opt != 0.0 else math.inf
    n_final = math.inf
    if gamma_opt > -m.gamma_m:
        # Gamma_opt * n0 == a_plus, which stays finite for gamma_opt <= 0 too
        n_final = (m.gamma_m * m.n_th + rates.a_plus) / (m.gamma_m + gamma_opt)
    temperature = model.occupancy_to_temperature(n_final, m.omega_m)
    return CoolingReport(rates=rates, n_backaction=n0, n_final=n_final,
                         temperature_final=temperature, warnings=warnings)


def cooling_report(p: CavityParams, m: MechanicsParams, fb: FeedbackConfig) -> CoolingReport:
    """Assemble rates and weak-coupling occupancies for one setting.  It
    sets no verdict: a report is stable exactly when its n_final is finite,
    so an anti-damped mode (gamma_opt <= -gamma_m) comes back unstable, and
    optimize.evaluate decides every other verdict (the single-pole cavity
    is feedback.effective_cavity's).
    """
    warnings = ()
    if m.G > WEAK_COUPLING_RATIO * m.omega_m:
        warnings = ("weak-coupling advisory: G > omega_m/20, exact solver is authoritative",)
    rates = scattering_rates(p, m, fb)
    if rates.gamma_opt < 0:
        warnings = warnings + ("optical anti-damping: a_plus exceeds a_minus",)
    return occupancy_weak_coupling(m, rates, warnings)


@dataclass(frozen=True)
class HighTemperatureReport:
    rho: float
    gamma_opt: float
    n_eff: float
    n_final: float
    tuned: bool


def high_temperature_report(
    p: CavityParams,
    m: MechanicsParams,
    fb_effective: EffectiveCavity,
    eta: float,
    kappa1: float,
) -> HighTemperatureReport:
    """Resolved-sideband, near-threshold analytic chain for the transmission
    loop:

        rho       = G^2 [(kappa-kappa_eff)^2 + (Delta-Delta_eff)^2]
                    / (2 eta kappa1 kappa_eff^2)
        Gamma_opt = 2 G^2 / kappa_eff
        n_eff     = n_th + rho/gamma_m
        n_final   = n_eff * gamma_m * kappa_eff / (2 G^2)

    `tuned` flags whether Delta_eff sits within kappa_eff of omega_m, the
    tuning the A- ~ 2G^2/kappa_eff step assumes.
    """
    kappa_eff = fb_effective.kappa_eff
    if kappa_eff <= 0:
        raise OptomechanicalInstabilityError("kappa_eff <= 0: beyond the loop threshold")
    if eta <= 0 or kappa1 <= 0:
        raise ValidationError("eta and kappa1 must be positive")
    mismatch = p.detuning - fb_effective.delta_eff
    rho = (
        m.G**2
        * ((p.kappa - kappa_eff) ** 2 + mismatch**2)
        / (2.0 * eta * kappa1 * kappa_eff**2)
    )
    gamma_opt = 2.0 * m.G**2 / kappa_eff
    n_eff = m.n_th + rho / m.gamma_m
    n_final = n_eff * m.gamma_m * kappa_eff / (2.0 * m.G**2)
    tuned = abs(fb_effective.delta_eff - m.omega_m) <= kappa_eff
    return HighTemperatureReport(
        rho=rho, gamma_opt=gamma_opt, n_eff=n_eff, n_final=n_final, tuned=tuned
    )


def rho_from_measured(
    n_final: float,
    n_sc: float,
    n_th: float,
    kappa: float,
    kappa_eff: float,
    gamma_m: float,
) -> float:
    """Excess-noise rate inferred from measured occupancies:

        rho = gamma_m n_th (kappa/kappa_eff * n_final/n_sc - 1)

    where n_sc is the standard sideband-cooling occupancy at the same
    coupling.
    """
    if min(n_final, n_sc, n_th, kappa, kappa_eff, gamma_m) <= 0:
        raise ValidationError("all inputs must be positive")
    excess = kappa / kappa_eff * n_final / n_sc - 1.0
    if excess < 0:
        raise ValidationError(
            "inconsistent measurement set: implied excess noise is negative"
        )
    return gamma_m * n_th * excess


def occupancy_vs_sideband_cooling(
    n_sc: float,
    kappa: float,
    kappa_eff: float,
    delta_mismatch: float,
    eta: float,
    kappa1: float,
) -> float:
    """Predicted occupancy relative to standard sideband cooling:

        n ~ n_sc * kappa_eff/kappa
            + [(kappa-kappa_eff)^2 + delta_mismatch^2] / (4 eta kappa1 kappa_eff)
    """
    if not 0.0 < kappa_eff <= kappa:
        raise ValidationError("kappa_eff must lie in (0, kappa]")
    return n_sc * kappa_eff / kappa + (
        (kappa - kappa_eff) ** 2 + delta_mismatch**2
    ) / (4.0 * eta * kappa1 * kappa_eff)


def optimal_linewidth_and_min(
    n_sc: float, kappa: float, eta: float, kappa1: float
) -> tuple[float, float]:
    """Closed-form minimizer of occupancy_vs_sideband_cooling at zero
    detuning mismatch:

        kappa_eff_opt = kappa * sqrt(kappa / (4 eta kappa1 n_sc + kappa))
        n_min         = 2 n_sc / (1 + sqrt(1 + 4 eta kappa1 n_sc / kappa))

    n_min is strictly below n_sc for any positive inputs.
    """
    if n_sc <= 0:
        raise ValidationError("n_sc must be positive")
    ratio = 4.0 * eta * kappa1 * n_sc / kappa
    kappa_eff_opt = kappa * math.sqrt(kappa / (4.0 * eta * kappa1 * n_sc + kappa))
    n_min = 2.0 * n_sc / (1.0 + math.sqrt(1.0 + ratio))
    return kappa_eff_opt, n_min
