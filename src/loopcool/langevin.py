"""Exact frequency-domain solution of the closed-loop linearized dynamics.

Per frequency the five unknowns x = (a, a_conj, b, b_conj, i_fb) obey
M(w) x = N n against the nine noise inputs n.  An observable c^T x has the
transfer row K = c^T M^-1 N, found by one transposed single-RHS solve.
Because g_fb(-w) = g_fb(w)*, the partner observable's row at -w is the
conjugate of K with each noise channel swapped for its partner, so under
the <O(w)O'(w')> = delta(w+w') S(w) convention the spectrum is the
input-noise sum S(w) = sum_j c_j |K_j(w)|^2.  Valid at any coupling where
the linearized model applies (the photocurrent is carried as an explicit
unknown so both ports and finite detection efficiency stay uniform).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import cooling, feedback, model
from .errors import (
    ConvergenceError,
    FitError,
    LoopcoolError,
    OptomechanicalInstabilityError,
    ValidationError,
)
from .model import CavityParams, FeedbackConfig, MechanicsParams, Port, Tabulated
from .spectra import Spectrum

#: weights c over the unknowns x = (a, a_conj, b, b_conj, i_fb) of each
#: observable c^T x.  n_mech is the phonon-number density <b^dag(w) b(w')>:
#: its row is b_conj, and the partner row b(-w) closes the contraction.
OBSERVABLES = {
    "i_fb": np.array([0.0, 0.0, 0.0, 0.0, 1.0]),
    "x_cavity": np.array([1.0, 1.0, 0.0, 0.0, 0.0]),
    "q_mech": np.array([0.0, 0.0, 1.0, 1.0, 0.0]),
    "n_mech": np.array([0.0, 0.0, 0.0, 1.0, 0.0]),
}


def noise_weights(n_th: float) -> np.ndarray:
    """c_j of S = sum_j c_j |K_j|^2: vacuum optical ports (only the
    annihilation channel of each pair contributes), the thermal mechanical
    bath (n_th + 1 on b_in, n_th on b_in_conj) and unit detection vacuum."""
    return np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, n_th + 1.0, n_th, 1.0])


def system_entries(p: CavityParams, m: MechanicsParams, fb: FeedbackConfig, omega):
    """The closed-loop system M(w) x = N n that solve_rows solves, in the
    unknowns x = (a, a_conj, b, b_conj, i_fb) and the noises n = (a_in0,
    a_in0_conj, a_in1, a_in1_conj, a_prime, a_prime_conj, b_in, b_in_conj,
    x_vac): the nonzero entries of M keyed by (row, column), the
    frequency-independent (5, 9) noise matrix N, and g_fb(w)."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    theta, theta_bar = model.input_phase_shifts(p)
    s0 = math.sqrt(2.0 * p.kappa0)
    s1 = math.sqrt(2.0 * p.kappa1)
    sp = math.sqrt(2.0 * p.kappa_prime)
    sg = math.sqrt(m.gamma_m)
    e_th = cmath.exp(-1j * theta)
    g = np.asarray(fb.gain(omega), dtype=complex)
    noise = np.zeros((5, 9), dtype=complex)

    mat = {}

    # cavity field and its conjugate partner
    mat[0, 0] = p.kappa + 1j * (p.detuning - omega)
    mat[0, 2] = -1j * m.G
    mat[0, 3] = -1j * m.G
    mat[0, 4] = -s0 * e_th * g
    noise[0, 0] = s0 * e_th
    noise[0, 2] = s1
    noise[0, 4] = sp

    mat[1, 1] = p.kappa - 1j * (p.detuning + omega)
    mat[1, 2] = 1j * m.G
    mat[1, 3] = 1j * m.G
    mat[1, 4] = -s0 * np.conjugate(e_th) * g
    noise[1, 1] = s0 * np.conjugate(e_th)
    noise[1, 3] = s1
    noise[1, 5] = sp

    # mechanical mode
    mat[2, 2] = m.gamma_m / 2.0 + 1j * (m.omega_m - omega)
    mat[2, 0] = -1j * m.G
    mat[2, 1] = -1j * m.G
    noise[2, 6] = sg

    mat[3, 3] = m.gamma_m / 2.0 - 1j * (m.omega_m + omega)
    mat[3, 0] = 1j * m.G
    mat[3, 1] = 1j * m.G
    noise[3, 7] = sg

    # photocurrent, with the detected-port input-output relation inlined
    sqrt_eta = math.sqrt(fb.eta)
    mat[4, 4] = 1.0
    noise[4, 8] = math.sqrt(1.0 - fb.eta)
    if fb.port is Port.TRANSMISSION:
        mat[4, 0] = -sqrt_eta * s1 * cmath.exp(1j * fb.phi)
        mat[4, 1] = -sqrt_eta * s1 * cmath.exp(-1j * fb.phi)
        noise[4, 2] = -sqrt_eta * cmath.exp(1j * fb.phi)
        noise[4, 3] = -sqrt_eta * cmath.exp(-1j * fb.phi)
    else:
        e_out = cmath.exp(1j * (fb.phi + theta - theta_bar))
        e_dir = cmath.exp(1j * (fb.phi - theta_bar))
        mat[4, 0] = -sqrt_eta * s0 * e_out
        mat[4, 1] = -sqrt_eta * s0 * np.conjugate(e_out)
        mat[4, 4] = 1.0 + sqrt_eta * g * (e_dir + np.conjugate(e_dir))
        noise[4, 0] = -sqrt_eta * e_dir
        noise[4, 1] = -sqrt_eta * np.conjugate(e_dir)
    return mat, noise, g


def solve_rows(
    p: CavityParams, m: MechanicsParams, fb: FeedbackConfig, omega, weights
) -> np.ndarray:
    """Transfer row K(w) = c^T M(w)^-1 N of the observable c^T x, with c =
    `weights` over the unknowns (a, a_conj, b, b_conj, i_fb).

    One single-RHS solve per frequency: M^T y = c, then K = y N.  Returns an
    (N, 9) complex array over the noise channels.
    """
    entries, noise, g = system_entries(p, m, fb, omega)
    mat_t = np.zeros((g.size, 5, 5), dtype=complex)
    for (i, j), value in entries.items():
        mat_t[:, j, i] = value
    rhs = np.broadcast_to(np.asarray(weights, dtype=complex), (g.size, 5))
    try:
        y = np.linalg.solve(mat_t, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise OptomechanicalInstabilityError(
            "singular closed-loop system: frequency sits on an instability pole"
        ) from exc
    return y @ noise


def observable_spectrum(
    p: CavityParams,
    m: MechanicsParams,
    fb: FeedbackConfig,
    omega,
    observable: str = "i_fb",
) -> np.ndarray:
    """Spectral density S(w) = sum_j c_j |K_j(w)|^2 of a solved observable,
    c being noise_weights(n_th).

    `observable` is one of i_fb, x_cavity, q_mech (all hermitian
    quadratures) or n_mech for the phonon-number density <b^dag(w) b(w')>.
    The result is real and non-negative by construction.
    """
    if observable not in OBSERVABLES:
        raise ValidationError(f"unknown observable {observable!r}")
    row = solve_rows(p, m, fb, omega, OBSERVABLES[observable])
    return np.abs(row) ** 2 @ noise_weights(m.n_th)


# ---------------------------------------------------------------------------
# adaptive quadrature

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _gl_batch(fvec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    y = fvec(x.ravel()).reshape(x.shape)
    return (y @ _GL_WEIGHTS) * half


def adaptive_integral(
    fvec, edges: np.ndarray, rtol: float = 2e-4, max_rounds: int = 48
) -> float:
    """Globally adaptive panel integration with vectorized evaluation.

    Each round every unconverged panel is bisected; a panel is retired when
    its refinement error is below its share of the global budget.  The final
    sum is accumulated position-sorted with compensated summation so the
    result is independent of evaluation order.
    """
    a = np.asarray(edges[:-1], dtype=float)
    b = np.asarray(edges[1:], dtype=float)
    coarse = _gl_batch(fvec, a, b)
    done: list[tuple[float, float]] = []

    for _ in range(max_rounds):
        mid = 0.5 * (a + b)
        left = _gl_batch(fvec, a, mid)
        right = _gl_batch(fvec, mid, b)
        refined = left + right
        err = np.abs(coarse - refined)
        total = math.fsum(v for _, v in done) + math.fsum(refined.tolist())
        budget = rtol * abs(total)
        if math.fsum(err.tolist()) <= budget:
            for lo, val in zip(a, refined):
                done.append((lo, val))
            done.sort(key=lambda item: item[0])
            return math.fsum(v for _, v in done)
        keep = err <= budget / (4.0 * max(err.size, 1))
        for lo, val in zip(a[keep], refined[keep]):
            done.append((lo, val))
        a = np.concatenate([a[~keep], mid[~keep]])
        b = np.concatenate([mid[~keep], b[~keep]])
        coarse = np.concatenate([left[~keep], right[~keep]])
        order = np.argsort(a)
        a, b, coarse = a[order], b[order], coarse[order]
    raise ConvergenceError("quadrature did not converge within the refinement cap")


def _mechanical_linewidth_guess(
    p: CavityParams, m: MechanicsParams, fb: FeedbackConfig
) -> float:
    try:
        rates = cooling.scattering_rates(p, m, fb)
        gamma = m.gamma_m + abs(rates.gamma_opt)
    except LoopcoolError:
        gamma = m.gamma_m
    return max(gamma, m.gamma_m)


def _occupancy_edges(
    p: CavityParams, m: MechanicsParams, fb: FeedbackConfig
) -> np.ndarray:
    gamma_eff = _mechanical_linewidth_guess(p, m, fb)
    delta = abs(p.detuning)
    cutoff = 10.0 * (delta + m.omega_m)
    points = {-cutoff, cutoff, 0.0}
    for center in (-m.omega_m, m.omega_m):
        for w in (10.0 * gamma_eff, 300.0 * gamma_eff, 0.02 * m.omega_m):
            points.add(center - w)
            points.add(center + w)
    for center in (-delta, delta):
        points.add(center - 3.0 * p.kappa)
        points.add(center + 3.0 * p.kappa)
    edges = np.array(sorted(pt for pt in points if -cutoff <= pt <= cutoff))
    return edges


def phonon_occupancy(
    p: CavityParams,
    m: MechanicsParams,
    fb: FeedbackConfig,
    rtol: float = 2e-4,
    check_stability: bool = True,
) -> float:
    """Stationary phonon number n = (1/2 pi) * integral of S_{b^dag b}(w) dw.

    The quadrature grid seeds dense panels around the mechanical and cavity
    resonances (both signs) and refines adaptively to `rtol`.
    """
    edges = _occupancy_edges(p, m, fb)
    if check_stability and not closed_loop_stability(p, m, fb, edges=edges):
        raise OptomechanicalInstabilityError(
            "closed loop unstable; no stationary occupancy"
        )

    def integrand(omega: np.ndarray) -> np.ndarray:
        return observable_spectrum(p, m, fb, omega, "n_mech")

    return adaptive_integral(integrand, edges, rtol=rtol) / (2.0 * math.pi)


def closed_loop_determinant(
    p: CavityParams, m: MechanicsParams, fb: FeedbackConfig, omega
) -> np.ndarray:
    """R(w) = det M(w) / (d_a d_ac d_b d_bc) for the system solve_rows solves.

    Eliminating the mechanical rows gives R = D(w) + sigma(w) K(w): D is the
    empty-cavity loop denominator, sigma = G^2 (1/d_bc - 1/d_b) the
    mechanical self-energy and K the cavity/loop response it perturbs (the
    sigma^2 terms cancel), so R equals D exactly at G = 0.
    """
    e, _noise, _g = system_entries(p, m, fb, omega)
    d_a, d_ac = e[0, 0], e[1, 1]
    sigma = m.G**2 * (1.0 / e[3, 3] - 1.0 / e[2, 2])
    feed = (e[0, 4] + e[1, 4]) * (e[4, 0] - e[4, 1]) / (d_a * d_ac)
    k = e[4, 4] * (1.0 / d_ac - 1.0 / d_a) - feed
    return feedback.loop_denominator(p, fb, omega) + sigma * k


def closed_loop_stability(
    p: CavityParams, m: MechanicsParams, fb: FeedbackConfig, edges=None
) -> bool:
    """Generalized Nyquist criterion on the full closed loop: stable iff
    R(w) (closed_loop_determinant) winds zero times around 0 along the real
    axis.  R has no poles in the upper half plane and its zeros there are the
    unstable closed-loop poles, static runaways included.  Seeding the loop
    contour with the occupancy quadrature's first-round nodes resolves the
    same mechanical features as the integral; `edges` hands over that
    quadrature's panel edges when the caller has already built them.
    """
    if edges is None:
        edges = _occupancy_edges(p, m, fb)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    seeds = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
    if isinstance(fb.gain, Tabulated):
        lo, hi = fb.gain.curve.domain
        seeds = seeds[(np.abs(seeds) >= lo) & (np.abs(seeds) <= hi)]
    omega = np.union1d(feedback.loop_contour(p, fb), seeds)
    verdict = feedback.winding_verdict(
        lambda w: closed_loop_determinant(p, m, fb, w), omega
    )
    return verdict.stable


def displacement_spectrum(
    p: CavityParams,
    m: MechanicsParams,
    fb: FeedbackConfig,
    band: tuple[float, float] | None = None,
    points: int = 2001,
    m_eff: float | None = None,
    check_stability: bool = True,
) -> Spectrum:
    """Spectrum of the mechanical quadrature q = b + b^dag on a band around
    the resonance.

    Natural (phonon) units by default; passing the effective mass converts
    to displacement units through x_zpf^2 = hbar / (2 m_eff omega_m).
    """
    if check_stability and not closed_loop_stability(p, m, fb):
        raise OptomechanicalInstabilityError("closed loop unstable")
    if band is None:
        gamma_eff = _mechanical_linewidth_guess(p, m, fb)
        half = max(30.0 * gamma_eff, 1e-4 * m.omega_m)
        band = (m.omega_m - half, m.omega_m + half)
    omega = np.linspace(band[0], band[1], points)
    values = observable_spectrum(p, m, fb, omega, "q_mech")
    if m_eff is not None:
        values = values * model.hbar / (2.0 * m_eff * m.omega_m)
    return Spectrum(omega=omega, values=values)


@dataclass(frozen=True)
class LorentzFit:
    omega_eff: float
    gamma_eff: float
    area: float
    baseline: float
    residual: float


def lorentzian_extract(spectrum: Spectrum) -> LorentzFit:
    """Least-squares Lorentzian fit of a single dominant peak.

    Guards: the band must contain one interior peak, and any secondary
    local maximum must have prominence below 10% of the main one.
    """
    from scipy.optimize import least_squares

    w = spectrum.omega
    s = spectrum.values
    baseline0 = float(np.median(np.sort(s)[: max(s.size // 4, 2)]))
    idx = int(np.argmax(s))
    if idx in (0, s.size - 1):
        raise FitError("no interior peak in band")
    prominence_main = s[idx] - baseline0
    if prominence_main <= 0:
        raise FitError("no peak above baseline")

    interior = s[1:-1]
    local_max = (interior > s[:-2]) & (interior >= s[2:])
    peak_idx = np.flatnonzero(local_max) + 1
    others = peak_idx[np.abs(peak_idx - idx) > 2]
    if others.size:
        second = float(np.max(s[others]) - baseline0)
        if second > 0.1 * prominence_main:
            raise FitError("secondary peak prominence above 10% of the main peak")

    half = baseline0 + prominence_main / 2.0
    above = np.flatnonzero(s >= half)
    width0 = max(float(w[above[-1]] - w[above[0]]), 4.0 * float(w[1] - w[0]))

    def residuals(x):
        h, w0, gamma, c = x
        lor = h * (gamma / 2.0) ** 2 / ((w - w0) ** 2 + (gamma / 2.0) ** 2)
        return lor + c - s

    x0 = np.array([prominence_main, float(w[idx]), width0, baseline0])
    scale = np.array([abs(prominence_main), abs(w[idx]) or 1.0, width0, abs(prominence_main)])
    result = least_squares(residuals, x0, x_scale=scale, max_nfev=2000)
    if not result.success or result.x[2] <= 0:
        raise FitError("ill-conditioned Lorentzian fit")
    h, w0, gamma, c = result.x
    return LorentzFit(
        omega_eff=float(w0),
        gamma_eff=float(gamma),
        area=float(h * math.pi * gamma / 2.0),
        baseline=float(c),
        residual=float(np.linalg.norm(result.fun)),
    )


def equipartition_temperature(
    spectrum: Spectrum,
    reference: Spectrum,
    t0: float,
    noise_floor: float = 0.0,
    reference_floor: float | None = None,
) -> float:
    """Effective temperature from integrated variances after floor
    subtraction: T = t0 * var(spectrum) / var(reference), both restricted
    to the overlapping band."""
    if reference_floor is None:
        reference_floor = noise_floor
    lo = max(spectrum.band[0], reference.band[0])
    hi = min(spectrum.band[1], reference.band[1])
    if hi <= lo:
        raise ValidationError("spectra share no frequency band")

    def _restricted_variance(spec: Spectrum, floor: float) -> float:
        sel = (spec.omega >= lo) & (spec.omega <= hi)
        if sel.sum() < 2:
            raise ValidationError("too few samples in the shared band")
        return float(np.trapezoid(spec.values[sel] - floor, spec.omega[sel]))

    var = _restricted_variance(spectrum, noise_floor)
    var_ref = _restricted_variance(reference, reference_floor)
    if var <= 0 or var_ref <= 0:
        raise ValidationError("negative variance after noise-floor subtraction")
    return t0 * var / var_ref
