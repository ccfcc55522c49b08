"""Exact frequency-domain solution of the closed-loop linearized dynamics.

Per frequency the five unknowns x = (a, a_conj, b, b_conj, i_fb) obey
M(w) x = N n against the nine noise inputs n.  One kernel per operating
point holds every frequency-independent constant of M and N and one
elimination formula for det M: the mechanical rows couple only to a and
a_conj, so they are eliminated exactly (the mechanical self-energy reduction
of Genes et al., PRA 77, 033804 (2008)).  The solve, the determinant and the
zero count all take det M from it.  An observable c^T x has the transfer row
K = c^T M^-1 N, found by one transposed single-RHS solve in closed form: the
elimination leaves a 3x3 system, solved by cofactors, elementwise over the
frequencies.  Because g_fb(-w) = g_fb(w)*, the partner observable's row at -w
is the conjugate of K with each noise channel swapped for its partner, so
under the <O(w)O'(w')> = delta(w+w') S(w) convention the spectrum is the
input-noise sum S(w) = sum_j c_j |K_j(w)|^2.  Valid at any coupling where
the linearized model applies (the photocurrent is carried as an explicit
unknown so both ports and finite detection efficiency stay uniform).

The loop is stable iff det M(w) has no zeros in the upper half plane: for a
flat-delay gain quasipoly counts them exactly from det M = P + c e^{i tau w} Q,
for a tabulated gain by the winding of det M along a real frequency contour.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import feedback, model, quasipoly
from .errors import (
    ConvergenceError,
    FitError,
    InstabilityBoundaryError,
    LoopcoolError,
    OptomechanicalInstabilityError,
    ValidationError,
)
from .model import CavityParams, FeedbackConfig, FlatDelay, MechanicsParams, Port
from .quasipoly import convolve
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


class _Kernel:
    """The frequency-independent constants of M(w) x = N n at one operating
    point, with x = (a, a_conj, b, b_conj, i_fb) and the noises n = (a_in0,
    a_in0_conj, a_in1, a_in1_conj, a_prime, a_prime_conj, b_in, b_in_conj,
    x_vac).  The frequency enters M only through the diagonal of rows 0-3
    and through g = g_fb(w) in column 4 (`at`); row 4 reads m40, m41 in
    columns 0, 1, the mechanical couplings are -+iG, and N is `noise()`.
    Scalars are Python complex, cheap in per-point arithmetic."""

    def __init__(self, p: CavityParams, m: MechanicsParams, fb: FeedbackConfig):
        theta, theta_bar = model.input_phase_shifts(p)
        s0, s1, sp = (math.sqrt(2.0 * k) for k in (p.kappa0, p.kappa1, p.kappa_prime))
        e_th = cmath.exp(-1j * theta)
        half_gamma, self.g2 = m.gamma_m / 2.0, m.G**2
        # d_a, d_ac, d_b, d_bc at w = 0; each falls by i w
        self.diag0 = (complex(p.kappa, p.detuning), complex(p.kappa, -p.detuning),
                      complex(half_gamma, m.omega_m), complex(half_gamma, -m.omega_m))
        self.u0, self.u1 = -s0 * e_th, -s0 * e_th.conjugate()
        self.noise_inputs = s0, e_th, s1, sp, m.gamma_m, fb.eta

        # photocurrent, with the detected-port input-output relation inlined
        self.sqrt_eta = sqrt_eta = math.sqrt(fb.eta)
        if fb.port is Port.TRANSMISSION:
            e_phi, e_phi_c = cmath.exp(1j * fb.phi), cmath.exp(-1j * fb.phi)
            self.m40, self.m41 = -sqrt_eta * s1 * e_phi, -sqrt_eta * s1 * e_phi_c
            self.direct = None
            self.detected = 2, -sqrt_eta * e_phi, -sqrt_eta * e_phi_c
        else:
            e_out = cmath.exp(1j * (fb.phi + theta - theta_bar))
            e_dir = cmath.exp(1j * (fb.phi - theta_bar))
            self.m40 = -sqrt_eta * s0 * e_out
            self.m41 = -sqrt_eta * s0 * e_out.conjugate()
            # the detected direct term: M44 = 1 + sqrt(eta) g (e_dir + e_dir*)
            self.direct = e_dir + e_dir.conjugate()
            self.detected = 0, -sqrt_eta * e_dir, -sqrt_eta * e_dir.conjugate()

    def noise(self) -> np.ndarray:
        """N, built on demand: of the kernel's readers only solve_rows needs it."""
        (s0, e_th, s1, sp, gamma_m, eta), (column, n4_a, n4_b) = self.noise_inputs, self.detected
        noise = np.zeros((5, 9), dtype=complex)
        noise[0, 0], noise[0, 2], noise[0, 4] = s0 * e_th, s1, sp
        noise[1, 1], noise[1, 3], noise[1, 5] = s0 * e_th.conjugate(), s1, sp
        noise[2, 6] = noise[3, 7] = math.sqrt(gamma_m)
        noise[4, 8], noise[4, column], noise[4, column + 1] = math.sqrt(1.0 - eta), n4_a, n4_b
        return noise

    def at(self, omega, g):
        """d_a, d_ac, d_b, d_bc (M00 to M33) at the real frequencies omega,
        and M04 = u0 g, M14 = u1 g, M44 at the gain values g."""
        m44 = 1.0 if self.direct is None else 1.0 + self.sqrt_eta * g * self.direct
        (d_a, d_ac, d_b, d_bc), i_omega = self.diag0, 1j * omega
        return (
            d_a - i_omega, d_ac - i_omega, d_b - i_omega, d_bc - i_omega,
            self.u0 * g, self.u1 * g, m44,
        )

    def eliminate(self, d_a, d_ac, d_b, d_bc, m04, m14, m44):
        """(loop, s, cof_s, det M) from M's diagonal and column 4 as `at`
        returns them (at real or complex w), the mechanical rows eliminated:
        det M = d_b d_bc loop + s cof_s, loop = d_a d_ac M44 - (d_a M41 M14 +
        d_ac M40 M04) being the loop denominator times d_a d_ac, s = G^2 (d_bc
        - d_b) the mechanical self-energy numerator and cof_s its cofactor."""
        s = self.g2 * (d_bc - d_b)
        loop = d_a * d_ac * m44 - (d_a * self.m41 * m14 + d_ac * self.m40 * m04)
        cof_s = (self.m40 - self.m41) * (m04 + m14) - (d_a - d_ac) * m44
        return loop, s, cof_s, d_b * d_bc * loop + s * cof_s


def solve_rows(
    p: CavityParams, m: MechanicsParams, fb: FeedbackConfig, omega, weights
) -> np.ndarray:
    """Transfer row K(w) = c^T M(w)^-1 N of the observable c^T x, with c =
    `weights` over the unknowns (a, a_conj, b, b_conj, i_fb).

    One single-RHS solve per frequency, M^T y = c, then K = y N; returns an
    (N, 9) complex array over the noise channels.  The solve is closed-form
    block elimination on the kernel's entries, elementwise over the
    frequencies.  The mechanical columns give y2 = (c2 + iG D) / d_b and y3
    = (c3 + iG D) / d_bc with D = y0 - y1 (d_b, d_bc != 0 on the real axis
    since gamma_m > 0).  What remains is a 3x3 system A (D, y1, y4) = r:
    cavity column 0 minus column 1 (the self-energy sigma = G^2 (1/d_bc -
    1/d_b) drops out), column 1 times d_b d_bc (sigma never forms) and
    column 4, with det A = det M.
    It is solved by cofactors, written so that
    - no terms cancel identically;
    - y2 and y3 come with d_b or d_bc divided out of their numerators
      exactly, not as c + iG D over d (near w = -+omega_m that sum cancels
      to ~gamma_m / Gamma_opt of its terms);
    - for c0 = c1 the partner problem at -w runs the conjugate operations,
      so S(omega_m) - S(-omega_m) keeps its precision in the rates;
    - no entry is pivoted on, M44 included (on the reflection port it
      vanishes at real w while M stays regular);
    - a term with a zero weight, or carrying G at G = 0, is left out: every
      OBSERVABLES row has zero weights (r1 = c0 - c1 = 0 in all four), and
      such a term only adds an exact zero, so no bit of a row changes but
      the sign of an exact zero.  Each numerator is divided into its column.
    A zero or non-finite det M raises OptomechanicalInstabilityError.
    """
    kernel = _Kernel(p, m, fb)
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    c0, c1, c2, c3, c4 = np.asarray(weights, dtype=complex).tolist()
    ig = 1j * m.G
    d_a, d_ac, d_b, d_bc, m04, m14, m44 = entries = kernel.at(
        omega, np.asarray(fb.gain(omega), complex)
    )
    m40, m41 = kernel.m40, kernel.m41
    m_diff = m40 - m41
    r1, r3 = c0 - c1, c4
    y = np.empty((omega.size, 5), dtype=complex)
    with np.errstate(all="ignore"):
        # det A = det M = d_b d_bc loop + s cof_s, cof_s the cofactor of s in A
        loop, s, cof_s, det = kernel.eliminate(*entries)
        if not (np.isfinite(det).all() and det.all()):
            raise OptomechanicalInstabilityError(
                "singular closed-loop system: frequency sits on an instability pole"
            )
        # a left-out term (see above) is a Python 0.0 in place of an array
        prod_b = d_b * d_bc if c1 or r1 or r3 else 0.0
        mech = (c3 * d_b if c3 else 0.0) - (c2 * d_bc if c2 else 0.0) if ig else 0.0
        r2 = (c1 * prod_b if c1 else 0.0) - (ig * mech if ig else 0.0)
        dm = d_ac * m44
        # (y0, y1, y4) det = adj(A) r with y0 = D + y1, r1 = c0 - c1 and r3 =
        # c4; d_rest is the r1, r3 part of D det / (d_b d_bc)
        num_0 = (dm + m_diff * m14) * r2
        num_1 = (d_a * m44 - m_diff * m04) * r2
        num_4 = -(d_ac * m04 + d_a * m14) * r2
        d_rest = 0.0
        if r1:
            d_rest = d_rest + (dm - m41 * (m04 + m14)) * r1
            num_0 = num_0 + (prod_b * (dm - m41 * m14) - s * m44) * r1
            num_1 = num_1 + (prod_b * m41 * m04 - s * m44) * r1
            num_4 = num_4 + (s * (m04 + m14) - prod_b * d_ac * m04) * r1
        if r3:
            d_rest = d_rest + (d_a * m41 - d_ac * m40) * r3
            num_0 = num_0 + (m_diff * s - prod_b * d_ac * m40) * r3
            num_1 = num_1 + (m_diff * s - prod_b * d_a * m41) * r3
            num_4 = num_4 + (prod_b * (d_a * d_ac) - (d_a - d_ac) * s) * r3
        # y2 det = (c2 + iG D) det / d_b and y3 det = (c3 + iG D) det / d_bc
        common = ig * (d_rest + c1 * cof_s) if ig and (c1 or r1 or r3) else 0.0
        split = kernel.g2 * (c3 - c2) * cof_s if kernel.g2 and c3 != c2 else 0.0
        num_2 = d_bc * ((c2 * loop if c2 else 0.0) + common) + split
        num_3 = d_b * ((c3 * loop if c3 else 0.0) + common) + split
        for k, num_k in enumerate((num_0, num_1, num_2, num_3, num_4)):
            np.divide(num_k, det, out=y[:, k])
    return y @ kernel.noise()


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

# The 15-point Gauss-Legendre rule on [-1, 1], pinned repr-exact as
# numpy.polynomial.legendre.leggauss(15) gives it, so that importing the
# package loads no numpy.polynomial and makes no LAPACK call.
_GL_NODES = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
    0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
])
_GL_WEIGHTS = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
    0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
    0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])
#: bisection rounds before adaptive_integral gives up
_MAX_ROUNDS = 48
#: most nodes one adaptive_integral round may evaluate, over 1200x the largest round
#: (810) in the tests and benchmark: a never-settling integrand bisects every panel
_MAX_QUADRATURE_NODES = 1_000_000
#: smallest rtol adaptive_integral accepts: below it the error budget sits
#: under rounding and every open panel is bisected each round
_MIN_RTOL = 1e-12


def check_rtol(rtol: float) -> None:
    """ValidationError unless rtol is finite and at least _MIN_RTOL."""
    if not (math.isfinite(rtol) and rtol >= _MIN_RTOL):
        raise ValidationError(f"rtol must be finite and at least {_MIN_RTOL:g}, got {rtol!r}")


def _gl_batch(fvec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    y = fvec(x.ravel()).reshape(x.shape)
    return (y @ _GL_WEIGHTS) * half


def adaptive_integral(fvec, edges: np.ndarray, rtol: float = 2e-4) -> float:
    """Globally adaptive panel integration with vectorized evaluation.

    Each round evaluates both halves of every open panel in one call of
    `fvec`, so a run makes `rounds` calls.  A panel's own estimate comes
    from the round that bisected its parent; the seed panels have none, so
    the first round's call evaluates them beside their halves.  A panel is
    retired when its refinement error is below its share of the global
    budget.  A split panel's halves take its place, so open panels stay
    sorted by position, which fixes the node order of every call.  Sums are
    math.fsum, correctly rounded, so they do not depend on the order in
    which panels were retired.  The bookkeeping is Python floats; numpy runs
    only in _gl_batch, whose batch (fresh seed panels, then every left half,
    then every right half) is part of the result's bits: y @ _GL_WEIGHTS can
    round differently when its row count changes.
    """
    check_rtol(rtol)
    points = np.asarray(edges, dtype=float).tolist()
    a, b, coarse = points[:-1], points[1:], []
    done: list[float] = []

    for _ in range(_MAX_ROUNDS):
        mid = [0.5 * (lo + hi) for lo, hi in zip(a, b)]
        # the panels from len(coarse) on have no estimate yet
        n, fresh = len(a), len(coarse)
        nodes = (3 * n - fresh) * _GL_NODES.size
        if nodes > _MAX_QUADRATURE_NODES:
            raise ConvergenceError(f"quadrature round would evaluate {nodes} nodes, past the cap")
        values = coarse + _gl_batch(
            fvec, np.array(a[fresh:] + a + mid), np.array(b[fresh:] + mid + b)
        ).tolist()
        coarse, left, right = values[:n], values[n : 2 * n], values[2 * n :]
        refined = [x + y for x, y in zip(left, right)]
        err = [abs(x - y) for x, y in zip(coarse, refined)]
        budget = rtol * abs(math.fsum(done) + math.fsum(refined))
        if math.fsum(err) <= budget:
            return math.fsum(done + refined)
        # a NaN error fails the test, so its panel is split
        limit = budget / (4.0 * max(n, 1))
        split = [not e <= limit for e in err]
        done += [x for x, s in zip(refined, split) if not s]
        a = [x for lo, m, s in zip(a, mid, split) if s for x in (lo, m)]
        b = [x for m, hi, s in zip(mid, b, split) if s for x in (m, hi)]
        coarse = [x for lo, hi, s in zip(left, right, split) if s for x in (lo, hi)]
    raise ConvergenceError("quadrature did not converge within the refinement cap")


def sideband_rates(
    p: CavityParams, m: MechanicsParams, fb: FeedbackConfig
) -> tuple[float, float]:
    """Weak-coupling Stokes and anti-Stokes rates (A+, A-) = G^2 S_X(-+omega_m),
    S_X the cavity quadrature spectrum of the closed loop at G = 0."""
    s_x = observable_spectrum(
        p, replace(m, G=0.0), fb, np.array([-m.omega_m, m.omega_m]), "x_cavity"
    )
    return m.G**2 * float(s_x[0]), m.G**2 * float(s_x[1])


def _mechanical_linewidth_guess(
    p: CavityParams, m: MechanicsParams, fb: FeedbackConfig, gamma_opt: float | None = None
) -> float:
    # Gamma_opt = A- - A+ (sideband_rates), unless the caller has it; at G = 0
    # it is 0 without the solve
    if m.G == 0.0:
        return m.gamma_m
    if gamma_opt is None:
        try:
            a_plus, a_minus = sideband_rates(p, m, fb)
            gamma_opt = a_minus - a_plus
        except LoopcoolError:
            gamma_opt = 0.0
    return m.gamma_m + abs(gamma_opt)


def _occupancy_edges(
    p: CavityParams, m: MechanicsParams, fb: FeedbackConfig, gamma_opt: float | None = None
) -> np.ndarray:
    gamma_eff = _mechanical_linewidth_guess(p, m, fb, gamma_opt)
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
    return np.array(sorted(pt for pt in points if -cutoff <= pt <= cutoff))


def phonon_occupancy(
    p: CavityParams,
    m: MechanicsParams,
    fb: FeedbackConfig,
    rtol: float = 2e-4,
    *,
    gamma_opt: float | None = None,
) -> float:
    """Stationary phonon number n = (1/2 pi) * integral of S_{b^dag b}(w) dw.

    Checks `rtol`, then the closed loop (OptomechanicalInstabilityError if
    unstable).  Panels seeded densely around the mechanical and cavity
    resonances (both signs), scaled by gamma_m + |Gamma_opt|, refine
    adaptively to `rtol`.  A caller holding the weak-coupling Gamma_opt
    passes it as `gamma_opt`, saving its G = 0 solve; n is the same.
    """
    check_rtol(rtol)
    if not closed_loop_stability(p, m, fb):
        raise OptomechanicalInstabilityError(
            "closed loop unstable; no stationary occupancy"
        )
    edges = _occupancy_edges(p, m, fb, gamma_opt)

    def integrand(omega: np.ndarray) -> np.ndarray:
        return observable_spectrum(p, m, fb, omega, "n_mech")

    return adaptive_integral(integrand, edges, rtol=rtol) / (2.0 * math.pi)


def closed_loop_determinant(
    p: CavityParams, m: MechanicsParams, fb: FeedbackConfig, omega
) -> np.ndarray:
    """R(w) = det M(w) / (d_a d_ac d_b d_bc) for the system solve_rows solves.

    It comes from the kernel's one elimination alone, the gain read once: R
    = D + s cof_s / (d_a d_ac d_b d_bc), D = loop / (d_a d_ac) being the
    empty-cavity loop denominator; s = G^2 (d_bc - d_b) is an exact zero at
    G = 0, so there R is D.  Its winding decides a tabulated gain's
    stability (closed_loop_stability).
    """
    kernel = _Kernel(p, m, fb)
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    d_a, d_ac, d_b, d_bc, *_ = entries = kernel.at(w, np.asarray(fb.gain(w), complex))
    loop, s, cof_s, _det = kernel.eliminate(*entries)
    return loop / (d_a * d_ac) + s * cof_s / (d_a * d_ac * d_b * d_bc)


#: offsets from omega_m, in units of gamma_m, probed for delay crossings too
_MECHANICAL_PROBES = tuple(10.0**k for k in range(-3, 5))


class _DetParts:
    """The parts quasipoly.zero_count reads: det M(s x) = P(x) + g Q(x) at
    complex x = w / s, s the frequency scale, for a FlatDelay loop g = c e^{i tau w}.

    g enters M only through column 4 (M04 = u0 g, M14 = u1 g, M44 = 1 + v g)
    and det M is linear in it, so the kernel's elimination gives P with
    column 4 = (0, 0, 1) and Q with (u0, u1, v).  Every other entry is affine
    in w, so both are polynomials of degree <= 4.

    Every value that decides something comes from the elimination: near
    +-omega_m, |P|^2 - |g|^2 |Q|^2 is a difference far below the scale of the
    expanded coefficients p_coef, q_coef (highest first), which only seed
    the root finder and give the derivatives that steer Newton steps.
    Expanded in x - center, center = omega_m / s, they carry the small d_b
    there as a constant, so roots near omega_m keep their precision.  They
    are lists of Python complex, expanded from two scalar reads of M: at
    degree 4, numpy's per-call cost would exceed the arithmetic.
    """

    def __init__(self, p: CavityParams, m: MechanicsParams, fb: FeedbackConfig):
        self.scale = max(abs(p.detuning), m.omega_m, p.kappa)
        self.center = center = m.omega_m / self.scale
        self.c = fb.gain.amplitude * cmath.exp(1j * fb.gain.phase_offset)
        self.kernel = kernel = _Kernel(p, m, fb)
        # at g = 1 column 4 holds u0, u1 and 1 + v (at g = 0: 0, 0 and 1)
        *at_zero, _, _, _ = kernel.at(0.0, 1.0)
        *at_scale, self.u0, self.u1, m44 = kernel.at(self.scale, 1.0)
        self.v = m44 - 1.0
        # (constant, slope per unit x) of d_a, d_ac, d_b, d_bc
        self.diag = [(complex(d0), complex(d1 - d0)) for d0, d1 in zip(at_zero, at_scale)]

        a, ac, b, bc = ([slope, const + slope * center] for const, slope in self.diag)
        prod_a, prod_b = convolve(a, ac), convolve(b, bc)
        split_a = [x - y for x, y in zip(a, ac)]
        split_b = [kernel.g2 * (x - y) for x, y in zip(b, bc)]
        feed = [self.u1 * kernel.m41 * x + self.u0 * kernel.m40 * y for x, y in zip(a, ac)]
        loop = [self.v * x - y for x, y in zip(prod_a, [0.0, *feed])]
        direct = [self.v * x for x in split_a]
        direct[1] -= (kernel.m40 - kernel.m41) * (self.u0 + self.u1)
        # the self-energy terms are of degree 2, the products of degree 4
        self.p_coef, self.q_coef = (
            [x + y for x, y in zip(convolve(prod_b, head), [0.0, 0.0, *convolve(split_b, tail)])]
            for head, tail in ((prod_a, split_a), (loop, direct))
        )
        self.dp_coef, self.dq_coef = (
            [k * c for k, c in zip(range(len(coef) - 1, 0, -1), coef)]
            for coef in (self.p_coef, self.q_coef)
        )

    def values(self, x):
        """P and Q at x; for an array, one elimination with column 4 stacked."""
        diag = [const + slope * x for const, slope in self.diag]
        if isinstance(x, np.ndarray):
            columns = np.array([[[0j], [self.u0]], [[0j], [self.u1]], [[1.0], [self.v]]])
            return self.kernel.eliminate(*diag, *columns)[3]
        p_val = self.kernel.eliminate(*diag, 0.0, 0.0, 1.0)[3]
        return p_val, self.kernel.eliminate(*diag, self.u0, self.u1, self.v)[3]

    def __call__(self, x):
        """P, Q and their x-derivatives at a scalar x."""
        p_val, q_val = self.values(x)
        t, dp, dq = x - self.center, 0.0, 0.0
        for p_k, q_k in zip(self.dp_coef, self.dq_coef):
            dp, dq = dp * t + p_k, dq * t + q_k
        return p_val, q_val, dp, dq


def _zero_count(p: CavityParams, m: MechanicsParams, fb: FeedbackConfig) -> tuple[float, float]:
    """(count, margin) of a FlatDelay loop: quasipoly.zero_count of det M = P + c
    e^{i tau w} Q in the upper half plane and its delay_margin, on one set of
    parts, model.direct_ratio and probes geometric in gamma_m about omega_m."""
    parts = _DetParts(p, m, fb)
    gamma = m.gamma_m / parts.scale
    probes = [x for k in _MECHANICAL_PROBES
              for x in (parts.center - gamma * k, parts.center + gamma * k)]
    tau, ratio = fb.gain.delay, model.direct_ratio(p, fb)
    return quasipoly.zero_count(parts, parts.c, tau, parts.scale, ratio, probes)


def delay_margin(p: CavityParams, m: MechanicsParams, fb: FeedbackConfig) -> float:
    """Delay margin (s) of a FlatDelay loop: how much longer the loop delay
    can grow before a pair of closed-loop poles crosses into the upper half
    plane (Michiels & Niculescu, Stability and Stabilization of Time-Delay
    Systems, SIAM 2007), read exactly in the zero count's pass (_zero_count):
    inf for a stable loop that no crossing destabilises (zero gain among
    them); 0.0 when the loop is already unstable, on a stability boundary
    or of neutral type; NaN for a Tabulated gain, which has no delay to tune.
    """
    if not isinstance(fb.gain, FlatDelay):
        return math.nan
    try:
        return _zero_count(p, m, fb)[1]
    except InstabilityBoundaryError:
        return 0.0


def closed_loop_stability(p: CavityParams, m: MechanicsParams, fb: FeedbackConfig) -> bool:
    """Stable iff det M(w) has no zeros in the upper half plane: they are the
    unstable closed-loop poles, static runaways included.

    For a FlatDelay gain the zeros are counted exactly by delay crossings
    (_zero_count, which gives delay_margin in the same pass); a loop of
    neutral type is unstable.  For a Tabulated gain, of both evaluators (the
    weak one at G = 0, where R = D), this is the generalized Nyquist
    criterion (MacFarlane & Postlethwaite 1977): R(w) (closed_loop_determinant)
    must wind zero times around 0 along feedback.loop_contour, seeded in the
    measured band with the quadrature's first-round nodes on the decoupled
    (G = 0) panels: one seed rule for both evaluators, and no rates solved.
    """
    if isinstance(fb.gain, FlatDelay):
        return _zero_count(p, m, fb)[0] == 0
    edges = _occupancy_edges(p, m, fb, 0.0)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    seeds = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
    lo, hi = fb.gain.domain
    seeds = seeds[(np.abs(seeds) >= lo) & (np.abs(seeds) <= hi)]
    omega = np.union1d(feedback.loop_contour(p, fb), seeds)
    return feedback.winding_verdict(lambda w: closed_loop_determinant(p, m, fb, w), omega).stable


def displacement_spectrum(
    p: CavityParams,
    m: MechanicsParams,
    fb: FeedbackConfig,
    points: int = 2001,
) -> Spectrum:
    """Spectrum of the mechanical quadrature q = b + b^dag on a band of 30
    estimated linewidths (at least 1e-4 omega_m) either side of the
    resonance.  Like observable_spectrum it does not check stability; an
    unstable loop gives a meaningless spectrum, so check first
    (phonon_occupancy does).  Natural (phonon) units, like
    observable_spectrum.
    """
    gamma_eff = _mechanical_linewidth_guess(p, m, fb)
    half = max(30.0 * gamma_eff, 1e-4 * m.omega_m)
    omega = np.linspace(m.omega_m - half, m.omega_m + half, points)
    return Spectrum(omega=omega, values=observable_spectrum(p, m, fb, omega, "q_mech"))


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
