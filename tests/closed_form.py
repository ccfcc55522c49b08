"""Test oracles outside the package: the closed-form empty-cavity rate
spectrum and in-loop photocurrent (squash) spectrum, kept as oracles for
the exact solve that the package uses (langevin.observable_spectrum at
G = 0), the entries of the closed-loop system M(w) x = N n that the
dense-solve and determinant oracles assemble, and the numpy-array forms of
the adaptive quadrature and of the tau = 0 zero count that the package's
list and polish-near-the-axis forms must match bit for bit."""

import cmath
import math

import numpy as np

from loopcool import feedback, langevin, model, quasipoly


def feedback_lambda(p, fb, omega):
    """Lambda(w) = 2 zeta_c(w) g_fb(w) / [1 - 2 sqrt(eta) zeta_out(w) g_fb(w)],
    the in-loop modification of the cavity amplitude quadrature."""
    d = feedback.checked_loop_denominator(p, fb, omega)
    num = 2.0 * np.asarray(model.zeta_cavity(p, 0.0, omega)) * np.asarray(
        fb.gain(omega)
    )
    out = num / d
    return out if out.ndim else complex(out)


def squash_spectrum(p, fb, omega):
    """In-loop photocurrent spectrum S_i(w) = 1/|D(w)|^2, shot noise = 1:
    below 1 is squashing, above 1 anti-squashing."""
    out = 1.0 / np.abs(feedback.checked_loop_denominator(p, fb, omega)) ** 2
    return out if out.ndim else float(out)


def cavity_quadrature_spectrum(p, fb, omega):
    """Empty-cavity spectrum of the coupled quadrature X = a + a^dag:

    S_X(w) = (1/2 kappa) * { |chi(w) + sqrt(eta kappa_fb/kappa0)
                              Lambda(w)* e^{-i phi_fb}|^2
                             + (kappa - eta kappa_fb)/kappa0 * |Lambda(w)|^2 }

    with (kappa_fb, phi_fb) fixed by the detected port.
    """
    kappa_fb, _theta_fb, _z = model.port_constants(p, fb)
    phi_fb = model.detected_phase(p, fb)
    lam = np.asarray(feedback_lambda(p, fb, omega))
    chi = np.asarray(model.cavity_susceptibility(p, omega))
    coherent = chi + math.sqrt(fb.eta * kappa_fb / p.kappa0) * np.conjugate(
        lam
    ) * cmath.exp(-1j * phi_fb)
    incoherent = (p.kappa - fb.eta * kappa_fb) / p.kappa0 * np.abs(lam) ** 2
    out = (np.abs(coherent) ** 2 + incoherent) / (2.0 * p.kappa)
    return out if out.ndim else float(out)


def system_entries(p, m, fb, omega):
    """The closed-loop system M(w) x = N n as the test oracles read it: the
    nonzero entries of M keyed by (row, column), the (5, 9) noise matrix N
    and g_fb(w), all from the kernel the package solves on."""
    kernel = langevin._Kernel(p, m, fb)
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    g = np.asarray(fb.gain(omega), dtype=complex)
    d_a, d_ac, d_b, d_bc, m04, m14, m44 = kernel.at(omega, g)
    ig, mig = 1j * m.G, -1j * m.G
    mat = {
        (0, 0): d_a, (0, 2): mig, (0, 3): mig, (0, 4): m04,
        (1, 1): d_ac, (1, 2): ig, (1, 3): ig, (1, 4): m14,
        (2, 2): d_b, (2, 0): mig, (2, 1): mig,
        (3, 3): d_bc, (3, 0): ig, (3, 1): ig,
        (4, 0): kernel.m40, (4, 1): kernel.m41, (4, 4): m44,
    }
    return mat, kernel.noise(), g


def adaptive_integral(fvec, edges, rtol=2e-4):
    """langevin.adaptive_integral with its panel bookkeeping in numpy arrays:
    it makes the same _gl_batch calls on the same batches as the package's
    list form, so the two must agree bit for bit."""
    langevin.check_rtol(rtol)
    a = np.asarray(edges[:-1], dtype=float)
    b = np.asarray(edges[1:], dtype=float)
    coarse = np.empty(0)
    done = []

    for _ in range(langevin._MAX_ROUNDS):
        mid = 0.5 * (a + b)
        # the panels from coarse.size on have no estimate yet
        fresh = slice(coarse.size, None)
        nodes = (3 * a.size - coarse.size) * langevin._GL_NODES.size
        if nodes > langevin._MAX_QUADRATURE_NODES:
            raise langevin.ConvergenceError(
                f"quadrature round would evaluate {nodes} nodes, past the cap"
            )
        values = langevin._gl_batch(
            fvec, np.concatenate([a[fresh], a, mid]), np.concatenate([b[fresh], mid, b])
        )
        values, n = np.concatenate([coarse, values]), a.size
        coarse, left, right = values[:n], values[n : 2 * n], values[2 * n :]
        refined = left + right
        err = np.abs(coarse - refined)
        total = math.fsum(done) + math.fsum(refined.tolist())
        budget = rtol * abs(total)
        if math.fsum(err.tolist()) <= budget:
            return math.fsum(done + refined.tolist())
        # a NaN error fails the test, so its panel is split
        split = ~(err <= budget / (4.0 * max(err.size, 1)))
        done += refined[~split].tolist()
        a = np.stack([a[split], mid[split]], axis=1).ravel()
        b = np.stack([mid[split], b[split]], axis=1).ravel()
        coarse = np.stack([left[split], right[split]], axis=1).ravel()
    raise langevin.ConvergenceError("quadrature did not converge within the refinement cap")


def undelayed_zeros_polishing_all(parts, c):
    """quasipoly._undelayed_zeros with every root polished, however far from
    the real axis: the form the package's polish band must agree with."""
    count = 0
    coef = [p_k + c * q_k for p_k, q_k in zip(parts.p_coef, parts.q_coef)]
    for x in (quasipoly._roots(coef) + parts.center).tolist():
        for _ in range(quasipoly._POLISH_STEPS):
            p_val, q_val, dp, dq = parts(x)
            slope = dp + c * dq
            step = (p_val + c * q_val) / slope if slope else 0.0
            x -= step
            if abs(step) <= quasipoly._ROUNDING * abs(x):
                break
        if abs(x.imag) < quasipoly._AXIS_TOL:
            raise quasipoly.InstabilityBoundaryError("closed-loop pole on the real frequency axis")
        count += int(x.imag > 0.0)
    return count
