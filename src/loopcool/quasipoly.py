"""Zeros in the upper half plane of a real quasi-polynomial h(x) = P(x) + c e^{i tau s x}
Q(x), P and Q of any degree (deg Q <= deg P), counted exactly by delay crossings (Walton
& Marshall, IEE Proc. D 134, 101 (1987); Olgac & Sipahi, IEEE TAC 47, 793 (2002)).  Real
means h(-x*) = h(x)*.

The zeros of the polynomial P + c Q are counted at tau = 0 (_undelayed_zeros).  As the
delay grows to tau, a pair x, -x* crosses the real axis at each crossing frequency x > 0,
where |P| = |c Q| (_crossing_frequencies), at the delays tau_k = (theta + 2 pi k) / (s x),
k >= 0, theta = arg(-P / (c Q)) mod 2 pi there, up for direction +1 and down for -1.  The
direct-path ratio |c Q_n / P_n| sets the type: retarded below 1, of neutral type above,
with infinitely many zeros in the upper half plane at any tau > 0 (Hale & Verduyn Lunel
1993).

A parts object holds center and p_coef, q_coef: P and Q in t = x - center, highest power
first, of one length.  parts.values(x) gives the precise P and Q at a real x or an array
of them, parts(x) P, Q, P' and Q'.
"""

import cmath
import math

import numpy as np

from .errors import InstabilityBoundaryError

#: |Im x| below which a root counts as on the real axis
_AXIS_TOL = 1e-12
#: loop phase (rad) within which the delay counts as a crossing delay
_CROSSING_PHASE_TOL = 1e-9
#: largest half-width of the probes either side of each crossing seed
_SEED_PROBE = 1e-9
#: most Newton steps polishing a tau = 0 root, and the cap on bracketed ones;
#: either stops once a step is at rounding level, within _ROUNDING of |x|
_POLISH_STEPS = 2
_NEWTON_STEPS = 100
#: a tau = 0 root is polished up to |Im x| = _POLISH_BAND max(1, |x|); a direct-path
#: ratio within NEUTRAL_TOL of 1 is the retarded/neutral boundary
_POLISH_BAND, NEUTRAL_TOL = 1e-6, 5e-4
_ROUNDING = 4.0 * float(np.finfo(float).eps)


def convolve(a: list, b: list) -> list:
    """Coefficients (highest first) of the product of two polynomials."""
    out = [0j] * (len(a) + len(b) - 1)
    for i, a_i in enumerate(a):
        for j, b_j in enumerate(b):
            out[i + j] += a_i * b_j
    return out


def _roots(coef) -> np.ndarray:
    """np.roots of float or complex coefficients without its wrapper: the
    eigenvalues of the same companion matrix.  Zero end coefficients go to
    np.roots, which strips them (a trailing zero is an exact zero root)."""
    coef = np.asarray(coef)
    if not (coef[0] and coef[-1]):
        return np.roots(coef)
    companion = np.eye(coef.size - 1, k=-1, dtype=coef.dtype)
    companion[0] = -coef[1:] / coef[0]
    return np.linalg.eigvals(companion)


def _crossing_frequencies(parts, c: complex, extra: list) -> list[tuple[float, int]]:
    """Positive real roots x of F = |P|^2 - |c|^2 |Q|^2, each with the sign of F' there.
    The roots of the expanded F seed probes either side of their real parts, the
    `extra` probes catch what the seeds miss, and every sign change of the precise F
    (values) between sorted probes is polished by safeguarded Newton, which stops once a
    step is within _ROUNDING of x, even on the bracket's edge; only a longer step out of
    the bracket is bisected.  A probe sits at most a quarter of the way to the next
    seed: a pair of crossings can lie closer together than _SEED_PROBE."""
    c2, center, p_coef, q_coef = abs(c) ** 2, parts.center, parts.p_coef, parts.q_coef
    p_sq = convolve(p_coef, [z.conjugate() for z in p_coef])
    q_sq = convolve(q_coef, [z.conjugate() for z in q_coef])
    f_coef = [(pp - c2 * qq).real for pp, qq in zip(p_sq, q_sq)]
    seeds = sorted({x + center for x in _roots(f_coef).real.tolist() if x + center > 0.0})
    gaps = [hi - lo for lo, hi in zip(seeds, seeds[1:])]
    lead = f_coef[0]  # off 0 by the neutral band; Fujiwara, Tohoku Math. J. 10, 167 (1916)
    beyond = center + 2.0 * max(abs(f / lead) ** (1.0 / k) for k, f in enumerate(f_coef[1:], 1))
    probes = {0.0, beyond}
    for x, below, above in zip(seeds, [math.inf, *gaps], [*gaps, math.inf]):
        width = min(_SEED_PROBE, 0.25 * min(above, below))
        probes.update((x - width, x + width))
    probes.update(extra)
    probes = sorted(x for x in probes if x >= 0.0)

    def residual(p_val, q_val):
        return (p_val * p_val.conjugate()).real - c2 * (q_val * q_val.conjugate()).real

    f_probe = residual(*parts.values(np.array(probes)))
    found = []
    # signs, not a product: F * F can overflow
    for k in np.flatnonzero(np.sign(f_probe[:-1]) * np.sign(f_probe[1:]) < 0.0).tolist():
        lo, hi = probes[k], probes[k + 1]
        rising = bool(f_probe[k] < 0.0)
        x = 0.5 * (lo + hi)
        for _ in range(_NEWTON_STEPS):
            p_val, q_val, dp, dq = parts(x)
            f = residual(p_val, q_val)
            if f == 0.0:
                break
            if (f < 0.0) == rising:
                lo = x
            else:
                hi = x
            df = 2.0 * ((p_val.conjugate() * dp).real - c2 * (q_val.conjugate() * dq).real)
            step = x - f / df if df else 0.5 * (lo + hi)
            # a converged step stands on an edge: bisecting walks ~20 steps back
            if abs(step - x) > _ROUNDING * x and not lo < step < hi:
                step = 0.5 * (lo + hi)
            if abs(step - x) <= _ROUNDING * x:
                x = step
                break
            x = step
        found.append((x, 1 if rising else -1))
    return found


def _undelayed_zeros(parts, c: complex) -> int:
    """Zeros of the polynomial P + c Q (h at tau = 0) in the upper half plane.  A zero
    within _POLISH_BAND of the real axis is polished by Newton steps that stop at
    rounding level.  Any other keeps its companion eigenvalue: a step, about its error
    (rounding times its condition), could move neither its sign nor the _AXIS_TOL test
    while the neutral band keeps P_n + c Q_n off 0.  A real-axis zero raises
    InstabilityBoundaryError."""
    count = 0
    coef = [p_k + c * q_k for p_k, q_k in zip(parts.p_coef, parts.q_coef)]
    for x in (_roots(coef) + parts.center).tolist():
        polish = abs(x.imag) <= _POLISH_BAND * max(1.0, abs(x))
        for _ in range(_POLISH_STEPS if polish else 0):
            p_val, q_val, dp, dq = parts(x)
            slope = dp + c * dq
            step = (p_val + c * q_val) / slope if slope else 0.0
            x -= step
            if abs(step) <= _ROUNDING * abs(x):
                break
        if abs(x.imag) < _AXIS_TOL:
            raise InstabilityBoundaryError("closed-loop pole on the real frequency axis")
        count += int(x.imag > 0.0)
    return count


def zero_count(parts, c: complex, tau: float, scale: float, ratio: float, probes):
    """(count, margin): h's zeros in the upper half plane, and the smallest tau_k - tau
    > 0 over the +1 crossings (inf if none, 0.0 if the count is not 0).  A `ratio`
    within NEUTRAL_TOL of 1, a real-axis zero or tau > 0 on a crossing raises
    InstabilityBoundaryError; `probes` are real x probed besides the seeds."""
    if abs(ratio - 1.0) <= NEUTRAL_TOL:
        raise InstabilityBoundaryError("loop on the neutral boundary")
    if ratio > 1.0:
        return (math.inf if tau > 0.0 else _undelayed_zeros(parts, c)), 0.0
    count = _undelayed_zeros(parts, c)
    # zero gain has no crossings, and at tau = 0 an unstable loop no margin
    if c == 0.0 or (count and tau == 0.0):
        return count, 0.0 if count else math.inf
    margins = []
    for x, direction in _crossing_frequencies(parts, c, probes):
        p_val, q_val = parts.values(x)
        theta = cmath.phase(-p_val / (c * q_val)) % (2.0 * math.pi)
        lag = tau * scale * x - theta
        if tau > 0.0 and abs(math.remainder(lag, 2.0 * math.pi)) < _CROSSING_PHASE_TOL:
            raise InstabilityBoundaryError("loop delay sits on a closed-loop pole crossing")
        passed = math.floor(lag / (2.0 * math.pi)) + 1 if lag > 0.0 else 0
        count += 2 * direction * passed
        if direction > 0:
            margins.append((theta + 2.0 * math.pi * passed) / (scale * x) - tau)
    return count, 0.0 if count else min(margins, default=math.inf)
