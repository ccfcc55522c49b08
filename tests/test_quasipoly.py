"""The delay-crossing zero count on quasi-polynomials of known roots, apart
from any physics: h(x) = P(x) + c e^{i tau s x} Q(x) with P and Q of degree 2
to 10, checked against the argument principle."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopcool import feedback, quasipoly
from test_presets import run_fresh


class KnownParts:
    """The parts quasipoly reads, for P and Q given by their leading
    coefficients and roots: precise values from the product form, the
    coefficients in t = x - center expanded from it, Q's padded with
    leading zeros to P's length."""

    def __init__(self, p_lead, p_roots, q_lead, q_roots, center):
        self.center = center
        self.factors = [(p_lead, np.array(p_roots)), (q_lead, np.array(q_roots))]
        self.p_coef, q_coef = (
            (lead * np.atleast_1d(np.poly(roots - center))).tolist()
            for lead, roots in self.factors
        )
        self.q_coef = [0j] * (len(self.p_coef) - len(q_coef)) + q_coef
        self.derivatives = [np.polyder(self.p_coef), np.polyder(self.q_coef)]

    def values(self, x):
        x = np.asarray(x)
        out = [lead * np.prod(x[..., None] - roots, axis=-1) for lead, roots in self.factors]
        return out if x.ndim else [complex(v) for v in out]

    def __call__(self, x):
        dp, dq = (complex(np.polyval(d, x - self.center)) for d in self.derivatives)
        return (*self.values(x), dp, dq)


@st.composite
def real_polynomials(draw, degree, stable=False):
    """(leading coefficient, roots) of a polynomial of `degree` that is real
    in the sense P(-x*) = P(x)*: a root off the imaginary axis comes with
    its mirror -r*, and the leading coefficient is i^degree times a real.
    A stable one has its roots in the lower half plane."""
    pairs = draw(st.integers(0, degree // 2))
    heights = st.floats(-3.0, -0.05)
    if not stable:
        heights |= st.floats(0.05, 3.0)
    roots = []
    for _ in range(pairs):
        r = complex(draw(st.floats(0.05, 3.0)), draw(heights))
        roots += [r, -r.conjugate()]
    roots += [1j * draw(heights) for _ in range(degree - 2 * pairs)]
    return 1j**degree * draw(st.sampled_from([-1.0, 1.0])), roots


@st.composite
def quasi_polynomials(draw):
    """(parts, c, tau, scale, ratio) of a retarded h: deg Q <= deg P, a
    direct-path ratio |c Q_n / P_n| of at most 0.9 when the degrees match,
    and no zero on the real axis at tau = 0."""
    degree = draw(st.integers(2, 10))
    p_lead, p_roots = draw(real_polynomials(degree, stable=draw(st.booleans())))
    q_degree = draw(st.integers(0, degree))
    q_lead, q_roots = draw(real_polynomials(q_degree))
    c = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-1.0, 1.0))
    ratio = 0.0
    if q_degree == degree:
        ratio = draw(st.floats(0.0, 0.9))
        q_lead *= ratio / abs(c)
    parts = KnownParts(p_lead, p_roots, q_lead, q_roots, draw(st.floats(0.0, 2.0)))
    # a zero of h on the real axis at tau = 0 is a stability boundary, which
    # no box can count; round draws can cancel terms of P + c Q exactly
    undelayed = np.roots([p_k + c * q_k for p_k, q_k in zip(parts.p_coef, parts.q_coef)])
    assume(np.all(np.abs(undelayed.imag) > 1e-6))
    scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    tau = draw(st.floats(0.0, 4.0)) / scale
    return parts, c, tau, scale, ratio


def box_zero_count(parts, c, tau_s):
    """Zeros of h(x) = P(x) + c e^{i tau_s x} Q(x) in the upper half plane by
    the argument principle, along a box |Re x| < R, 0 < Im x < R with R past
    where |P| > |c Q| on and above the real axis, so it holds them all.  The
    real axis is sampled finer than the delay's phase turns and the roots'
    heights, so no turn of h hides between two samples."""
    (p_lead, p_roots), (q_lead, q_roots) = parts.factors
    p_top = max(abs(p_roots))
    q_top = max(abs(q_roots), default=0.0)
    radius = 2.0 * p_top + 1.0
    while abs(p_lead) * (radius - p_top) ** p_roots.size <= (
        abs(c * q_lead) * (radius + q_top) ** q_roots.size
    ):
        radius *= 2.0

    def h(t):
        # counter-clockwise perimeter, t in [0, 4]: real axis, right side,
        # top, left side
        x = np.select(
            [t <= 1.0, t <= 2.0, t <= 3.0],
            [-radius + 2.0 * radius * t + 0j, radius + 1j * radius * (t - 1.0),
             radius - 2.0 * radius * (t - 2.0) + 1j * radius],
            -radius + 1j * radius * (4.0 - t),
        )
        p_val, q_val = parts.values(x)
        return p_val + c * np.exp(1j * tau_s * x) * q_val

    spacing = min(0.01, 0.25 / tau_s) if tau_s else 0.01
    on_axis = np.linspace(0.0, 1.0, int(2.0 * radius / spacing) + 1)
    t = np.union1d(np.linspace(0.0, 4.0, 8001), on_axis)
    return feedback.winding_verdict(h, t).winding_number


class TestZeroCount:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(loop=quasi_polynomials())
    def test_count_and_margin_match_the_argument_principle(self, loop):
        # the count at the drawn delay, and where it has one, the margin:
        # no zero in the upper half plane just short of tau + margin, a pair
        # just past it
        parts, c, tau, scale, ratio = loop
        count, margin = quasipoly.zero_count(parts, c, tau, scale, ratio, [])
        assert count == box_zero_count(parts, c, tau * scale)
        if count:
            assert margin == 0.0
        elif math.isfinite(margin):
            for factor, pair in ((1.0 - 1e-3, 0), (1.0 + 1e-3, 2)):
                assert box_zero_count(parts, c, (tau + factor * margin) * scale) == pair


def test_module_imports_only_errors_from_the_package():
    # the count knows no physics: loaded without the package's __init__,
    # which imports every module, it brings in errors alone
    run_fresh(
        "import importlib.util, sys, types\n"
        "package = types.ModuleType('loopcool')\n"
        "package.__path__ = list(importlib.util.find_spec('loopcool').submodule_search_locations)\n"
        "sys.modules['loopcool'] = package\n"
        "import loopcool.quasipoly\n"
        "loaded = sorted(k for k in sys.modules if k.startswith('loopcool.'))\n"
        "assert loaded == ['loopcool.errors', 'loopcool.quasipoly'], loaded\n"
    )
