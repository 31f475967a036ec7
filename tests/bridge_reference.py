"""Integral route for the affine-boundary bridge probability, a test reference.

The library evaluates the bridge non-crossing probability in closed form
(`noncross_affine_product`).  This module integrates the double-conditioned
first-hitting density instead, on QUADPACK (Piessens et al. 1983) through
`scipy.integrate.quad`, so the tests can pin the closed form against a route
that shares none of its algebra.
"""

import math
import warnings

from scipy.integrate import IntegrationWarning, quad

from slepian_bcp import DomainError

DEGENERATE_PIN = 1e-12


def integrate(f, a, b, tol, points=()):
    """Integral of the scalar function f over [a, b], absolute tolerance tol.

    Break points outside (a, b) are dropped.  Any IntegrationWarning
    (subdivision limit, roundoff, divergence) is raised as an error.
    """
    inner = sorted(p for p in set(points) if a < p < b)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        value, _ = quad(f, a, b, epsabs=tol, epsrel=0.0, limit=200,
                        points=inner or None)
    return value


def noncross_affine(spec, b, a, tol=1e-10):
    """P(W <= b + a*(t - t_i) on [t_i, t_i1] | pins), to absolute tol.

    One minus the integrated hitting density of the `bridge` module
    docstring, split at h/2: s = v^2 on the left half removes the s^{-3/2}
    singularity, s = h - w^2 on the right half absorbs (h - s)^{-1/2}.
    The integrands are formed in log space, since the raw 1/v^2 prefactor
    overflows before the exponential underflows.  A pin near the boundary
    leaves a layer of width ~ sqrt(q) * gap / 2 in the substituted variable;
    its scales are passed as break points so it cannot hide between nodes.
    A pin within 1e-12 of the boundary returns 0, the limit, directly.

    Tested on pin gaps from 1e-6 to 2.5.  Below about 1e-9 the result
    drifts without an IntegrationWarning.
    """
    q, h, x_i, x_i1 = spec.params.q, spec.h, spec.x_i, spec.x_i1
    gap_l, gap_r = b - x_i, b + a * h - x_i1
    if gap_l < 0.0 or gap_r < 0.0:
        raise DomainError(
            f"pins must lie strictly below the boundary: gaps {gap_l}, "
            f"{gap_r}")
    if min(gap_l, gap_r) < DEGENERATE_PIN:
        return 0.0

    def log_density(s):
        aa, cc = b + a * s - x_i, x_i1 - b - a * s
        return -0.25 * q * (aa * aa / s + cc * cc / (h - s)
                            - (x_i1 - x_i) ** 2 / h)

    def left(v):
        s = v * v
        if not 0.0 < s < h:
            return 0.0
        return math.exp(math.log(2.0) - 2.0 * math.log(v)
                        - 0.5 * math.log(h - s) + log_density(s))

    def right(w):
        s = h - w * w
        if not 0.0 < s < h:
            return 0.0
        return math.exp(math.log(2.0) - 1.5 * math.log(s) + log_density(s))

    def seeds(gap):
        return [0.5 * math.sqrt(q) * gap * 10.0 ** k for k in range(-1, 4)]

    # the integral carries the hitting mass over pref, so the tolerance on
    # the probability is tol / pref on the integral
    pref = math.sqrt(q * h) * gap_l / (2.0 * math.sqrt(math.pi))
    half, inner_tol = math.sqrt(h / 2.0), 0.5 * tol / pref
    integral = (integrate(left, 0.0, half, inner_tol, seeds(gap_l))
                + integrate(right, 0.0, half, inner_tol, seeds(gap_r)))
    return min(1.0, max(0.0, 1.0 - pref * integral))
