"""Pinned-bridge non-crossing probabilities and first-hitting densities.

A bridge is the process conditioned on its values at the two ends of a
subinterval [t_i, t_i1] of [q, d].  For a constant boundary b the
non-crossing probability has the closed form

    P(W <= b on (t_i, t_i1) | pins) = 1 - exp(-q (b - x_i)(b - x_i1) / h),

h = t_i1 - t_i, which coincides with the classical Brownian-bridge formula
under the time change h -> 2h/q (so at q = 2 the two agree literally).

For an affine boundary b + a*(t - t_i) the probability is one minus the
integral of the double-conditioned first-hitting density

    pi(t_i + s) = sqrt(qh) (b - x_i) / (2 sqrt(pi (h-s) s^3))
                  * exp(E(s)),                               0 < s < h,
    E(s) = -(q/4) [ (b + a s - x_i)^2 / s
                    + (x_i1 - b - a s)^2 / (h - s)
                    - (x_i1 - x_i)^2 / h ],

where E(s) <= 0 always (Cauchy-Schwarz), so the density never overflows.
The integral has the closed form `noncross_affine_product`, the only route
the library evaluates; the test suite checks it against the density
integrated by an independent quadrature (QUADPACK).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .process import ProcessParams


@dataclass(frozen=True)
class BridgeSpec:
    """A bridge: the process on [t_i, t_i1] pinned to x_i and x_i1."""

    params: ProcessParams
    t_i: float
    t_i1: float
    x_i: float
    x_i1: float

    def __post_init__(self):
        self.params.check_time(self.t_i, "t_i")
        self.params.check_time(self.t_i1, "t_i1")
        if not self.t_i < self.t_i1:
            raise DomainError(
                f"need t_i < t_i1, got ({self.t_i}, {self.t_i1})")
        if not (math.isfinite(self.x_i) and math.isfinite(self.x_i1)):
            raise DomainError("pinned values must be finite")

    @property
    def h(self) -> float:
        """Bridge length t_i1 - t_i."""
        return self.t_i1 - self.t_i


def noncross_constant(spec: BridgeSpec, b: float) -> float:
    """P(W <= b on (t_i, t_i1) | pins), constant boundary, closed form.

    Zero when either pin sits on the boundary; strictly increasing in b
    while both pins stay below it.
    """
    if spec.x_i > b or spec.x_i1 > b:
        raise DomainError(
            f"pinned values must not exceed the boundary b={b}, got "
            f"({spec.x_i}, {spec.x_i1})")
    q = spec.params.q
    z = q * (b - spec.x_i) * (b - spec.x_i1) / spec.h
    return -math.expm1(-z)


def _affine_exponent(q, h, b, a, x_i, x_i1, s):
    """E(s) of the module docstring; vectorized in s, always <= 0."""
    s = np.asarray(s, dtype=float)
    aa = b + a * s - x_i
    cc = x_i1 - b - a * s
    return -(q / 4.0) * (aa * aa / s + cc * cc / (h - s)
                         - (x_i1 - x_i) ** 2 / h)


def _check_affine_pins(spec: BridgeSpec, b: float, a: float) -> None:
    """Raise DomainError unless both pins lie on or below the boundary."""
    right = b + a * spec.h
    if spec.x_i > b or spec.x_i1 > right:
        raise DomainError(
            f"pins must lie strictly below the boundary: x_i={spec.x_i} vs "
            f"b={b}, x_i1={spec.x_i1} vs b+a*h={right}")


def noncross_affine_product(q, h, b, a, x_i, x_i1, out=None):
    """Affine-boundary non-crossing probability, reduced product form.

    Expanding the exponent of the hitting density separates the slope
    terms: (b + a s - x_i)^2/s = (b - x_i)^2/s + 2a(b - x_i) + a^2 s and
    likewise at the right end, leaving a constant factor times the kernel
    s^{-3/2}(h-s)^{-1/2} exp(-alpha/s - beta/(h-s)), whose integral is the
    classical one-sided-stable convolution sqrt(pi/alpha) h^{-1/2}
    exp(-(sqrt(alpha)+sqrt(beta))^2/h).  Everything collapses to the
    constant-boundary form with the boundary read off at the interval ends:

        1 - exp(-q (b - x_i)(b + a h - x_i1) / h).

    Vectorized over pieces and pins, broadcast together: h, b and a are
    scalars or arrays of one shape, such as (p, 1) for p pieces against
    pins of shape (p, k).  Each clamp is formed on the shape of its own
    pin broadcast with the piece, so (N, 1) rows against (1, M) columns
    form no N x M temporary before the product.  Pins at or above the
    boundary clamp to a zero factor, giving probability 0, the limit as a
    pin approaches the boundary; the test suite checks the form against
    the integrated hitting density on admissible inputs.  The factor is
    built in `out` (an array of the broadcast shape), or in a new one;
    0-d results come back as a float.
    """
    x_i = np.asarray(x_i, dtype=float)
    x_i1 = np.asarray(x_i1, dtype=float)
    left = np.maximum(b - x_i, 0.0)
    left *= q / h
    right = np.maximum(b + a * h - x_i1, 0.0)
    if out is None:
        out = np.empty(np.broadcast_shapes(left.shape, right.shape))
    np.multiply(left, right, out=out)
    np.negative(out, out=out)
    np.expm1(out, out=out)
    np.negative(out, out=out)
    return float(out) if out.ndim == 0 else out


def hitting_density_single(params: ProcessParams, b: float, a: float,
                           x1: float, t: float) -> float:
    """Density at t of the first crossing of g(t) = b + a*(t - q), given
    the process starts at W_q = x1 < b.

    On the canonical scale the density is
    ((b - x1)/(u - 1)) * phi(W_u = b + a q (u - 1) | W_1 = x1) with
    u = t/q; the conditional law of W_u given W_1 = x1 is normal with mean
    (2 - u) x1 and variance (u - 1)(3 - u).  The 1/q factor converts the
    density back to the original time scale.
    """
    if not b - x1 > 0:
        raise DomainError(f"need x1 < b, got x1={x1}, b={b}")
    if not (params.q < t <= params.d):
        raise DomainError(
            f"t must lie in ({params.q}, {params.d}], got {t}")
    q = params.q
    u = t / q
    var = (u - 1.0) * (3.0 - u)
    boundary_u = b + a * q * (u - 1.0)
    mean = (2.0 - u) * x1
    logv = (math.log(b - x1) - math.log(u - 1.0)
            - 0.5 * math.log(2.0 * math.pi * var)
            - (boundary_u - mean) ** 2 / (2.0 * var)
            - math.log(q))
    return math.exp(logv)


def hitting_density_double(spec: BridgeSpec, b: float, a: float,
                           t: float) -> float:
    """Density at t of the first crossing of b + a*(t - t_i) by the bridge.

    Defined strictly inside (t_i, t_i1); integrating it over the interval
    gives one minus `noncross_affine_product`.
    """
    if not (spec.t_i < t < spec.t_i1):
        raise DomainError(
            f"t must lie strictly inside ({spec.t_i}, {spec.t_i1}), got {t}")
    right = b + a * spec.h
    if spec.x_i >= b or spec.x_i1 >= right:
        raise DomainError(
            f"pins must lie strictly below the boundary: x_i={spec.x_i} vs "
            f"b={b}, x_i1={spec.x_i1} vs b+a*h={right}")
    q, h = spec.params.q, spec.h
    s = t - spec.t_i
    logv = (0.5 * math.log(q * h) + math.log(b - spec.x_i)
            - math.log(2.0) - 0.5 * math.log(math.pi * (h - s) * s ** 3)
            + float(_affine_exponent(q, h, b, a, spec.x_i, spec.x_i1, s)))
    return math.exp(logv)
