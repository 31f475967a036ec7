"""(q,d)-Slepian process: parameters, covariance, rescaling and densities.

A (q,d)-Slepian process is the centered stationary Gaussian process on
[q, d] with continuous paths and covariance (1 - lag/q)^+.  It arises as the
normalized moving-window increment (B_t - B_{t-q}) / sqrt(q) of a standard
Brownian motion B, which also shows that the time change u = t/q maps it to
the canonical process on [1, e], e = d/q, without touching the values.  All
densities below are therefore evaluated on the canonical scale and the
general (q, d) entry points only rescale their time arguments.

Horizons are restricted to d <= 2q.  Every pair of observation times then
lies within one window length, and the joint density of the process at
m ordered times s_1 < ... < s_m (canonical scale) has the nearest-neighbour
product form

    phi(x) = 1 / (2^(m-1) sqrt(pi^m D)) * prod_i (s_i - s_{i-1})^(-1/2)
             * exp[-1/4 ((x_1 + x_m)^2 / D + sum_i (x_i - x_{i-1})^2
                                                   / (s_i - s_{i-1}))],

with D = 2 - (s_m - s_1).  Only adjacent values couple, apart from the
single (x_1 + x_m) term tying the two ends together; this quasi-Markov
structure is what the crossing-probability factorization in the engine
module rests on.  `fdd_log_density` is the one place the form is written
out: the pair and conditional densities below, and the engine's integrand
and quadrature chain, are derived from it.  For d > 2q the structure
breaks down and the constructor refuses the parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ProcessParams:
    """Window length q and horizon d of the process, 0 < q < d <= 2q."""

    q: float
    d: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.d)):
            raise DomainError("q and d must be finite")
        if self.q <= 0:
            raise DomainError(f"window length q must be positive, got {self.q}")
        if not self.q < self.d:
            raise DomainError(
                f"horizon d must exceed the window length q, got q={self.q}, "
                f"d={self.d}")
        if self.d > 2 * self.q:
            raise DomainError(
                f"d must satisfy q < d <= 2*q (got q={self.q}, d={self.d}); "
                "the analytic formulas hold only for horizons up to twice "
                "the window length")

    @property
    def e(self) -> float:
        """Canonical horizon d/q, in (1, 2]."""
        return self.d / self.q

    def check_time(self, t: float, name: str = "t") -> None:
        """Raise DomainError unless t lies in [q, d]."""
        if not (self.q <= t <= self.d):
            raise DomainError(
                f"{name}={t} outside the process interval [{self.q}, {self.d}]")


def covariance(params: ProcessParams, s, t):
    """Covariance (1 - |t - s|/q)^+ of the process at times s and t.

    Accepts scalars or broadcastable arrays; every entry must lie in [q, d].
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < params.q) or np.any(s > params.d) \
            or np.any(t < params.q) or np.any(t > params.d):
        raise DomainError(
            f"times must lie in [{params.q}, {params.d}]")
    out = np.maximum(0.0, 1.0 - np.abs(t - s) / params.q)
    return float(out) if out.ndim == 0 else out


def covariance_matrix(params: ProcessParams, times) -> np.ndarray:
    """Covariance matrix of the process at the given times."""
    t = np.asarray(times, dtype=float)
    return covariance(params, t[:, None], t[None, :])


def rescale(params: ProcessParams, t: float) -> tuple[float, float]:
    """Map a time t in [q, d] to the canonical scale: (e, u) = (d/q, t/q).

    The map is affine and invertible; a boundary g on [q, d] corresponds to
    h(u) = g(u*q) on [1, e].
    """
    params.check_time(t)
    return params.e, t / params.q


@dataclass(frozen=True)
class GaussianVectorSpec:
    """Ordered observation times of the process, strictly increasing."""

    params: ProcessParams
    times: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        if len(times) < 1:
            raise DomainError("at least one time point is required")
        for t in times:
            self.params.check_time(t)
        diffs = np.diff(times)
        if np.any(diffs == 0):
            raise DomainError(
                "coincident time points make the covariance degenerate; "
                "deduplicate the times first")
        if np.any(diffs < 0):
            raise DomainError("times must be strictly increasing")

    @property
    def m(self) -> int:
        return len(self.times)


def fdd_log_density(spec: GaussianVectorSpec, x) -> float:
    """Log joint density of the process at spec.times, evaluated at x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.m,):
        raise DomainError(
            f"x must have length {spec.m}, got shape {x.shape}")
    if spec.m == 1:
        # Unit marginal variance.
        return -0.5 * _LOG_2PI - 0.5 * float(x[0]) ** 2
    u = np.asarray(spec.times, dtype=float) / spec.params.q
    m = spec.m
    du = np.diff(u)
    dcap = 2.0 - (u[-1] - u[0])
    dx = np.diff(x)
    logv = (-(m - 1) * math.log(2.0) - 0.5 * m * math.log(math.pi)
            - 0.5 * math.log(dcap) - 0.5 * float(np.sum(np.log(du))))
    logv -= 0.25 * (float(x[0] + x[-1]) ** 2 / dcap
                    + float(np.sum(dx * dx / du)))
    return logv


def fdd_density(spec: GaussianVectorSpec, x) -> float:
    """Joint density of the process at spec.times, evaluated at x.

    Computed in log space and exponentiated here, so very unlikely x simply
    underflow to 0 instead of corrupting downstream products.
    """
    return math.exp(fdd_log_density(spec, x))


def pair_log_density(params: ProcessParams, t0: float, ti: float,
                     x0: float, xi: float) -> float:
    """Log density of (W_{t0}, W_{ti}) with the first time anchored at q."""
    if t0 != params.q:
        raise DomainError(
            f"the pair density is anchored at t0 = q = {params.q}, got {t0}")
    if not (params.q < ti <= params.d):
        raise DomainError(
            f"ti must lie in ({params.q}, {params.d}], got {ti}")
    return fdd_log_density(GaussianVectorSpec(params, (t0, ti)), [x0, xi])


def pair_density(params: ProcessParams, t0: float, ti: float,
                 x0: float, xi: float) -> float:
    """Density of (W_{t0}, W_{ti}), t0 = q.  Symmetric under (x0, xi) -> (-x0, -xi)."""
    return math.exp(pair_log_density(params, t0, ti, x0, xi))


def conditional_log_density(params: ProcessParams, t0: float, ti: float,
                            ti1: float, x0: float, xi: float,
                            xi1: float) -> float:
    """Log density of W_{ti} given W_{t0} = x0 and W_{ti1} = xi1, t0 = q."""
    if t0 != params.q:
        raise DomainError(
            f"the conditional density is anchored at t0 = q = {params.q}, "
            f"got {t0}")
    if not (t0 < ti < ti1 <= params.d):
        raise DomainError(
            f"times must satisfy q = t0 < ti < ti1 <= d, got "
            f"({t0}, {ti}, {ti1})")
    joint = fdd_log_density(GaussianVectorSpec(params, (t0, ti, ti1)),
                            [x0, xi, xi1])
    return joint - pair_log_density(params, t0, ti1, x0, xi1)


def conditional_density(params: ProcessParams, t0: float, ti: float,
                        ti1: float, x0: float, xi: float,
                        xi1: float) -> float:
    """Density of W_{ti} given the values at t0 = q and ti1.

    Gaussian in xi; for fixed conditioning values it integrates to one, and
    multiplied by the (t0, ti1) pair density it reproduces the joint density
    at (t0, ti, ti1).
    """
    return math.exp(conditional_log_density(params, t0, ti, ti1, x0, xi, xi1))
