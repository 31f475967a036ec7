"""Shared numerical kernels.

Cached Gauss-Legendre rules for tensor-product integration (Newton
iteration in O(n) memory, accurate to a few ulp up to the thousands of
nodes the quadrature ladder uses), a Cholesky wrapper with a semantic
failure signal, and reproducible seed-derived streams of standard normal
variates.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NotPositiveDefiniteError


def _legendre_theta(n: int, theta: np.ndarray):
    """P_n(cos theta) and its derivative in theta.

    The three-term recurrence is run on the differences
    P_k - P_{k-1} in u = 1 - cos theta = 2 sin^2(theta/2) (Reinsch's
    modification), so a root near x = 1 keeps its relative accuracy in
    theta; the plain recurrence would read it through the rounding of x.
    """
    u = 2.0 * np.sin(0.5 * theta) ** 2
    p, d, t = 1.0 - u, -u, np.empty_like(u)
    for k in range(1, n):
        np.multiply(u, p, out=t)
        t *= (2 * k + 1) / (k + 1)
        d *= k / (k + 1)
        d -= t
        p += d
    return p, n * (d - u * p) / np.sin(theta)


def _legendre_x(n: int, x: np.ndarray):
    """(P_n(x), P_{n-1}(x)) by the plain three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, p_prev


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method in theta, x = cos theta, from Tricomi's initial
    guesses (Hale and Townsend, SIAM J. Sci. Comput. 35, 2013), on the
    nodes in [0, 1); the rest follow by symmetry.  The weights
    2 / (dP_n/dtheta)^2 need no 1 - x^2, which would cancel near the
    ends.  One Newton step in x, in extended precision where the
    platform has it, puts the nodes near 0 to within an ulp or two.
    O(n) memory and O(n^2) flops, where numpy's `leggauss` builds a dense
    n x n matrix.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    phi = (4.0 * np.arange(1, n // 2 + 1) - 1.0) * math.pi / (4 * n + 2)
    theta = np.arccos((1.0 - (n - 1) / (8.0 * n ** 3)
                       - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n ** 4))
                      * np.cos(phi))
    if n % 2:
        theta = np.append(theta, 0.5 * math.pi)
    # three steps reach rounding level from Tricomi's guesses; the weights
    # come from the pass that finds nothing left to correct
    for _ in range(10):
        p, dp = _legendre_theta(n, theta)
        step = p / dp
        if np.all(np.abs(step) <= 1e-14 * theta):
            break
        theta = theta - step
    x = np.cos(theta).astype(np.longdouble)
    if n % 2:
        x[-1] = 0.0
    p, p_prev = _legendre_x(n, x)
    x = (x - p * (x * x - 1) / (n * (x * p - p_prev))).astype(float)
    w = 2.0 / dp ** 2
    mid = n % 2
    return (np.concatenate((-x, x[::-1][mid:])),
            np.concatenate((w, w[::-1][mid:])))


def gauss_legendre_on(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    nodes, weights = gauss_legendre(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * nodes, half * weights


def cholesky(matrix: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric PD matrix.

    Raises NotPositiveDefiniteError when a pivot fails, which for process
    covariance matrices signals duplicated or out-of-range time points.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    scale = np.max(np.abs(a)) if a.size else 0.0
    if not np.allclose(a, a.T, atol=1e-12 * max(scale, 1.0)):
        raise ValueError("matrix must be symmetric")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


class GaussianStream:
    """Reproducible stream of standard normal variates.

    Built on the counter-based Philox generator: ``seed`` selects the key and
    ``stream_id`` jumps to a disjoint subsequence, so distinct stream ids are
    statistically independent and (seed, stream_id, index) pins every
    variate regardless of how draws are split across workers.

    Variates come from numpy's ziggurat sampler (Marsaglia and Tsang, 2000)
    on that generator.  Paired-seed comparisons (for example, the same
    stream pushed through two boundaries) stay perfectly coupled because
    both sides read the same variates.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise ValueError("seed and stream_id must be nonnegative")
        self.seed = seed
        self.stream_id = stream_id
        self._gen = np.random.Generator(
            np.random.Philox(key=seed).jumped(stream_id))

    def normals(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """n standard normal variates, written into `out` if given.

        `out` is a C-contiguous float64 array of n elements; it receives
        the same variates a fresh array would.
        """
        if out is None:
            return self._gen.standard_normal(n)
        if out.size != n:
            raise ValueError(f"out has {out.size} elements, need {n}")
        return self._gen.standard_normal(out=out)


def gaussian_stream(seed: int, stream_id: int = 0) -> GaussianStream:
    """Seed-derived independent stream of standard normal variates."""
    return GaussianStream(seed, stream_id)
