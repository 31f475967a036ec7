"""Shared numerical kernels.

Adaptive 1-D quadrature (nested Gauss-Kronrod pairs with bisection), cached
Gauss-Legendre rules for tensor-product integration (Newton iteration in
O(n) memory, accurate to a few ulp up to the thousands of nodes the
quadrature ladder uses), a Cholesky wrapper with a semantic failure signal,
and reproducible seed-derived streams of standard normal variates.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NotPositiveDefiniteError, QuadratureNonConvergenceError

# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1].
# Columns: node, Gauss-7 weight (0 on extension nodes), Kronrod-15 weight.
_GK15 = np.array([
    [-0.991455371120813, 0.000000000000000, 0.022935322010529],
    [-0.949107912342759, 0.129484966168870, 0.063092092629979],
    [-0.864864423359769, 0.000000000000000, 0.104790010322250],
    [-0.741531185599394, 0.279705391489277, 0.140653259715525],
    [-0.586087235467691, 0.000000000000000, 0.169004726639267],
    [-0.405845151377397, 0.381830050505119, 0.190350578064785],
    [-0.207784955007898, 0.000000000000000, 0.204432940075298],
    [0.000000000000000, 0.417959183673469, 0.209482141084728],
    [0.207784955007898, 0.000000000000000, 0.204432940075298],
    [0.405845151377397, 0.381830050505119, 0.190350578064785],
    [0.586087235467691, 0.000000000000000, 0.169004726639267],
    [0.741531185599394, 0.279705391489277, 0.140653259715525],
    [0.864864423359769, 0.000000000000000, 0.104790010322250],
    [0.949107912342759, 0.129484966168870, 0.063092092629979],
    [0.991455371120813, 0.000000000000000, 0.022935322010529],
])
_GK_NODES = _GK15[:, 0]
_G7_W = _GK15[:, 1]
_K15_W = _GK15[:, 2]


@dataclass(frozen=True)
class QuadResult:
    """Value, error bound and cost of a quadrature run."""

    value: float
    error_bound: float
    evaluations: int

    def __post_init__(self):
        if self.error_bound < 0:
            raise ValueError("error_bound must be nonnegative")


def _gk15_panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """One Gauss-Kronrod panel on [a, b]; returns (integral, error_estimate)."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _GK_NODES
    fx = np.asarray(f(x), dtype=float)
    gauss = half * float(fx @ _G7_W)
    kronrod = half * float(fx @ _K15_W)
    # plain |K15 - G7|: deliberately conservative; the usual (200 d)^1.5
    # sharpening under-reports on boundary-layer panels
    return kronrod, abs(kronrod - gauss)


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray], a: float,
                       b: float, tol: float = 1e-10,
                       max_evals: int = 100_000,
                       initial_points: tuple = ()) -> QuadResult:
    """Integrate f over [a, b] to absolute tolerance tol.

    The integrand must accept an ndarray of abscissae and return the
    corresponding values; it is never evaluated at the endpoints themselves
    (all Kronrod nodes are interior), so integrable endpoint behaviour that
    the caller has already tamed by substitution is fine.

    Bisection-based adaptivity: the panel with the largest error estimate is
    split until the summed bound falls below tol or the evaluation budget is
    exhausted, in which case QuadratureNonConvergenceError carries the best
    value and the achieved bound.

    `initial_points` seeds panel boundaries (entries outside (a, b) are
    ignored).  Pass the location of any sharp feature whose width is far
    below the interval length: a spike that falls between the nodes of a
    wide panel produces a deceptively small error estimate and would
    otherwise be missed.
    """
    if not a < b:
        raise ValueError(f"integration interval is empty: [{a}, {b}]")
    if tol <= 0:
        raise ValueError("tol must be positive")

    edges = [a] + sorted(p for p in set(initial_points) if a < p < b) + [b]
    heap = []
    evals = 0
    counter = 0
    for lo, hi in zip(edges, edges[1:]):
        value, err = _gk15_panel(f, lo, hi)
        evals += 15
        heap.append((-err, counter, lo, hi, value))
        counter += 1
    heapq.heapify(heap)
    while True:
        total_err = -sum(item[0] for item in heap)
        if total_err <= tol:
            total = sum(item[4] for item in heap)
            return QuadResult(total, total_err, evals)
        if evals + 30 > max_evals:
            total = sum(item[4] for item in heap)
            raise QuadratureNonConvergenceError(
                f"no convergence to tol={tol:g} within {max_evals} "
                f"evaluations (achieved {total_err:g})",
                value=total, error_bound=total_err, evaluations=evals)
        _, _, pa, pb, _ = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        left_v, left_e = _gk15_panel(f, pa, mid)
        right_v, right_e = _gk15_panel(f, mid, pb)
        evals += 30
        heapq.heappush(heap, (-left_e, counter, pa, mid, left_v))
        heapq.heappush(heap, (-right_e, counter + 1, mid, pb, right_v))
        counter += 2


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
