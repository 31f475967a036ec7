"""Boundary crossing probabilities over a whole partition of [q, d].

The crossing probability P(W_t > g(t) for some t in [q, d]) factorizes over
any partition q = t_0 < ... < t_n = d whose knots include the boundary's:

    P(no crossing) = integral over the orthant prod_i (-inf, g(t_i)] of
        phi(x_0, ..., x_n) * prod_i  P(bridge i stays below g | x_i, x_i1),

where phi is the joint density of the process at the partition times and
the bridge factors are the exact non-crossing probabilities from the bridge
module.  Because the bridge factors are exact, the value does not depend on
the partition (partition invariance) as long as g is affine on every
subinterval.

The joint density is the nearest-neighbour form stated once in
`process.fdd_log_density`: adjacent values couple, plus one (x_0 + x_n)^2
term tying the ends together.  `bcp_integrand` exposes the integrand for
testing, and the quadrature engine contracts the same form axis by axis.

Two evaluators:

* `bcp_quadrature` - deterministic tensor Gauss-Legendre, refined along a
  ladder of 16 to 1664 nodes per axis.  The chain structure reduces each
  step to one matrix product.  Its rows are either the N nodes of x_0 or
  the M nodes of a latent variable z that writes the (x_0 + x_n)^2 term as
  a Gaussian mixture, whichever is cheaper, so a level costs
  O(n min(M, N) N^2) flops, O(n N^2) exp calls and O(min(M, N) N) memory
  for any partition size n.  The contraction runs in normal-range
  arithmetic: scaled exponents below -350 are set to 0 instead of
  evaluated, so no exp or matrix product meets a subnormal.
* `bcp_montecarlo` - draws the skeleton vector X ~ N(0, Sigma) in
  antithetic pairs (X, -X) and averages one minus the product of
  indicators and bridge factors; unbiased for every n, with seed-derived
  block streams so results do not depend on worker count.  A block holds
  [X | -X] in one array, and each boundary's payoff is one pass over it
  in panels of several pieces, one bridge-formula call and one product
  reduction per panel.  The bridge factors' clamps already zero the
  payoff past a knot value, so no indicator is evaluated (except at a
  knot whose stored value lies below both one-sided limits).
"""

from __future__ import annotations

import math
import sys
import threading
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .boundary import PiecewiseAffineBoundary, approximate, knot_tol
from .bridge import noncross_affine_product
from .errors import DomainError, QuadratureNonConvergenceError
from .numerics import cholesky, gauss_legendre_on, gaussian_stream
from .process import (GaussianVectorSpec, ProcessParams, covariance_matrix,
                      fdd_density)

_QUAD_LEVELS = (16, 24, 32, 48, 64, 96, 144, 208, 288, 416, 576, 832, 1152,
                1664)
_TAIL_CUT = 8.0         # marginal sd is 1; omitted mass < 1e-15 per axis
_UPPER_CAP = 8.5
_Z_STEP = 0.45          # latent grid spacing; see _noncross_tensor_gl
_Z_PAD = 7.0            # latent range pad beyond the extreme centres, in sqrt(D)
_PANEL = 256            # columns per right-factor panel on latent rows
_EXP_CUT = -350.0       # scaled exponents below it give 0; see _log_matmul
_LOG_MAX = math.log(sys.float_info.max)     # 709.78; see _noncross_tensor_gl
_MC_BLOCK = 16_384      # paths per seed-indexed block
_MC_PANEL = 65_536      # elements per payoff panel; see _skeleton_mc


@dataclass(frozen=True)
class Partition:
    """Partition q = t_0 < ... < t_n = d of the process interval."""

    params: ProcessParams
    times: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        if len(times) < 2:
            raise DomainError("a partition needs at least two points")
        if times[0] != self.params.q or times[-1] != self.params.d:
            raise DomainError(
                f"partition endpoints must be q={self.params.q} and "
                f"d={self.params.d}, got {times[0]} and {times[-1]}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("partition times must be strictly increasing")

    @property
    def n(self) -> int:
        """Number of subintervals."""
        return len(self.times) - 1

    @staticmethod
    def equidistant(params: ProcessParams, n: int) -> "Partition":
        if n < 1:
            raise DomainError("need at least one subinterval")
        return Partition(params, tuple(np.linspace(params.q, params.d, n + 1)))

    @staticmethod
    def from_boundary(boundary: PiecewiseAffineBoundary) -> "Partition":
        """The minimal valid partition: the boundary's own knots."""
        return Partition(boundary.params, boundary.knots)


@dataclass(frozen=True)
class Estimate:
    """A crossing-probability estimate with its error indication.

    `method` names the route: "quadrature", "montecarlo" (conditioned MC)
    or "oracle" (the path-simulation oracles).  `error` is, for
    quadrature, the last successive-level difference plus 1e-14 (a
    heuristic, not a bound).  Every sampling route
    (`bcp_montecarlo`, MC study rows and the path oracles) averages a
    per-path payoff over antithetic pairs of paths, and its `error` is the
    sample standard error of the samples: the pair means, and an odd
    path's own payoff.  So `error` runs over pairs while `n_samples`
    counts paths.
    """

    value: float
    error: float
    method: str
    n_samples: int | None = None
    n_nodes: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"value must be a probability, got {self.value}")
        if self.error < 0.0:
            raise ValueError(f"error must be nonnegative, got {self.error}")
        if self.method not in ("quadrature", "montecarlo", "oracle"):
            raise ValueError(f"unknown method {self.method!r}")


def _local_pieces(boundary: PiecewiseAffineBoundary, partition: Partition):
    """Per-subinterval (h, intercept at left end, slope) of the boundary.

    Requires the partition to contain every boundary knot; the bridge
    factors are exact only when the boundary is affine on each subinterval.
    """
    if boundary.params != partition.params:
        raise DomainError("boundary and partition use different (q, d)")
    times = np.asarray(partition.times)
    tol = knot_tol(partition.params)
    for knot in boundary.knots:
        if np.min(np.abs(times - knot)) > tol:
            raise DomainError(
                f"partition must contain every boundary knot; missing "
                f"t={knot}")
    pieces = []
    for lo, hi in zip(partition.times, partition.times[1:]):
        b, a = boundary.local_affine(lo, hi)
        pieces.append((hi - lo, b, a))
    return pieces


def bcp_integrand(partition: Partition,
                       boundary: PiecewiseAffineBoundary, x) -> float:
    """The full (n+1)-dimensional integrand at the point x.

    `fdd_density` at the partition times, multiplied by the bridge
    factors.  Integrating this over the orthant prod (-inf, g(t_i)] gives
    the non-crossing probability.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("x must be finite")
    pieces = _local_pieces(boundary, partition)
    value = fdd_density(GaussianVectorSpec(partition.params, partition.times),
                        x)
    for i, (h, b, a) in enumerate(pieces):
        value *= noncross_affine_product(partition.params.q, h, b, a,
                                         x[i], x[i + 1])
    return value


def _axis_box(g):
    """Truncated integration range of an axis with upper limit g."""
    return min(g, 0.0) - _TAIL_CUT, min(g, _UPPER_CAP)


def _axis_rules(limits, n_nodes):
    """Gauss-Legendre nodes/weights per axis on the truncated orthant."""
    nodes, weights = [], []
    for g in limits:
        x, w = gauss_legendre_on(*_axis_box(g), n_nodes)
        nodes.append(x)
        weights.append(w)
    return nodes, weights


def _latent_grid(limits, dcap, n, n_nodes):
    """(first node, count) of the latent grid, or None for x_0 rows.

    The latent integrand of a pair (x_0, x_n) is a Gaussian of sd
    sqrt(dcap / 2) centred at (x_n - x_0) / 2; the grid has spacing
    _Z_STEP and covers every centre the two boxes allow, padded by
    _Z_PAD sqrt(dcap).  Its M nodes are used when n M < (n - 1) N, the
    flop ratio of the two bases, so n = 1 always takes x_0 rows.
    """
    lo0, hi0 = _axis_box(limits[0])
    lon, hin = _axis_box(limits[-1])
    pad = _Z_PAD * math.sqrt(dcap)
    z_lo = 0.5 * (lon - hi0) - pad
    n_z = math.ceil((0.5 * (hin - lo0) + pad - z_lo) / _Z_STEP) + 1
    return (z_lo, n_z) if n * n_z < (n - 1) * n_nodes else None


def _exp_cut(a):
    """exp(a) in place, with every entry below _EXP_CUT set to exactly 0."""
    keep = a >= _EXP_CUT
    np.maximum(a, _EXP_CUT, out=a)
    np.exp(a, out=a)
    a *= keep
    return a


def _log_matmul(p, k):
    """log(exp(p) @ exp(k)), scaled by row maxima of p and column maxima of k.

    One matrix product and O(N^2) exp/log calls; a row or column whose
    maximum is -inf gives -inf.  `k` may also be an iterable of column
    panels of the right factor, contracted one at a time and joined in
    order, so the whole factor is never held.

    Both scaled factors are formed by `_exp_cut`: a term below e^-350 of
    its row's (p) or column's (k) largest term is set to 0, so a sum of
    width W loses at most W e^-350 of exp(row max + column max).  The cut
    keeps every product of two kept factors at or above e^-700, above the
    smallest normal double (e^-708.4), so neither exp nor the product
    ever meets a subnormal; on skewed and short partitions most scaled
    exponents lie below -708, where numpy's exp and BLAS run 5-100x
    slower.
    """
    row = np.max(p, axis=1)
    row0 = np.where(np.isfinite(row), row, 0.0)
    ep = _exp_cut(p - row0[:, None])
    out = []
    for panel in ((k,) if isinstance(k, np.ndarray) else k):
        col = np.max(panel, axis=0)
        col0 = np.where(np.isfinite(col), col, 0.0)
        prod = ep @ _exp_cut(panel - col0[None, :])
        with np.errstate(divide="ignore"):
            out.append(row[:, None] + col[None, :] + np.log(prod))
    return out[0] if len(out) == 1 else np.hstack(out)


def _noncross_tensor_gl(params, times, limits, pieces, n_nodes):
    """Non-crossing integral on a tensor Gauss-Legendre grid.

    Contracts `process.fdd_log_density`'s nearest-neighbour form along the
    partition: step i couples (x_i, x_{i+1}) through its bridge factor and
    increment term, and the (x_0 + x_n)^2 term closes the chain.  Log
    values between steps keep severely skewed partitions (tiny first gap)
    from underflowing.

    The carried matrix has one of two row bases.  With x_0 rows it is
    N x N, each inner axis costs one N x N x N product (`_log_matmul`),
    and the closing term is added entrywise.  With latent rows the closing
    term is written as a Gaussian mixture over one variable z,

        exp(-(x_0 + x_n)^2 / 4D)
            = (pi D)^(-1/2) * integral exp(-(z + x_0)^2 / 2D
                                           - (z - x_n)^2 / 2D) dz,

    D = 2 - (d - q)/q >= 1, integrated by the trapezoid rule on M uniform
    nodes.  The chain then carries an M x N matrix, and every one of the n
    steps, step 0 included, is an M x N x N product whose right factor
    is formed in column panels of at most _PANEL columns.  The trapezoid
    rule's error relative to each entry is at most
    2 exp(-pi^2 D / _Z_STEP^2) <= 1.3e-21; the z integrand of a pair is
    Gaussian with sd sqrt(D/2), and the grid reaches 7 sqrt(D) past the
    extreme centres.  `_latent_grid` picks the cheaper basis, so a level
    costs O(n min(M, N) N^2) flops and O(min(M, N) N) memory.

    The constant log_c grows like -sum log(du_i) / 2, so on a fine
    partition a level too coarse for the narrow steps can exceed the
    largest double; such a level is unresolved and returns inf.
    """
    q = params.q
    n = len(times) - 1
    # per-level scalars stay Python floats: numpy calls on scalars are a
    # visible share of a level at small N
    u = [t / q for t in times]
    du = [b - a for a, b in zip(u, u[1:])]
    dcap = 2.0 - (u[n] - u[0])
    log_c = (-n * math.log(2.0) - 0.5 * (n + 1) * math.log(math.pi)
             - 0.5 * math.log(dcap) - 0.5 * sum(map(math.log, du)))
    latent = _latent_grid(limits, dcap, n, n_nodes)
    nodes, weights = _axis_rules(limits, n_nodes)

    def step_log(i, cols=slice(None)):
        # rows x_i = nodes[i], columns x_{i+1} = nodes[i + 1][cols]
        h, b, a = pieces[i]
        lo, hi = nodes[i][:, None], nodes[i + 1][None, cols]
        with np.errstate(divide="ignore"):
            log_k = np.log(noncross_affine_product(q, h, b, a, lo, hi))
        # increment term (x_{i+1} - x_i)^2 / 4 du_i, from nodes scaled by
        # 1 / (2 sqrt(du_i)): three passes over the panel
        s = 0.5 / math.sqrt(du[i])
        gauss = s * hi - s * lo
        np.square(gauss, out=gauss)
        log_k -= gauss
        return log_k

    if latent is None:
        log_v = step_log(0)
        for i in range(1, n):
            log_v = _log_matmul(log_v + np.log(weights[i])[None, :],
                                step_log(i))
        log_m = (log_v - 0.25 * (nodes[0][:, None] + nodes[n][None, :]) ** 2
                 / dcap + (log_c + np.log(weights[0]))[:, None]
                 + np.log(weights[n])[None, :])
    else:
        z_lo, n_z = latent
        z = z_lo + _Z_STEP * np.arange(n_z)
        log_v = -0.5 * (z[:, None] + nodes[0][None, :]) ** 2 / dcap
        for i in range(n):
            log_v = _log_matmul(
                log_v + np.log(weights[i])[None, :],
                (step_log(i, slice(c, c + _PANEL))
                 for c in range(0, n_nodes, _PANEL)))
        log_c += math.log(_Z_STEP) - 0.5 * math.log(math.pi * dcap)
        log_m = (log_v - 0.5 * (z[:, None] - nodes[n][None, :]) ** 2 / dcap
                 + (log_c + np.log(weights[n]))[None, :])
    mx = np.max(log_m)
    if mx > _LOG_MAX:
        # e^mx overflows: the level has not resolved the integrand
        return math.inf
    if not np.isfinite(mx):
        return 0.0
    return float(math.exp(mx) * np.sum(_exp_cut(log_m - mx)))


def bcp_quadrature(boundary: PiecewiseAffineBoundary,
                   partition: Partition | None = None,
                   tol: float = 1e-6) -> Estimate:
    """Crossing probability by deterministic nested quadrature.

    Works for any number n of subintervals: the n + 1 dimensional
    integral is contracted along the partition with one matrix product
    per step, carrying either x_0 rows or latent rows (see
    `_noncross_tensor_gl`), at O(n min(M, N) N^2) flops per level.
    Semi-infinite axes are truncated at min(g(t_i), 0) - 8 below and
    capped at 8.5 above (marginal sd is 1, so the omitted mass is < 1e-15
    per axis) and the tensor rule is refined along N = 16, 24, ..., 1664
    nodes per axis until two successive levels agree within tol.

    A subinterval much shorter than its neighbours makes the conditional
    factor along that axis narrow (sd ~ sqrt(gap)); the top of the ladder
    resolves a first gap of 1% of a span of 2% of q.  A very short horizon
    narrows the (x_0, x_n) pair density (sd ~ sqrt((d - q)/q)) the same
    way: d = 1.001 q converges, d = q + 1e-6 does not.

    On a fine partition (hundreds of pieces) the coarse levels can
    overflow a double; such a level is unresolved, counts as inf, and
    the ladder goes on.

    `error` is the last successive-level difference plus 1e-14, a heuristic,
    not a bound.  QuadratureNonConvergenceError carries the last level's
    value 1 - integral, not clamped to [0, 1] (outside it, the last
    level did not resolve the integrand), that difference and its tensor
    size 1664**(n+1).
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    if partition is None:
        partition = Partition.from_boundary(boundary)
    n = partition.n
    pieces = _local_pieces(boundary, partition)
    limits = boundary.evaluate(partition.times).tolist()

    prev = diff = None
    for level in _QUAD_LEVELS:
        cur = _noncross_tensor_gl(partition.params, partition.times, limits,
                                  pieces, level)
        if prev is not None:
            diff = abs(cur - prev)
            if diff <= 0.5 * tol:
                value = min(1.0, max(0.0, 1.0 - cur))
                return Estimate(value=value, error=diff + 1e-14,
                                method="quadrature", n_nodes=level)
        prev = cur
    raise QuadratureNonConvergenceError(
        f"tensor quadrature did not reach tol={tol:g} at "
        f"{_QUAD_LEVELS[-1]} nodes per axis",
        value=1.0 - prev,
        error_bound=diff, evaluations=_QUAD_LEVELS[-1] ** (n + 1))


def _blocks(n_paths: int, block_size: int) -> list[tuple[int, int]]:
    """(j, size) of the blocks covering n_paths; block j uses stream j."""
    return [(j, min(block_size, n_paths - start))
            for j, start in enumerate(range(0, n_paths, block_size))]


def _map_blocks(run_block, blocks, workers: int | None):
    """Yield run_block(block) in block order, on up to `workers` threads.

    `workers=None` means 1.
    """
    if workers is not None and workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(run_block, blocks)
    else:
        yield from map(run_block, blocks)


def _moments(samples) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and sample standard error of sample blocks.

    Each block has one row per sample and one column per estimand; sums run
    along each block's sample axis, then block by block in order.
    """
    n = 0
    s1 = s2 = 0.0
    for z in samples:
        n += len(z)
        s1 = s1 + z.sum(axis=0)
        s2 = s2 + (z * z).sum(axis=0)
    mean = s1 / n
    if n < 2:
        return mean, np.zeros_like(mean)
    var = np.maximum(0.0, (s2 - n * mean ** 2) / (n - 1))
    return mean, np.sqrt(var / n)


def _pair_means(z: np.ndarray) -> np.ndarray:
    """The samples of antithetic payoffs, one per pair, along axis 0.

    A block of k paths holds its c = ceil(k/2) drawn paths first and the
    negatives of the first floor(k/2) of them after those, so row i and
    row c + i are a pair.  Each pair becomes the mean of its two payoffs,
    written over row i, and an odd block's row c - 1, which has no
    partner, stays a sample of its own.  Returns those c rows, a view of
    `z`; `z` may have estimand columns after the path axis.
    """
    half = len(z) // 2
    cols = len(z) - half
    z[:half] += z[cols:]
    z[:half] *= 0.5
    return z[:cols]


def _knot_cuts(limits, pieces) -> list[tuple[int, float]]:
    """(row, value) of every knot whose value the clamps do not imply.

    A bridge factor is 0 once a pin reaches its piece's boundary value at
    that end, so the factors of the pieces on either side of knot i
    already vanish for x_i >= min(b_i, b_{i-1} + a_{i-1} h_{i-1}), computed
    exactly as `noncross_affine_product` computes them.  The knot's own
    indicator 1{x_i <= g(t_i)} adds nothing unless a double lies strictly
    between g(t_i) and that bound: an explicit knot value below both
    one-sided limits, or a rounding of the chord end more than an ulp
    above the stored value.  Only those knots keep an explicit check.
    """
    starts = [b for _, b, _ in pieces] + [math.inf]
    ends = [math.inf] + [b + a * h for h, b, a in pieces]
    return [(i, g) for i, (g, lo, hi) in
            enumerate(zip(limits.tolist(), starts, ends))
            if min(lo, hi) > math.nextafter(g, math.inf)]


def _payoffs(x: np.ndarray, q: float, pieces,
             cuts: Sequence[tuple[int, float]] = (),
             work: np.ndarray | None = None) -> np.ndarray:
    """Crossing payoff per path: 1 - the product of the bridge
    non-crossing factors, zeroed where a `_knot_cuts` knot is exceeded.

    `x` is path-major, one row per partition time and one column per
    path, so the pins of consecutive pieces are consecutive rows.  The
    pieces are taken in panels of about _MC_PANEL elements, one
    `noncross_affine_product` call on (p, 1) pieces against (p, k) pins,
    then one `np.multiply.reduce` over [running product; the panel's p
    factor rows] along axis 0, which multiplies the factors into each
    column in piece order, as a loop over pieces would.  The two panels
    (each reduces into the other's row 0) live in `work`, a float array
    of at least 2 (rows + 1) k elements, or in a new one.

    The knot indicators of the payoff, 1{x_i <= g(t_i)}, are implied by
    the clamps of the factors except at the `cuts` knots (see
    `_knot_cuts`), so the product of the factors, zeroed at the cuts,
    equals indicators times factors bit for bit.
    """
    h, b, a = np.array(pieces, dtype=float).T[:, :, None]
    n, k = len(pieces), x.shape[1]
    rows = min(n, max(1, _MC_PANEL // k))      # pieces per panel
    if work is None:
        work = np.empty(2 * (rows + 1) * k)
    cur, nxt = work[:2 * (rows + 1) * k].reshape(2, rows + 1, k)
    first = 1                   # the first panel has no running product
    for i in range(0, n, rows):
        p = min(rows, n - i)
        noncross_affine_product(q, h[i:i + p], b[i:i + p], a[i:i + p],
                                x[i:i + p], x[i + 1:i + p + 1],
                                out=cur[1:p + 1])
        np.multiply.reduce(cur[first:p + 1], axis=0, out=nxt[0])
        cur, nxt, first = nxt, cur, 0
    z = cur[0]
    for i, g in cuts:
        z[x[i] > g] = 0.0
    return 1.0 - z


def _skeleton_mc(partition: Partition,
                 boundaries: Sequence[PiecewiseAffineBoundary],
                 n_paths: int, seed: int, workers: int | None):
    """Conditioned-MC `_moments` of several boundaries on shared skeletons.

    Columns: each boundary's crossing payoff, then the differences
    payoff_{i+1} - payoff_i (= value_{i+1} - value_i per sample).  Crossing
    payoffs are mostly zero for a high boundary, so the one-pass variance
    does not cancel as it would on non-crossing payoffs near 1.

    Paths come in antithetic pairs (X, -X): a block of k paths draws
    c = ceil(k/2) skeletons from stream (seed, j) into the first c columns
    of one m x k array and writes the first floor(k/2) of them, negated,
    into the columns after them, so each boundary's payoff is one
    `_payoffs` pass over [X | -X].  Each pair enters `_moments` as one
    sample, the mean of its two payoffs.  The payoff is monotone in X, so
    a pair mean has at most half the variance of one path's payoff
    (Glasserman 2003, section 4.2), and the standard error is taken over
    independent pairs.  An odd block's last skeleton has no partner and
    enters as a sample of its own; its payoff has the same mean, so the
    estimate stays unbiased.

    A payoff pass makes one bridge-formula call and one product reduction
    per panel of pieces, about _MC_PANEL = 65536 elements
    (4 pieces of a 16384-path block), where a loop over pieces made two
    formula calls, on X and on -X, of 8192-element rows per piece.  numpy
    releases the GIL only inside a call's inner loop, so with short calls
    a second worker mostly waits: on a 2-CPU Xeon, two threads running a
    loop of six in-place ufunc calls reached 0.37 of twice the one-thread
    speed at 8192 elements per call, 0.53 at 16384 and 0.70 at 65536.
    Panels of 32k-64k elements timed best there; at 128k-256k (1-2 MB per
    operand, against 2 MB of L2 per core) the one-thread time at n = 16
    and 64 rose by 5-20%.  The knot indicators need no pass of their own
    (see `_payoffs`).
    """
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    params = partition.params
    per_bnd = []
    for bnd in boundaries:
        pieces = _local_pieces(bnd, partition)
        per_bnd.append(
            (pieces, _knot_cuts(bnd.evaluate(partition.times), pieces)))
    m = partition.n + 1
    lower = cholesky(covariance_matrix(params, partition.times))
    # Each thread reuses one set of block buffers for every block it runs,
    # so the block loop allocates only panel-sized temporaries: fresh
    # megabyte arrays per block go back to the OS when freed and are
    # faulted in again by the next block.  The normals take `size`
    # floats and [X | -X] twice that.
    scratch = threading.local()
    widest = min(n_paths, _MC_BLOCK)
    size = (widest + 1) // 2 * m
    # two panels of (rows + 1) k floats, rows k <= max(_MC_PANEL, k), for
    # every block of k <= widest paths
    work_size = 2 * min(max(_MC_PANEL, widest) + widest, m * widest)

    def run_block(block):
        j, k = block
        half = k // 2
        cols = k - half
        if not hasattr(scratch, "buf"):
            scratch.buf = np.empty(3 * size)
            scratch.work = np.empty(work_size)
        eps = gaussian_stream(seed, j).normals(cols * m,
                                               scratch.buf[:cols * m])
        x = scratch.buf[size:size + k * m].reshape(m, k)
        np.matmul(lower, eps.reshape(cols, m).T, out=x[:, :cols])
        np.negative(x[:, :half], out=x[:, cols:])
        zs = [_pair_means(_payoffs(x, params.q, pieces, cuts, scratch.work))
              for pieces, cuts in per_bnd]
        # each column's samples are contiguous, so its sums are the
        # pairwise sums of that 1-D payoff vector
        return np.stack(zs + [b - a for a, b in zip(zs, zs[1:])]).T

    return _moments(_map_blocks(run_block, _blocks(n_paths, _MC_BLOCK),
                                workers))


def bcp_montecarlo(boundary: PiecewiseAffineBoundary,
                   partition: Partition | None = None,
                   n_paths: int = 1_000_000, seed: int = 0,
                   workers: int | None = None) -> Estimate:
    """Crossing probability by conditioned Monte Carlo.

    Samples the skeleton X ~ N(0, Sigma) at the partition times (one
    Cholesky factorization per call) and averages the crossing payoff

        1 - prod_i 1{X_i <= g(t_i)} * prod_i P(bridge i below g | X_i, X_{i+1});

    its expectation is exactly the crossing probability, so the estimate is
    unbiased for every partition.
    Paths come in antithetic pairs (X, -X), and `error` is the sample
    standard error of the pair means; with an odd `n_paths` the last path
    has no partner and counts as a sample of its own, which keeps the
    estimate unbiased (see `_skeleton_mc`).  `n_samples` counts paths.
    Blocks of `_MC_BLOCK` paths draw from seed-derived streams indexed by
    block number, so a fixed seed gives identical results for any worker
    count.
    """
    if partition is None:
        partition = Partition.from_boundary(boundary)
    mean, se = _skeleton_mc(partition, [boundary], n_paths, seed, workers)
    return Estimate(value=min(1.0, max(0.0, float(mean[0]))),
                    error=float(se[0]), method="montecarlo",
                    n_samples=n_paths, seed=seed)


@dataclass(frozen=True)
class StudyRow:
    """One resolution level of a boundary-approximation convergence study:
    the approximant the study built and evaluated, and its estimate."""

    n_pieces: int
    boundary: PiecewiseAffineBoundary
    estimate: Estimate
    diff_prev: float | None = None
    diff_se: float | None = None


def _union_partition(params: ProcessParams,
                     time_sets: Sequence[Sequence[float]]) -> Partition:
    """Partition on the union of several time sets.

    Every time of an earlier set is kept; a later time within `knot_tol`
    of one already kept is dropped, so times that agree only up to
    rounding enter once, as the earliest set has them.
    """
    tol = knot_tol(params)
    kept: list[float] = []
    for times in time_sets:
        for t in map(float, times):
            i = bisect_left(kept, t)
            if all(abs(t - k) > tol for k in kept[max(i - 1, 0):i + 1]):
                kept.insert(i, t)
    return Partition(params, tuple(kept))


def convergence_study(f: Callable[[float], float], params: ProcessParams,
                      piece_counts: Sequence[int], mode: str = "interpolate",
                      method: str = "mc", tol: float = 1e-6,
                      n_paths: int = 200_000, seed: int = 0,
                      workers: int | None = None) -> list[StudyRow]:
    """Crossing probabilities of piecewise-affine approximants of f.

    With method="mc" all resolutions are evaluated on the same skeleton
    draws over the union of their knots (partition invariance makes each
    estimate unbiased for its own boundary), so successive differences have
    far smaller variance than the individual estimates and the reported
    diff_se makes the convergence of the sequence testable.  Estimates and
    differences are means over the same antithetic pairs as in
    `bcp_montecarlo`; `workers` threads share the blocks without changing
    the result.  With
    method="quad" the estimates are independent deterministic values.
    """
    counts = list(piece_counts)
    if not counts or any(c < 1 for c in counts):
        raise DomainError("piece counts must be positive")
    boundaries = [approximate(f, params, c, mode) for c in counts]

    if method == "quad":
        rows = []
        prev = None
        for c, bnd in zip(counts, boundaries):
            est = bcp_quadrature(bnd, tol=tol)
            diff = None if prev is None else est.value - prev.value
            rows.append(StudyRow(c, bnd, est, diff, None))
            prev = est
        return rows
    if method != "mc":
        raise DomainError(f"unknown method {method!r}")

    partition = _union_partition(params, [b.knots for b in boundaries])
    mean, se = _skeleton_mc(partition, boundaries, n_paths, seed, workers)
    nb = len(boundaries)
    rows = []
    for i, (c, bnd) in enumerate(zip(counts, boundaries)):
        est = Estimate(value=min(1.0, max(0.0, float(mean[i]))),
                       error=float(se[i]), method="montecarlo",
                       n_samples=n_paths, seed=seed)
        if i == 0:
            rows.append(StudyRow(c, bnd, est))
        else:
            rows.append(StudyRow(c, bnd, est, float(mean[nb + i - 1]),
                                 float(se[nb + i - 1])))
    return rows
