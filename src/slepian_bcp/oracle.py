"""Brute-force path-simulation oracle, independent of the analytic code.

Paths come straight from the moving-window representation
W_t = (B_t - B_{t-q}) / sqrt(q) on a uniform grid t_j = t_lo + j dt,
j = 0..k, with k dt <= q (d <= 2q, and a bridge no longer than q).  The
W-step over [t_j, t_j + dt] is (R_j - L_j) / sqrt(q), where R_j is the
B-increment on [t_j, t_j + dt] and L_j the one on [t_j - q, t_j - q + dt];
since k dt <= q these intervals are disjoint, so all 2k increments are iid
N(0, dt).  The orthogonal rotation D_j = R_j - L_j, S_j = R_j + L_j keeps
them independent, N(0, 2 dt) each.  W at t_lo is (sum L_j + G) / sqrt(q),
with G the B-increment over the rest of [t_lo - q, t_lo], and
sum L_j = (sum S_j - sum D_j) / 2; the S_j and G enter only through
sum S_j / 2 + G ~ N(0, q - k dt / 2).  So k + 1 standard normals
Z_0..Z_k per path give W exactly in law:

    dW_j = sqrt(2 dt / q) Z_j,
    W_{t_lo} = sqrt(1 - k dt / (2 q)) Z_0 - sum_j dW_j / 2,
    W = W_{t_lo} + cumsum(dW),

an exact change of variables on independent Gaussian increments
(Glasserman, Monte Carlo Methods in Financial Engineering, 2003,
section 3.1).

Crossings between grid nodes are accounted for exactly, from the same
representation.  Given B on the grid, W on one step is its chord plus the
difference of two independent Brownian bridges (on the disjoint intervals
behind R_j and L_j), a bridge of variance 2 s (h - s) / (q h) at offset s
into a step of length h.  A path that stays below an affine boundary at
both nodes therefore crosses it inside the step with probability
exp(-q (g_k - w_k)(g_{k+1} - w_{k+1}) / h), and both estimators average
the resulting per-path crossing probabilities (the Brownian-bridge
correction for discretely monitored paths; Glasserman 2003, section 6.4).
Nothing here calls the analytic bridge formulas, so the oracle stays an
independent cross-check of the engines.

Paths come in antithetic pairs (W, -W), as the skeletons of conditioned
MC do: -W has the law of W, so every path is exact, and a path block of
about _PATH_BLOCK_ELEMS values draws the normals of half its rows only.
Every estimator averages each pair's two payoffs into one sample
(`engine._pair_means`), so its `error` is a standard error over pairs; a
crossing payoff is monotone in W, so a pair mean has at most half the
variance of one path's payoff (Glasserman 2003, section 4.2).  Blocks draw
from seed-derived streams indexed by block number.  The estimators run
their blocks on a thread pool over every CPU the process may use; each
block draws, builds W, pays off and pairs in one task, and the samples
are summed in block order, so a fixed configuration gives bit-identical
results for any CPU count.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from .boundary import PiecewiseAffineBoundary
from .bridge import BridgeSpec
from .engine import Estimate, _blocks, _map_blocks, _moments, _pair_means
from .errors import DomainError, NotPositiveDefiniteError
from .numerics import gaussian_stream
from .process import ProcessParams, covariance_matrix

# path values per block (2 MB); a block draws half as many normals, the
# other half of its rows are their antithetic partners
_PATH_BLOCK_ELEMS = 1 << 18


@dataclass(frozen=True)
class SimConfig:
    """Path-simulation configuration."""

    params: ProcessParams
    grid_step: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if self.grid_step <= 0:
            raise DomainError("grid_step must be positive")
        span = self.params.d - self.params.q
        k = round(span / self.grid_step)
        if k < 10:
            raise DomainError(
                f"grid_step must be at most (d-q)/10 = {span / 10}")
        if abs(k * self.grid_step - span) > 1e-9 * self.grid_step:
            raise DomainError(
                f"grid_step={self.grid_step} must divide d-q={span} "
                "within rounding")
        if self.n_paths < 1:
            raise DomainError("n_paths must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")

    @property
    def n_steps(self) -> int:
        return round((self.params.d - self.params.q) / self.grid_step)


def _grid(t_lo: float, t_hi: float, step: float) -> np.ndarray:
    """Evaluation times t_lo + j step, j = 0..round((t_hi - t_lo) / step)."""
    return t_lo + np.arange(round((t_hi - t_lo) / step) + 1) * step


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _path_blocks(n_paths: int, width: int) -> list[tuple[int, int]]:
    """(j, paths) of the blocks of about _PATH_BLOCK_ELEMS path values
    that cover n_paths paths of `width` nodes.

    Every block but the last holds an even number of paths, at least 2,
    so only an odd n_paths leaves one path without an antithetic partner.
    """
    return _blocks(n_paths, max(2, _PATH_BLOCK_ELEMS // width // 2 * 2))


def _path_block(width: int, ratio: float, seed: int,
                block: tuple[int, int]) -> np.ndarray:
    """W at `width` = k + 1 grid nodes on path block (j, paths).

    The block holds antithetic pairs: it draws c = ceil(paths / 2) rows
    Z of k + 1 standard normals from stream j into the first c rows of
    one (paths x (k + 1)) array, builds W on them, and writes the
    negatives of the first floor(paths / 2) rows into the rows after
    them, so row i and row c + i are a pair (see `engine._pair_means`).
    -W has the law of W, so every row is a path of the process.

    `ratio` is the grid step over q.  Columns 1..k of Z become the
    W-steps dW_j = sqrt(2 ratio) Z_j, column 0 becomes
    W_{t_lo} = sqrt(1 - k ratio / 2) Z_0 - sum_j dW_j / 2, and the row
    cumsum is W at the k + 1 nodes.  This is exact for k ratio <= 1: the
    two B-increments behind a W-step lie on disjoint intervals, and
    rotating each pair into its difference (the W-step) and sum leaves
    independent normals, of which W_{t_lo} needs the sums only through one
    N(0, 1 - k ratio / 2) term (see the module docstring).  W is built
    in place in Z.
    """
    j, paths = block
    half = paths // 2
    cols = paths - half
    out = np.empty((paths, width))
    z = gaussian_stream(seed, j).normals(
        cols * width, out[:cols].reshape(-1)).reshape(cols, width)
    k = width - 1
    dw = z[:, 1:]
    dw *= math.sqrt(2.0 * ratio)
    w0 = z[:, 0]
    w0 *= math.sqrt(1.0 - 0.5 * k * ratio)
    w0 -= 0.5 * dw.sum(axis=1)
    np.cumsum(z, axis=1, out=z)
    np.negative(out[:half], out=out[cols:])
    return out


def _pooled_moments(width: int, ratio: float, n_paths: int, seed: int,
                    payoff) -> tuple[np.ndarray, np.ndarray]:
    """`_moments` of the pair means of payoff(W) over the path blocks of
    `width` nodes.

    payoff(W) has one row per path and may be overwritten.  Each block
    draws, builds W, pays off and averages its antithetic pairs
    (`engine._pair_means`) in one task on a pool of `_cpu_count()`
    threads; results are summed in block order, so they do not depend on
    the thread count.
    """
    return _moments(_map_blocks(
        lambda block: _pair_means(
            payoff(_path_block(width, ratio, seed, block))),
        _path_blocks(n_paths, width), _cpu_count()))


def simulate_paths(cfg: SimConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (times, values) blocks of simulated paths on [q, d].

    `values` has one row per path; rows across all blocks form the full
    ensemble of cfg.n_paths paths, reproducible from cfg.seed.  Each block
    of p rows holds antithetic pairs: its rows from c = ceil(p / 2) on are
    the negatives of its first floor(p / 2) rows.  Every block but the
    last has an even p, so only an odd cfg.n_paths leaves a row unpaired
    (the last block's row c - 1).
    """
    params, step = cfg.params, cfg.grid_step
    times = _grid(params.q, params.d, step)
    for block in _path_blocks(cfg.n_paths, len(times)):
        yield times, _path_block(len(times), step / params.q, cfg.seed, block)


def _step_limits(boundary: PiecewiseAffineBoundary, times: np.ndarray,
                 step: float):
    """Boundary values for the bridge-corrected crossing check.

    Returns (g, steps, g_lo, g_hi): g at the grid nodes, with the stored
    knot value at every node that is a boundary knot (within 1e-9*step),
    and, for the few steps whose ends differ from those node values, the
    one-sided limits at both ends of the piece covering that step.  Every
    other step lies inside one piece, where g at its nodes is that piece's
    value.  A step with a knot strictly inside gets +inf limits, i.e. no
    between-node correction; such knots are named in one RuntimeWarning.
    """
    g = np.array(boundary.evaluate(times), dtype=float)
    pieces = boundary.pieces
    n = len(times) - 1
    lo, hi = {}, {}
    off_grid = []
    for i, (tau, value) in enumerate(zip(boundary.knots[1:-1],
                                         boundary.knot_values)):
        j = min(n, max(0, round((tau - times[0]) / step)))
        if abs(times[j] - tau) <= 1e-9 * step:
            g[j] = value
            if j > 0:
                hi[j - 1] = pieces[i].value_end
            if j < n:
                lo[j] = pieces[i + 1].value_start
        else:
            off_grid.append((tau, min(n - 1, max(
                0, int(np.searchsorted(times, tau)) - 1))))
    for _, k in off_grid:
        lo[k] = hi[k] = math.inf
    if off_grid:
        warnings.warn(
            "boundary knots at t = " + ", ".join(str(t) for t, _ in off_grid)
            + f" lie strictly inside steps of the grid (step {step}); those "
            "steps are checked at their nodes only, so the crossing "
            "probability is underestimated", RuntimeWarning, stacklevel=3)
    steps = np.array(sorted(lo.keys() | hi.keys()), dtype=int)
    g_lo = np.array([lo.get(k, g[k]) for k in steps], dtype=float)
    g_hi = np.array([hi.get(k, g[k + 1]) for k in steps], dtype=float)
    return g, steps, g_lo, g_hi


def _bridge_crossing(w: np.ndarray, g: np.ndarray, steps: np.ndarray,
                     g_lo: np.ndarray, g_hi: np.ndarray,
                     scale: float) -> np.ndarray:
    """Per-path crossing probability given the grid values `w`.

    1 for a path above g at some node; otherwise
    1 - prod_k (1 - exp(-scale * x_k)), x_k = (g_k - w_k)(g_{k+1} - w_{k+1}),
    with scale = q/step and, on the listed `steps`, the one-sided limits
    g_lo/g_hi in place of the node values.  Only steps with scale * x_k
    below 40 + ln(n_steps) enter the product: the dropped factors change a
    path's probability by less than 1e-17.
    """
    alive = ~np.any(w > g, axis=1)
    prob = np.ones(len(w))
    gap = g - w[alive]
    x = gap[:, :-1] * gap[:, 1:]
    if steps.size:
        x[:, steps] = ((g_lo - g[steps]) + gap[:, steps]) * (
            (g_hi - g[steps + 1]) + gap[:, steps + 1])
    near = x < (40.0 + math.log(x.shape[1])) / scale
    rows = np.repeat(np.arange(len(x)), np.count_nonzero(near, axis=1))
    with np.errstate(divide="ignore"):
        log_stay = np.log1p(-np.exp(-scale * np.maximum(x[near], 0.0)))
    prob[alive] = -np.expm1(np.bincount(rows, log_stay, minlength=len(x)))
    return prob


def empirical_bcp(cfg: SimConfig, boundary: PiecewiseAffineBoundary,
                  crossing: str = "bridge") -> Estimate:
    """Path-simulation estimate of the boundary crossing probability.

    The paths come in antithetic pairs (see `simulate_paths`), and each
    pair's mean payoff is one sample; with an odd n_paths the last path
    has no partner and is a sample of its own.  The estimate is the mean
    of the samples and `error` their sample standard error, taken over
    pairs; `n_samples` counts paths.  The estimate stays unbiased, since
    every path has the law of the process.

    crossing="bridge" (default): each path's exact probability of crossing
    g in continuous time given its grid values:
    1 if it exceeds g at a node, else
    1 - prod_k (1 - exp(-q (g_k - w_k)(g_{k+1} - w_{k+1}) / grid_step)),
    with g taken on each step from the piece covering it (one-sided limits
    at knots; at a knot node the knot value decides the node check).  The
    estimate is unbiased when every boundary knot is a grid node (within
    1e-9*grid_step); a knot strictly inside a step leaves that step checked
    at its nodes only, with a RuntimeWarning.

    crossing="nodes": the indicator that a path exceeds the boundary at
    some grid node.  Grid discretization can only miss crossings, so this
    bias is one-sided (toward underestimating the crossing probability)
    and decays like sqrt(grid_step).  It is kept as the reference for that
    decay and for the node-wise part of the bridge estimate, which it
    bounds from below on the same paths.
    """
    if boundary.params != cfg.params:
        raise DomainError("boundary and simulation use different (q, d)")
    if crossing not in ("bridge", "nodes"):
        raise DomainError(
            f"crossing must be 'bridge' or 'nodes', got {crossing!r}")
    params = cfg.params
    times = _grid(params.q, params.d, cfg.grid_step)
    if crossing == "nodes":
        g = boundary.evaluate(times)

        def payoff(w):
            return np.any(w > g, axis=1).astype(float)[:, None]
    else:
        scale = params.q / cfg.grid_step
        limits = _step_limits(boundary, times, cfg.grid_step)

        def payoff(w):
            return _bridge_crossing(w, *limits, scale)[:, None]
    mean, sem = _pooled_moments(len(times), cfg.grid_step / params.q,
                                cfg.n_paths, cfg.seed, payoff)
    return Estimate(value=float(mean[0]), error=float(sem[0]),
                    method="oracle", n_samples=cfg.n_paths, seed=cfg.seed)


def empirical_covariance(cfg: SimConfig, n_lags: int = 20):
    """Empirical covariance of W at `n_lags` grid lags from the left edge.

    Returns (lags, estimates, standard_errors); each estimate averages the
    product W_q * W_{q+lag} over the antithetic pair means, and its error
    is their sample standard error.  The product is even in W, so both
    paths of a pair give the same product: the standard error is that of
    n_paths / 2 independent paths, at the draw cost of n_paths / 2.
    """
    k_max = cfg.n_steps
    lag_idx = np.unique(np.round(np.linspace(1, k_max, n_lags)).astype(int))
    mean, se = _pooled_moments(
        k_max + 1, cfg.grid_step / cfg.params.q, cfg.n_paths, cfg.seed,
        lambda w: w[:, [0]] * w[:, lag_idx])
    return lag_idx * cfg.grid_step, mean, se


def empirical_bridge_noncross(spec: BridgeSpec, b: float, a: float = 0.0,
                              n_paths: int = 100_000,
                              grid_step: float = 1e-3,
                              seed: int = 0) -> Estimate:
    """Path-simulation estimate of the bridge non-crossing probability.

    Pins the simulated paths to (x_i, x_i1) by the exact conditional
    Gaussian correction: an unconditional path W gets
    W + Cov(W, pins) Cov(pins)^{-1} (pins - W_pins), which is cheap (rank
    two) and has the exact conditional law.  The correction is affine in t
    and the pins are grid nodes, so the estimate is one minus the mean of
    `empirical_bcp`'s per-path crossing probabilities over antithetic
    pairs, and `error` is the sample standard error of the pair means.
    The correction maps a pair (W, -W) to two paths mirrored about the
    conditional mean, so pinned paths are antithetic pairs too.  A pin on
    or above the boundary is a certain crossing, so the estimate is 0
    without simulation.
    """
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    h = spec.h
    if spec.x_i >= b or spec.x_i1 >= b + a * h:
        return Estimate(value=0.0, error=0.0, method="oracle",
                        n_samples=n_paths, seed=seed)
    params = spec.params
    k = round(h / grid_step)
    if abs(k * grid_step - h) > 1e-9 * grid_step or k < 2:
        raise DomainError(
            f"grid_step={grid_step} must divide the bridge length {h} "
            "within rounding, with at least two subintervals")
    times = _grid(spec.t_i, spec.t_i1, grid_step)
    sigma = covariance_matrix(params, times)
    pin_idx = [0, len(times) - 1]
    s_pp = sigma[np.ix_(pin_idx, pin_idx)]
    det = s_pp[0, 0] * s_pp[1, 1] - s_pp[0, 1] * s_pp[1, 0]
    if det <= 1e-14:
        raise NotPositiveDefiniteError(
            "pinned covariance is numerically singular; the bridge interval "
            "and grid are inconsistent")
    gain = sigma[:, pin_idx] @ np.linalg.inv(s_pp)
    pins = np.array([spec.x_i, spec.x_i1])
    # one affine piece, so no step needs one-sided limits
    limits = (b + a * (times - spec.t_i), np.empty(0, dtype=int),
              np.empty(0), np.empty(0))

    def payoff(w):
        w += (pins[None, :] - w[:, pin_idx]) @ gain.T
        return _bridge_crossing(w, *limits, params.q / grid_step)[:, None]

    mean, sem = _pooled_moments(len(times), grid_step / params.q, n_paths,
                                seed, payoff)
    return Estimate(value=1.0 - float(mean[0]), error=float(sem[0]),
                    method="oracle", n_samples=n_paths, seed=seed)


def dump_paths(cfg: SimConfig, fp: IO[str] | str,
               max_paths: int | None = None) -> int:
    """Write simulated paths as delimited text; returns the number written.

    First line holds the evaluation times, then one line per path:
    the path index followed by the path values, comma-separated.  Rows
    come in mirrored pairs as `simulate_paths` yields them: within each
    block of p rows, rows ceil(p/2) on are the negatives of its first
    floor(p/2) rows.
    """
    def _write(handle):
        written = 0
        path_id = 0
        for times, w in simulate_paths(cfg):
            if written == 0:
                handle.write("t," + ",".join(f"{t:.17g}" for t in times)
                             + "\n")
            for row in w:
                if max_paths is not None and written >= max_paths:
                    return written
                handle.write(str(path_id) + ","
                             + ",".join(f"{v:.17g}" for v in row) + "\n")
                path_id += 1
                written += 1
        return written

    if isinstance(fp, str):
        with open(fp, "w", encoding="utf-8") as handle:
            return _write(handle)
    return _write(fp)
