"""Seeded input generators for the three benchmark workloads.

Inputs follow a fixed design, a Latin hypercube: every continuous
parameter that sets the cost of a call (horizon ratio, crossing level)
takes one point in each of K equal strata, and which slot gets which
stratum is fixed.  The seed draws the point inside each stratum, the
window length q and the shape details (slopes, knot offsets, phases).
So no two seeds give the same inputs, but every seed gives the same mix
of cheap and expensive calls, which keeps runs with different seeds
comparable.  The categorical mix (boundary kind, partition kind and
size, tolerance, horizon class) follows a fixed rotation, so any prefix
of a call list has about the same mix as the whole list.

Only stdlib and numpy are used here; the package receives the generated
boundaries, partitions and configurations and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

_NORMAL = NormalDist()
_DESIGN_SEED = 1607_07260


def strata(rng: np.random.Generator, k: int, lo: float, hi: float,
           stream: int) -> np.ndarray:
    """k points in [lo, hi), one per stratum, in a fixed stratum order.

    `stream` picks the fixed order, so two parameters drawn with distinct
    streams are paired the same way for every seed; `rng` (the seed's)
    only places each point inside its stratum.
    """
    order = np.random.default_rng([_DESIGN_SEED, stream]).permutation(k)
    return lo + (hi - lo) * (order + rng.random(k)) / k


def level_for(p: float) -> float:
    """Boundary level whose single-time exceedance probability is p."""
    return _NORMAL.inv_cdf(1.0 - p)


@dataclass(frozen=True)
class QuadQuery:
    """One `bcp_quadrature` call of the quad-mix workload."""

    kind: str            # constant | affine | piecewise | curve
    horizon: str         # regular | short
    partition_kind: str  # minimal | equidistant | skewed
    boundary: object
    partition: object
    tol: float


@dataclass(frozen=True)
class McCall:
    """One `bcp_montecarlo` call of the mc-skeleton workload."""

    kind: str
    boundary: object
    partition: object
    n_paths: int


@dataclass(frozen=True)
class StudyCall:
    """The coupled `convergence_study` of scale * t^2 on mc-skeleton."""

    params: object
    scale: float
    pieces: tuple[int, ...]
    n_paths: int

    def f(self, t: float) -> float:
        return self.scale * t * t


@dataclass(frozen=True)
class OracleCall:
    """One `empirical_bcp` configuration of the oracle-paths workload."""

    kind: str
    boundary: object
    grid_step: float
    n_paths: int


_BOUNDARY_KINDS = ("constant", "affine", "piecewise", "curve")


def _shape(sb, kind: str, params, level: float, rng, pieces: int):
    """A boundary of the given kind around `level` with seeded details."""
    q, d = params.q, params.d
    if kind == "constant":
        return sb.constant_boundary(params, level)
    if kind == "affine":
        drop = rng.uniform(-0.5, 0.5)
        return sb.affine_boundary(params, level - 0.5 * drop, drop / (d - q))
    if kind == "piecewise":
        knots = np.linspace(q, d, pieces + 1)
        values = level + rng.uniform(-0.3, 0.3, size=pieces + 1)
        return sb.PiecewiseAffineBoundary(params, tuple(
            sb.AffinePiece(float(a), float(b), float(va),
                           float((vb - va) / (b - a)))
            for a, b, va, vb in zip(knots, knots[1:], values, values[1:])))
    amp = rng.uniform(0.1, 0.4)
    phase = rng.uniform(0.0, 2.0 * math.pi)

    def curve(t):
        return level + amp * math.sin(phase + 2.0 * math.pi * (t - q)
                                      / (d - q))
    return sb.approximate(curve, params, pieces)


# partition sizes, in rotation: half of the slots ask for n = 1
_QUAD_SIZES = (1, 2, 1, 3, 1, 2, 1, 4)


def _quad_layout(kind: str, slot: int) -> tuple[int, str, int]:
    """(boundary pieces, partition kind, partition size n) of a slot.

    Sizes rotate through _QUAD_SIZES, shifted by one every ten slots so
    that the short-horizon slots (0 of every ten) get every size; skewed
    slots have 2..4 (their extra point adds a subinterval).  The boundary
    kind decides whether n comes from the boundary's own knots or from an
    equidistant refinement, so piecewise and curve boundaries asked for
    n = 1 run on their minimal partition of two or more intervals.

    The sizes lean to n = 1 and 2 so that the median query is a cheap
    one and p50 follows the cheap path.  Query costs come in clusters,
    one per (n, nodes per axis), and the median must not sit in a gap
    between two clusters, where it jumps across with the seed: with
    sizes uniform on 1..4 it fell between the n = 2 and n = 3 queries at
    96 nodes (about 30 and 55 ms), with n = 4 as often as n = 2 between
    the 64-node n = 2 and n = 4 queries (about 10 and 20 ms); here it
    lies among the 5-10 ms queries.
    """
    if slot % 10 == 5:
        n = 2 + (slot // 10) % 3
        pieces = 1 if kind in ("constant", "affine") else max(2, n - 1)
        return pieces, "skewed", pieces + 1
    n = _QUAD_SIZES[(slot + slot // 10) % len(_QUAD_SIZES)]
    if kind in ("constant", "affine"):
        return 1, ("minimal" if n == 1 else "equidistant"), n
    if n == 4 and (slot // 4) % 2:
        return 2, "equidistant", 4
    return max(2, n), "minimal", max(2, n)


def _partition(sb, boundary, kind: str, n: int):
    """Minimal, equidistant-refined or skewed partition of a boundary."""
    params = boundary.params
    times = set(boundary.knots)
    if kind == "equidistant":
        times |= {float(t) for t in np.linspace(params.q, params.d, n + 1)}
    elif kind == "skewed":
        times.add(params.q + 0.01 * (params.d - params.q))
    return sb.Partition(params, tuple(sorted(times)))


QUAD_QUERIES = 150


def quad_mix(sb, seed: int, count: int = QUAD_QUERIES) -> list[QuadQuery]:
    """Queries for quad-mix.

    Slot 0 of every ten has a short horizon, (d-q)/q log-uniform in
    [1e-3, 1e-2), where quadrature is known to fail; slot 5 has a skewed
    partition (first gap at 1% of the span).  The other horizons have
    (d-q)/q log-uniform in [1e-2, 1].  Levels put the single-time
    exceedance probability log-uniformly in [1e-4, 0.99]; q lies in
    [0.5, 2]; tol alternates between 1e-6 and 1e-8.
    """
    rng = np.random.default_rng([seed, 1])
    short = [i for i in range(count) if i % 10 == 0]
    regular = [i for i in range(count) if i % 10 != 0]
    log_ratio = np.empty(count)
    log_ratio[short] = strata(rng, len(short), -3.0, -2.0, 1)
    log_ratio[regular] = strata(rng, len(regular), -2.0, 0.0, 2)
    log_p = strata(rng, count, math.log(1e-4), math.log(0.99), 3)
    q_all = rng.uniform(0.5, 2.0, size=count)
    queries = []
    for i in range(count):
        params = sb.ProcessParams(float(q_all[i]), float(
            q_all[i] * (1.0 + 10.0 ** log_ratio[i])))
        kind = _BOUNDARY_KINDS[(i // 2) % 4]
        pieces, pkind, n = _quad_layout(kind, i)
        bnd = _shape(sb, kind, params, level_for(math.exp(log_p[i])), rng,
                     pieces)
        queries.append(QuadQuery(
            kind, "short" if i % 10 == 0 else "regular", pkind, bnd,
            _partition(sb, bnd, pkind, n), (1e-6, 1e-8)[(i // 3) % 2]))
    return queries


MC_SIZES = (1, 4, 16, 64)
MC_PATHS = 262_144      # two default 131072-row blocks: one per worker


def mc_skeleton(sb, seed: int) -> tuple[list[McCall], StudyCall]:
    """Calls for mc-skeleton: 3 boundary kinds x n in {1, 4, 16, 64}.

    Constant and affine boundaries use equidistant partitions of size n;
    the piecewise boundary has two pieces, so its n = 1 slot runs on its
    minimal partition (n = 2).  Horizons have d/q in [1.25, 2], levels a
    single-time exceedance probability in [0.02, 0.5].  The study runs
    over 2, 4, 8, 16 and 32 interpolating pieces of scale * t^2.
    """
    rng = np.random.default_rng([seed, 2])
    kinds = ("constant", "affine", "piecewise")
    k = len(kinds) * len(MC_SIZES)
    ratio = strata(rng, k, 0.25, 1.0, 4)
    log_p = strata(rng, k, math.log(0.02), math.log(0.5), 5)
    calls = []
    for j, (kind, n) in enumerate((kd, n) for kd in kinds
                                  for n in MC_SIZES):
        q = float(rng.uniform(0.5, 2.0))
        params = sb.ProcessParams(q, q * (1.0 + ratio[j]))
        bnd = _shape(sb, kind, params, level_for(math.exp(log_p[j])), rng,
                     2)
        calls.append(McCall(kind, bnd, _partition(sb, bnd, "equidistant", n),
                            MC_PATHS))
    q = float(rng.uniform(0.8, 1.25))
    study = StudyCall(sb.ProcessParams(q, 2.0 * q),
                      float(rng.uniform(0.8, 1.2)) / (q * q),
                      (2, 4, 8, 16, 32), MC_PATHS // 2)
    return calls, study


ORACLE_STEP = 1e-3
ORACLE_PATHS = 2_000    # one block of ~2000-wide rows at (q, d) = (1, 2)


def oracle_paths(sb, seed: int) -> list[OracleCall]:
    """Configurations for oracle-paths at grid step 1e-3.

    A constant and an affine boundary at (q, d) = (1, 2), and a constant
    boundary on the short horizon (q, d) = (1, 1.05).  Levels put the
    single-time exceedance probability in [0.1, 0.3].
    """
    rng = np.random.default_rng([seed, 3])
    log_p = strata(rng, 3, math.log(0.1), math.log(0.3), 6)
    long_run = sb.ProcessParams(1.0, 2.0)
    short_run = sb.ProcessParams(1.0, 1.05)
    return [
        OracleCall("constant", sb.constant_boundary(
            long_run, level_for(math.exp(log_p[0]))), ORACLE_STEP,
            ORACLE_PATHS),
        OracleCall("affine", _shape(sb, "affine", long_run,
                                    level_for(math.exp(log_p[1])), rng, 1),
                   ORACLE_STEP, ORACLE_PATHS),
        OracleCall("short", sb.constant_boundary(
            short_run, level_for(math.exp(log_p[2]))), ORACLE_STEP,
            ORACLE_PATHS),
    ]
