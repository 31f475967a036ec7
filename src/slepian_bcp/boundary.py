"""Piecewise-affine boundary functions on the process interval [q, d].

A boundary is an ordered list of affine pieces tiling [q, d] exactly, plus
an explicit value at every interior knot.  Pieces describe the boundary on
the open subintervals; the knot values are what the crossing-probability
formulas integrate up to, so at a jump they must not exceed either one-sided
limit.  For continuous boundaries the distinction is invisible.

Arbitrary boundary functions are reduced to this class by `approximate`,
either as a continuous interpolant at equidistant knots or as per-interval
constants with the conservative min rule at the jumps.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, IO, Iterable

import numpy as np

from .errors import DomainError
from .process import ProcessParams


def knot_tol(params: ProcessParams) -> float:
    """Distance within which two times count as the same knot: the one
    rule wherever partition times meet boundary knots, which agree only up
    to rounding when reached two ways."""
    return 1e-12 * (params.d - params.q)


@dataclass(frozen=True)
class AffinePiece:
    """One affine piece b + a*(t - t_start) on [t_start, t_end]."""

    t_start: float
    t_end: float
    intercept: float
    slope: float

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise DomainError(
                f"piece needs t_start < t_end, got [{self.t_start}, "
                f"{self.t_end}]")
        if not (math.isfinite(self.intercept) and math.isfinite(self.slope)):
            raise DomainError("piece coefficients must be finite")

    def value(self, t):
        """Boundary value of this piece at t (scalar or array)."""
        return self.intercept + self.slope * (np.asarray(t, dtype=float)
                                              - self.t_start)

    @property
    def value_start(self) -> float:
        return self.intercept

    @property
    def value_end(self) -> float:
        return self.intercept + self.slope * (self.t_end - self.t_start)


@dataclass(frozen=True)
class PiecewiseAffineBoundary:
    """Piecewise-affine boundary g on [q, d]; immutable after construction.

    `knot_values` holds g at the interior knots only; at the endpoints the
    adjacent piece value applies.  If omitted, interior knot values default
    to min(left limit, right limit), which keeps them valid for
    discontinuous tilings.  Explicit values may be lower but never higher
    than either one-sided limit.
    """

    params: ProcessParams
    pieces: tuple[AffinePiece, ...]
    knot_values: tuple[float, ...] | None = None

    def __post_init__(self):
        pieces = tuple(self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if not pieces:
            raise DomainError("boundary needs at least one piece")
        if pieces[0].t_start != self.params.q:
            raise DomainError(
                f"first piece must start at q={self.params.q}, got "
                f"{pieces[0].t_start}")
        if pieces[-1].t_end != self.params.d:
            raise DomainError(
                f"last piece must end at d={self.params.d}, got "
                f"{pieces[-1].t_end}")
        for left, right in zip(pieces, pieces[1:]):
            if left.t_end != right.t_start:
                raise DomainError(
                    f"pieces must tile [q, d] with exact endpoint matching; "
                    f"gap or overlap between t={left.t_end} and "
                    f"t={right.t_start}")
        interior_min = tuple(
            min(left.value_end, right.value_start)
            for left, right in zip(pieces, pieces[1:]))
        if self.knot_values is None:
            object.__setattr__(self, "knot_values", interior_min)
        else:
            values = tuple(float(v) for v in self.knot_values)
            if len(values) != len(pieces) - 1:
                raise DomainError(
                    f"expected {len(pieces) - 1} interior knot values, got "
                    f"{len(values)}")
            for v, cap in zip(values, interior_min):
                if not math.isfinite(v):
                    raise DomainError("knot values must be finite")
                if v > cap:
                    raise DomainError(
                        f"knot value {v} exceeds the adjacent piece limits "
                        f"(min {cap})")
            object.__setattr__(self, "knot_values", values)

    @property
    def knots(self) -> tuple[float, ...]:
        """All knots t_0 = q < ... < t_n = d."""
        return tuple(p.t_start for p in self.pieces) + (self.params.d,)

    def value_at_knot(self, i: int) -> float:
        """g(t_i): the stored value at interior knots, piece limits at ends."""
        n = len(self.pieces)
        if i == 0:
            return self.pieces[0].value_start
        if i == n:
            return self.pieces[-1].value_end
        return self.knot_values[i - 1]

    def evaluate(self, t):
        """Boundary value at t (all in [q, d]); a float for scalar t.

        Interior knots return the stored knot value, everything else the
        covering piece.
        """
        arr = np.asarray(t, dtype=float)
        if np.any(arr < self.params.q) or np.any(arr > self.params.d):
            raise DomainError(
                f"t outside [{self.params.q}, {self.params.d}]")
        starts = np.array([p.t_start for p in self.pieces])
        idx = np.clip(np.searchsorted(starts, arr, side="right") - 1,
                      0, len(self.pieces) - 1)
        inter = np.array([p.intercept for p in self.pieces])
        slope = np.array([p.slope for p in self.pieces])
        out = inter[idx] + slope[idx] * (arr - starts[idx])
        knots = self.knots
        for i in range(1, len(knots) - 1):
            out = np.where(arr == knots[i], self.knot_values[i - 1], out)
        return float(out) if out.ndim == 0 else out

    def __call__(self, t):
        return self.evaluate(t)

    def local_affine(self, t_lo: float, t_hi: float) -> tuple[float, float]:
        """(intercept at t_lo, slope) of the single piece covering [t_lo, t_hi].

        Raises DomainError if the interval straddles a knot (`knot_tol`).
        """
        if not t_lo < t_hi:
            raise DomainError("need t_lo < t_hi")
        starts = [p.t_start for p in self.pieces]
        # the midpoint, not t_lo: a t_lo that rounds just below a knot
        # still belongs to the piece that starts there
        mid = 0.5 * (t_lo + t_hi)
        piece = self.pieces[max(0, bisect_right(starts, mid) - 1)]
        tol = knot_tol(self.params)
        if piece.t_start - t_lo > tol or t_hi - piece.t_end > tol:
            raise DomainError(
                f"[{t_lo}, {t_hi}] is not covered by a single boundary piece")
        return float(piece.value(t_lo)), piece.slope


def constant_boundary(params: ProcessParams,
                      level: float) -> PiecewiseAffineBoundary:
    """The constant boundary g = level on [q, d]."""
    piece = AffinePiece(params.q, params.d, float(level), 0.0)
    return PiecewiseAffineBoundary(params, (piece,))


def affine_boundary(params: ProcessParams, intercept: float,
                    slope: float) -> PiecewiseAffineBoundary:
    """The affine boundary g(t) = intercept + slope*(t - q) on [q, d]."""
    piece = AffinePiece(params.q, params.d, float(intercept), float(slope))
    return PiecewiseAffineBoundary(params, (piece,))


def approximate(f: Callable[[float], float], params: ProcessParams,
                n_pieces: int,
                mode: str = "interpolate") -> PiecewiseAffineBoundary:
    """Approximate an arbitrary boundary function by n_pieces affine pieces.

    interpolate: continuous piecewise-affine interpolant of f at equidistant
    knots.  piecewise_constant: the constant f(midpoint) on each interval,
    with min(adjacent constants) at the jumps.
    """
    if n_pieces < 1:
        raise DomainError("n_pieces must be >= 1")
    if mode not in ("interpolate", "piecewise_constant"):
        raise DomainError(f"unknown approximation mode {mode!r}")
    # f sees Python floats, so a division by zero in f raises
    # ZeroDivisionError instead of warning and returning inf
    grid = np.linspace(params.q, params.d, n_pieces + 1)
    knots = grid.tolist()
    pieces = []
    if mode == "interpolate":
        values = [float(f(t)) for t in knots]
        if not all(math.isfinite(v) for v in values):
            raise DomainError("boundary function must be finite at all knots")
        for i in range(n_pieces):
            a = (values[i + 1] - values[i]) / (knots[i + 1] - knots[i])
            pieces.append(AffinePiece(knots[i], knots[i + 1], values[i], a))
        return PiecewiseAffineBoundary(params, tuple(pieces))
    mids = (0.5 * (grid[:-1] + grid[1:])).tolist()
    consts = [float(f(t)) for t in mids]
    if not all(math.isfinite(v) for v in consts):
        raise DomainError("boundary function must be finite at all knots")
    for i in range(n_pieces):
        pieces.append(AffinePiece(knots[i], knots[i + 1], consts[i], 0.0))
    return PiecewiseAffineBoundary(params, tuple(pieces))


def boundary_to_dict(boundary: PiecewiseAffineBoundary) -> dict:
    """JSON-ready representation of a boundary."""
    return {
        "q": boundary.params.q,
        "d": boundary.params.d,
        "pieces": [
            {"t_start": p.t_start, "t_end": p.t_end,
             "intercept": p.intercept, "slope": p.slope}
            for p in boundary.pieces
        ],
        "knot_values": list(boundary.knot_values),
    }


def boundary_from_dict(data: dict) -> PiecewiseAffineBoundary:
    """Inverse of boundary_to_dict; validates the tiling exactly."""
    try:
        params = ProcessParams(float(data["q"]), float(data["d"]))
        pieces = tuple(
            AffinePiece(float(p["t_start"]), float(p["t_end"]),
                        float(p["intercept"]), float(p["slope"]))
            for p in data["pieces"])
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed boundary specification: {exc}") from exc
    knot_values = data.get("knot_values")
    if knot_values is not None:
        knot_values = tuple(float(v) for v in knot_values)
    return PiecewiseAffineBoundary(params, pieces, knot_values)


def dump_boundary(boundary: PiecewiseAffineBoundary, fp: IO[str] | str) -> None:
    """Write a boundary specification file (JSON)."""
    data = boundary_to_dict(boundary)
    if isinstance(fp, str):
        with open(fp, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2)
            handle.write("\n")
    else:
        json.dump(data, fp, indent=2)


def load_boundary(fp: IO[str] | str) -> PiecewiseAffineBoundary:
    """Read a boundary specification file written by dump_boundary."""
    if isinstance(fp, str):
        with open(fp, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        data = json.load(fp)
    return boundary_from_dict(data)
