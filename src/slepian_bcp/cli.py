"""Command-line front end.

Subcommands: `compute` (crossing probability by quadrature or Monte Carlo),
`oracle` (path-simulation estimate), `bridge` (single-bridge non-crossing
probability), `density` (pointwise density evaluation) and `converge`
(boundary-approximation convergence study).  Every computation emits one
record with the fields value, error, method, q, d, partition,
boundary_digest, seed and wall_time, as JSON lines or CSV (17 significant
digits); identical configurations produce byte-identical records apart from
wall_time.

Exit status: 0 on success, 2 on validation errors (including d > 2q, which
the analytic formulas do not cover), 3 on numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time

from . import boundary as boundary_mod
from .boundary import (PiecewiseAffineBoundary, affine_boundary,
                       constant_boundary, load_boundary)
from .bridge import (BridgeSpec, _check_affine_pins, hitting_density_double,
                     hitting_density_single, noncross_affine_product)
from .engine import (Partition, _union_partition, bcp_montecarlo,
                     bcp_quadrature, convergence_study)
from .errors import (DomainError, NotPositiveDefiniteError,
                     QuadratureNonConvergenceError, SlepianError)
from .oracle import SimConfig, dump_paths, empirical_bcp, \
    empirical_bridge_noncross
from .process import (GaussianVectorSpec, ProcessParams, conditional_density,
                      fdd_density, pair_density)

_EXPR_NAMES = {name: getattr(math, name) for name in (
    "sin", "cos", "tan", "exp", "log", "sqrt", "atan", "asin", "acos",
    "sinh", "cosh", "tanh", "pi", "e")}
_EXPR_NAMES["abs"] = abs


def _boundary_digest(data: dict) -> str:
    blob = json.dumps(data, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"expected a comma-separated number list: {exc}")


def _resolve_boundary(args, params: ProcessParams) -> PiecewiseAffineBoundary:
    sources = [args.boundary is not None, args.const_boundary is not None,
               args.affine_boundary is not None]
    if sum(sources) != 1:
        raise DomainError(
            "exactly one of --boundary, --const-boundary, --affine-boundary "
            "is required")
    if args.boundary is not None:
        bnd = load_boundary(args.boundary)
        if bnd.params != params:
            raise DomainError(
                f"boundary file is for (q={bnd.params.q}, d={bnd.params.d}), "
                f"command line says (q={params.q}, d={params.d})")
        return bnd
    if args.const_boundary is not None:
        return constant_boundary(params, args.const_boundary)
    coeffs = _floats(args.affine_boundary)
    if len(coeffs) != 2:
        raise DomainError("--affine-boundary expects 'intercept,slope'")
    return affine_boundary(params, coeffs[0], coeffs[1])


def _resolve_partition(spec: str, bnd: PiecewiseAffineBoundary) -> Partition:
    if spec == "auto":
        return Partition.from_boundary(bnd)
    try:
        count = int(spec)
    except ValueError:
        times = _floats(spec)
    else:
        times = Partition.equidistant(bnd.params, count).times
    return _union_partition(bnd.params, [bnd.knots, times])


def _base_record(params: ProcessParams, partition, digest, seed, method):
    return {
        "value": None, "error": None, "method": method,
        "q": params.q, "d": params.d,
        "partition": list(partition) if partition is not None else None,
        "boundary_digest": digest, "seed": seed, "wall_time": None,
    }


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, (list, tuple)):
        return ";".join(_fmt(x) for x in v)
    if v is None:
        return ""
    return str(v)


def _emit(records: list[dict], fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = "".join(json.dumps(rec) + "\n" for rec in records)
    else:
        keys = []
        for rec in records:
            for key in rec:
                if key not in keys:
                    keys.append(key)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(keys)
        for rec in records:
            writer.writerow([_fmt(rec.get(k)) for k in keys])
        text = buf.getvalue()
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _check_method_flags(args) -> None:
    if args.method == "mc" and args.tol is not None:
        raise DomainError("--tol applies only to --method quad")
    if args.method == "quad" and args.n_paths is not None:
        raise DomainError("--n-paths applies only to --method mc")


def _cmd_compute(args) -> list[dict]:
    params = ProcessParams(args.q, args.d)
    bnd = _resolve_boundary(args, params)
    partition = _resolve_partition(args.partition, bnd)
    _check_method_flags(args)
    start = time.perf_counter()
    if args.method == "quad":
        est = bcp_quadrature(bnd, partition,
                             tol=args.tol if args.tol is not None else 1e-6)
    else:
        est = bcp_montecarlo(
            bnd, partition,
            n_paths=args.n_paths if args.n_paths is not None else 1_000_000,
            seed=args.seed, workers=args.workers)
    elapsed = time.perf_counter() - start
    rec = _base_record(params, partition.times,
                       _boundary_digest(boundary_mod.boundary_to_dict(bnd)),
                       est.seed, est.method)
    rec.update(value=est.value, error=est.error, wall_time=elapsed,
               n_samples=est.n_samples, n_nodes=est.n_nodes)
    return [rec]


def _cmd_oracle(args) -> list[dict]:
    params = ProcessParams(args.q, args.d)
    bnd = _resolve_boundary(args, params)
    cfg = SimConfig(params, args.grid_step, args.n_paths, args.seed)
    start = time.perf_counter()
    if args.dump_paths:
        dump_paths(cfg, args.dump_paths)
    est = empirical_bcp(cfg, bnd)
    elapsed = time.perf_counter() - start
    rec = _base_record(params, None,
                       _boundary_digest(boundary_mod.boundary_to_dict(bnd)),
                       est.seed, est.method)
    rec.update(value=est.value, error=est.error, wall_time=elapsed,
               n_samples=est.n_samples, grid_step=args.grid_step)
    return [rec]


def _cmd_bridge(args) -> list[dict]:
    params = ProcessParams(args.q, args.d)
    spec = BridgeSpec(params, args.t_start, args.t_end, args.x_start,
                      args.x_end)
    digest = _boundary_digest({"intercept": args.intercept,
                               "slope": args.slope,
                               "t_start": args.t_start,
                               "t_end": args.t_end})
    _check_affine_pins(spec, args.intercept, args.slope)
    if args.method == "mc" and args.n_paths < 1:
        raise DomainError("--n-paths must be >= 1")
    start = time.perf_counter()
    if args.method == "mc":
        est = empirical_bridge_noncross(
            spec, args.intercept, args.slope, n_paths=args.n_paths,
            grid_step=args.grid_step, seed=args.seed)
        value, error, method, seed = est.value, est.error, est.method, est.seed
    else:
        value = noncross_affine_product(params.q, spec.h, args.intercept,
                                        args.slope, args.x_start, args.x_end)
        error, method, seed = 0.0, "analytic", None
    elapsed = time.perf_counter() - start
    rec = _base_record(params, [args.t_start, args.t_end], digest, seed,
                       method)
    rec.update(value=value, error=error, wall_time=elapsed,
               x_start=args.x_start, x_end=args.x_end)
    return [rec]


_HITTING_FLAGS = {"hitting-single": ("intercept", "x_start", "t"),
                  "hitting-double": ("intercept", "t_start", "t_end",
                                     "x_start", "x_end", "t")}


def _cmd_density(args) -> list[dict]:
    params = ProcessParams(args.q, args.d)
    missing = [f"--{name.replace('_', '-')}"
               for name in _HITTING_FLAGS.get(args.kind, ())
               if getattr(args, name) is None]
    if missing:
        raise DomainError(f"{args.kind} density needs {', '.join(missing)}")
    times = _floats(args.times) if args.times else []
    values = _floats(args.values) if args.values else []
    start = time.perf_counter()
    if args.kind == "fdd":
        spec = GaussianVectorSpec(params, tuple(times))
        value = fdd_density(spec, values)
    elif args.kind == "pair":
        if len(times) != 2 or len(values) != 2:
            raise DomainError("pair density needs two times and two values")
        value = pair_density(params, times[0], times[1], values[0], values[1])
    elif args.kind == "conditional":
        if len(times) != 3 or len(values) != 3:
            raise DomainError(
                "conditional density needs three times and three values "
                "(x0, xi, xi1)")
        value = conditional_density(params, times[0], times[1], times[2],
                                    values[0], values[1], values[2])
    elif args.kind == "hitting-single":
        value = hitting_density_single(params, args.intercept, args.slope,
                                       args.x_start, args.t)
    else:  # hitting-double
        spec = BridgeSpec(params, args.t_start, args.t_end, args.x_start,
                          args.x_end)
        value = hitting_density_double(spec, args.intercept, args.slope,
                                       args.t)
    elapsed = time.perf_counter() - start
    rec = _base_record(params, times or None, None, None, "analytic")
    rec.update(value=value, error=0.0, wall_time=elapsed, kind=args.kind)
    return [rec]


def _cmd_converge(args) -> list[dict]:
    params = ProcessParams(args.q, args.d)
    try:
        counts = [int(c) for c in args.pieces.split(",") if c.strip()]
    except ValueError as exc:
        raise DomainError(f"--pieces expects integer piece counts: {exc}")
    if args.boundary is not None:
        f = load_boundary(args.boundary)
        if f.params != params:
            raise DomainError("boundary file (q, d) disagrees with flags")
    elif args.expr is not None:
        try:
            code = compile(args.expr, "<expr>", "eval")
        except SyntaxError as exc:
            raise DomainError(f"--expr is not an expression: {exc.msg}")
        unknown = sorted(set(code.co_names) - set(_EXPR_NAMES) - {"t"})
        if unknown:
            raise DomainError(f"--expr uses unknown names: "
                              f"{', '.join(unknown)}")

        def f(t, _code=code):
            try:
                return float(eval(_code, {"__builtins__": {}},
                                  dict(_EXPR_NAMES, t=t)))
            except (ValueError, ArithmeticError) as exc:
                raise DomainError(f"--expr fails at t = {t}: {exc}")
    else:
        raise DomainError("converge needs --boundary or --expr")
    _check_method_flags(args)
    start = time.perf_counter()
    rows = convergence_study(
        f, params, counts, mode=args.mode,
        method="quad" if args.method == "quad" else "mc",
        tol=args.tol if args.tol is not None else 1e-6,
        n_paths=args.n_paths if args.n_paths is not None else 200_000,
        seed=args.seed, workers=args.workers)
    elapsed = time.perf_counter() - start
    records = []
    for row in rows:
        rec = _base_record(params, row.boundary.knots,
                           _boundary_digest(
                               boundary_mod.boundary_to_dict(row.boundary)),
                           row.estimate.seed, row.estimate.method)
        rec.update(value=row.estimate.value, error=row.estimate.error,
                   wall_time=elapsed, n_pieces=row.n_pieces,
                   diff_prev=row.diff_prev, diff_se=row.diff_se)
        records.append(rec)
    return records


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--output", default=None, help="output file; default stdout")


def _add_boundary_flags(sub):
    sub.add_argument("--boundary", default=None,
                     help="boundary specification file (JSON)")
    sub.add_argument("--const-boundary", type=float, default=None)
    sub.add_argument("--affine-boundary", default=None,
                     metavar="B,A", help="g(t) = B + A*(t - q)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slepian-bcp",
        description="Boundary crossing probabilities for (q,d)-Slepian "
                    "processes with piecewise-affine boundaries.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("compute", help="crossing probability")
    sub.add_argument("--q", type=float, required=True)
    sub.add_argument("--d", type=float, required=True)
    _add_boundary_flags(sub)
    sub.add_argument("--partition", default="auto",
                     help="'auto' (boundary knots), a subinterval count, or "
                          "a comma-separated knot list")
    sub.add_argument("--method", choices=("quad", "mc"), default="quad")
    sub.add_argument("--tol", type=float, default=None)
    sub.add_argument("--n-paths", type=int, default=None)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--workers", type=int, default=None,
                     help="worker bound for Monte-Carlo blocks (default 1)")
    _add_common(sub)
    sub.set_defaults(func=_cmd_compute)

    sub = subs.add_parser("oracle", help="path-simulation estimate")
    sub.add_argument("--q", type=float, required=True)
    sub.add_argument("--d", type=float, required=True)
    _add_boundary_flags(sub)
    sub.add_argument("--grid-step", type=float, default=1e-3)
    sub.add_argument("--n-paths", type=int, default=100_000)
    sub.add_argument("--dump-paths", default=None,
                     help="also write simulated paths to this file")
    sub.add_argument("--seed", type=int, default=0)
    _add_common(sub)
    sub.set_defaults(func=_cmd_oracle)

    sub = subs.add_parser("bridge", help="bridge non-crossing probability")
    sub.add_argument("--q", type=float, required=True)
    sub.add_argument("--d", type=float, required=True)
    sub.add_argument("--t-start", type=float, required=True)
    sub.add_argument("--t-end", type=float, required=True)
    sub.add_argument("--x-start", type=float, required=True)
    sub.add_argument("--x-end", type=float, required=True)
    sub.add_argument("--intercept", type=float, required=True,
                     help="boundary value at t-start")
    sub.add_argument("--slope", type=float, default=0.0)
    sub.add_argument("--method", choices=("quad", "mc"), default="quad")
    sub.add_argument("--n-paths", type=int, default=100_000)
    sub.add_argument("--grid-step", type=float, default=1e-3)
    sub.add_argument("--seed", type=int, default=0)
    _add_common(sub)
    sub.set_defaults(func=_cmd_bridge)

    sub = subs.add_parser("density", help="pointwise densities")
    sub.add_argument("--kind", required=True,
                     choices=("fdd", "pair", "conditional",
                              "hitting-single", "hitting-double"))
    sub.add_argument("--q", type=float, required=True)
    sub.add_argument("--d", type=float, required=True)
    sub.add_argument("--times", default=None)
    sub.add_argument("--values", default=None)
    sub.add_argument("--t", type=float, default=None)
    sub.add_argument("--t-start", type=float, default=None)
    sub.add_argument("--t-end", type=float, default=None)
    sub.add_argument("--x-start", type=float, default=None)
    sub.add_argument("--x-end", type=float, default=None)
    sub.add_argument("--intercept", type=float, default=None)
    sub.add_argument("--slope", type=float, default=0.0)
    _add_common(sub)
    sub.set_defaults(func=_cmd_density)

    sub = subs.add_parser("converge",
                          help="boundary-approximation convergence study")
    sub.add_argument("--q", type=float, required=True)
    sub.add_argument("--d", type=float, required=True)
    sub.add_argument("--boundary", default=None,
                     help="boundary file used as the target function")
    sub.add_argument("--expr", default=None,
                     help="target boundary as an expression in t, "
                          "e.g. 't**2'")
    sub.add_argument("--pieces", required=True,
                     help="comma-separated piece counts, e.g. 2,4,8,16")
    sub.add_argument("--mode",
                     choices=("interpolate", "piecewise_constant"),
                     default="interpolate")
    sub.add_argument("--method", choices=("quad", "mc"), default="mc")
    sub.add_argument("--tol", type=float, default=None)
    sub.add_argument("--n-paths", type=int, default=None)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--workers", type=int, default=None,
                     help="worker bound for Monte-Carlo blocks (default 1)")
    _add_common(sub)
    sub.set_defaults(func=_cmd_converge)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        records = args.func(args)
    except QuadratureNonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotPositiveDefiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SlepianError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(records, args.format, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
