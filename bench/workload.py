"""One benchmark workload, run in a fresh process by `bench/run.py`.

    python3 bench/workload.py --workload quad-mix --seed 1 --seconds 36 \
        --trace 0 --out .bench_out/quad-mix.json

Imports the package, builds the workload's inputs from the seed, then
either

* `--trace 0`: calls the package in a closed loop from one client (the
  next call starts when the previous one returns), in whole passes over
  the workload's call list, for about `--seconds`, or
* `--trace 1`: runs a fixed call list untraced, traced and untraced
  again, and on mc-skeleton once more with one worker,

checks every output against an independent route (untimed) and writes
its raw results as JSON to `--out`.  MC calls use one worker per CPU
this process may run on.  A package error (`SlepianError`) in a timed
call or in a check's reference is recorded as a failed operation.
`--setup-only` stops after the inputs are built and reports only the
set-up timestamps.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import slepian_bcp as sb  # noqa: E402
from slepian_bcp import engine, numerics, oracle  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

T_IMPORTED = time.monotonic()

Z = 4.0                 # checks allow 4 standard errors
CONFIRM = 16            # a failed statistical check is re-run with 16x paths
CHECK_PATHS = 65_536
MIN_CALLS = 100
# quad-mix queries that first answer within RETIME_BELOW_S are run
# RETIMES more times, in separate sub-passes after the timed passes
RETIME_BELOW_S = 0.2
RETIMES = 2
WORKERS = len(os.sched_getaffinity(0))
# documented node-wise bias of the oracle at grid step 1e-3 (README, gate 6)
ORACLE_ALLOWANCE = 0.0117


def _plain(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _attempt(call, name, fn, *args, **kwargs):
    """(result, seconds) of one timed call; a package error is returned
    as the result instead of raised."""
    t0 = time.perf_counter()
    try:
        out = call(name, fn, *args, **kwargs)
    except sb.SlepianError as exc:
        out = exc
    return out, time.perf_counter() - t0


def _failed(spec: int, exc: Exception, latency: float) -> dict:
    return {"spec": spec, "error_type": type(exc).__name__,
            "latency": latency}


def tensor_elems(n: int, top: int) -> int:
    """Log-tensor elements bcp_quadrature computes on an n-interval
    partition when it stops at `top` nodes per axis: per level with N
    nodes, (n-1) N^3 for the inner axes and N^2 for the final pair.
    Computed from the engine's refinement ladder, not measured."""
    return sum((n - 1) * N ** 3 + N ** 2
               for N in engine._QUAD_LEVELS if N <= top)


def _statistical(diff: float, se: float, extra: float, rerun) -> bool:
    """|diff| within Z*se + extra, confirmed once on failure.

    A miss is re-checked with `rerun()`, which returns (diff, se) from an
    independent estimate with CONFIRM times the paths: a real defect
    fails both, a 4-sigma fluke (p ~ 6e-5 per check) does not.
    """
    if abs(diff) <= Z * se + extra:
        return True
    diff, se = rerun()
    return abs(diff) <= Z * se + extra


class QuadMix:
    """bcp_quadrature queries; see inputs.quad_mix."""

    work_unit = "log-tensor elements computed (n-1)N^3+N^2 per level"
    retimes = RETIMES

    def __init__(self, seed: int):
        self.seed = seed
        self.queries = inputs.quad_mix(sb, seed)
        self.rotation = list(range(len(self.queries)))
        # six blocks of ten slots hold the whole categorical mix
        self.trace_list = self.rotation[:60]

    def run(self, spec: int, k: int, call) -> dict:
        """One query, evaluated once.  A query that exhausts the
        refinement ladder did the work of every level."""
        q = self.queries[spec]
        est, latency = _attempt(call, "engine.bcp_quadrature",
                                sb.bcp_quadrature, q.boundary, q.partition,
                                q.tol)
        n = q.partition.n
        if isinstance(est, sb.QuadratureNonConvergenceError):
            rec = _failed(spec, est, latency)
            rec["work"] = tensor_elems(n, engine._QUAD_LEVELS[-1])
            return rec
        if isinstance(est, sb.SlepianError):
            return _failed(spec, est, latency)
        return {"spec": spec, "value": est.value, "error": est.error,
                "work": tensor_elems(n, est.n_nodes), "latency": latency}

    def check(self, rec: dict) -> bool:
        """Against conditioned MC on the minimal partition."""
        q = self.queries[rec["spec"]]

        def mc(paths, seed):
            est = sb.bcp_montecarlo(q.boundary, n_paths=paths, seed=seed,
                                    workers=WORKERS)
            return rec["value"] - est.value, est.error

        check_seed = 7_000_000 + 1000 * self.seed + rec["spec"]
        diff, se = mc(CHECK_PATHS, check_seed)
        return _statistical(diff, se, rec["error"],
                            lambda: mc(CONFIRM * CHECK_PATHS,
                                       check_seed + 500))


class McSkeleton:
    """bcp_montecarlo calls plus one coupled convergence_study."""

    work_unit = "skeleton values n_paths*(n+1)"
    retimes = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.calls, self.study = inputs.mc_skeleton(sb, seed)
        # the cheap RNG-bound calls (n <= 4) run twice per pass, so that a
        # run holds 100+ calls and p90 has ten samples beyond it
        self.rotation = [i for i, c in enumerate(self.calls)
                         for _ in range(2 if c.partition.n <= 4 else 1)]
        self.rotation.append(len(self.calls))
        self.trace_list = self.rotation * 2

    def _seed(self, spec: int) -> int:
        return 100 * self.seed + spec

    def run(self, spec: int, k: int, call) -> dict:
        if spec == len(self.calls):
            s = self.study
            rows, latency = _attempt(
                call, "engine.convergence_study", sb.convergence_study,
                s.f, s.params, s.pieces, method="mc", n_paths=s.n_paths,
                seed=self._seed(spec), workers=WORKERS)
            if isinstance(rows, sb.SlepianError):
                return _failed(spec, rows, latency)
            return {"spec": spec, "study": True,
                    "rows": [(r.n_pieces, r.estimate.value, r.estimate.error)
                             for r in rows],
                    "latency": latency}
        c = self.calls[spec]
        est, latency = _attempt(
            call, "engine.bcp_montecarlo", sb.bcp_montecarlo, c.boundary,
            c.partition, n_paths=c.n_paths, seed=self._seed(spec),
            workers=WORKERS)
        if isinstance(est, sb.SlepianError):
            return _failed(spec, est, latency)
        return {"spec": spec, "value": est.value, "error": est.error,
                "work": c.n_paths * (c.partition.n + 1), "latency": latency}

    def _against_quad(self, boundary, partition, value, se, seed) -> bool:
        ref = sb.bcp_quadrature(boundary, tol=1e-8)

        def rerun():
            est = sb.bcp_montecarlo(boundary, partition,
                                    n_paths=CONFIRM * CHECK_PATHS, seed=seed,
                                    workers=WORKERS)
            return est.value - ref.value, est.error
        return _statistical(value - ref.value, se, ref.error, rerun)

    def check(self, rec: dict) -> bool:
        """Against quadrature on the minimal partition; study rows with at
        most 4 pieces against quadrature of that approximant."""
        seed = 8_000_000 + 1000 * self.seed + rec["spec"]
        if rec.get("study"):
            s = self.study
            ok = True
            for pieces, value, se in rec["rows"]:
                if pieces <= 4:
                    approx = sb.approximate(s.f, s.params, pieces)
                    ok &= self._against_quad(approx, None, value, se,
                                             seed + pieces)
            return ok
        c = self.calls[rec["spec"]]
        return self._against_quad(c.boundary, c.partition, rec["value"],
                                  rec["error"], seed)


class OraclePaths:
    """empirical_bcp calls at grid step 1e-3, a fresh seed per call."""

    work_unit = "path-steps n_paths*n_steps"
    retimes = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.configs = inputs.oracle_paths(sb, seed)
        self.rotation = list(range(len(self.configs)))
        self.trace_list = self.rotation * 10
        self._refs: dict[int, float] = {}

    def _cfg(self, spec: int, k: int, scale: int = 1):
        c = self.configs[spec]
        return sb.SimConfig(c.boundary.params, c.grid_step,
                            scale * c.n_paths, 100_000 * self.seed + k)

    def run(self, spec: int, k: int, call) -> dict:
        cfg = self._cfg(spec, k)
        est, latency = _attempt(call, "oracle.empirical_bcp",
                                sb.empirical_bcp, cfg,
                                self.configs[spec].boundary)
        if isinstance(est, sb.SlepianError):
            return _failed(spec, est, latency)
        return {"spec": spec, "k": k, "value": est.value,
                "error": est.error, "work": cfg.n_paths * cfg.n_steps,
                "latency": latency}

    def reference(self, spec: int) -> float:
        if spec not in self._refs:
            self._refs[spec] = sb.bcp_quadrature(
                self.configs[spec].boundary, tol=1e-8).value
        return self._refs[spec]

    def allowance(self, spec: int) -> float:
        return ORACLE_ALLOWANCE * math.sqrt(self.configs[spec].grid_step
                                            / 1e-3)

    def check(self, rec: dict) -> bool:
        """One-sided against quadrature: the node-wise oracle may fall
        short by up to the documented discretization allowance."""
        spec = rec["spec"]
        ref = self.reference(spec)
        allow = self.allowance(spec)

        def ok(value, se):
            return (value <= ref + Z * se
                    and ref - value <= Z * se + allow)
        if ok(rec["value"], rec["error"]):
            return True
        est = sb.empirical_bcp(self._cfg(spec, 10**6 + rec["k"], CONFIRM),
                               self.configs[spec].boundary)
        return ok(est.value, est.error)

    def shortfall(self, records: list[dict]) -> tuple[float, float]:
        """Mean reference - estimate over the answered calls, with its
        se."""
        records = [r for r in records if "value" in r]
        gaps = [self.reference(r["spec"]) - r["value"] for r in records]
        var = sum(r["error"] ** 2 for r in records) / len(records)
        return statistics.fmean(gaps), math.sqrt(var / len(records))


WORKLOADS = {"quad-mix": QuadMix, "mc-skeleton": McSkeleton,
             "oracle-paths": OraclePaths}


def _timed(wl, specs, call) -> tuple[list[dict], float]:
    start = time.perf_counter()
    records = [wl.run(spec, k, call) for k, spec in enumerate(specs)]
    return records, time.perf_counter() - start


def closed_loop(wl, seconds: float) -> tuple[list[dict], list[tuple]]:
    """Whole passes over the rotation, one call at a time.

    A new pass starts only if it is expected to end within `seconds`, so
    every run measures the same mix of cheap and expensive calls; passes
    go on, however long they take, until MIN_CALLS calls have run, so
    that p90 always has ten samples beyond it.  Returns the records and
    one (first record, end record, wall) per pass.

    Then, on a workload with `retimes`, every call that answered within
    RETIME_BELOW_S is run again that many times, in sub-passes a few
    seconds apart; a re-run must give the same output.  The re-runs are
    not records: the pass walls and each record's `latency` hold only
    the timed passes, so the rates are those of the passes.

    Each record gets `call_latency`, the best time the run measured for
    its spec, that is for the same work: a quad-mix query with its
    re-runs, an mc-skeleton call (same inputs and seed in every pass),
    an oracle-paths configuration (its calls differ only in the seed,
    which does not change the work).  Contention from other tenants of a
    shared host only ever adds time, and in bursts, so the best of the
    repeats tracks the program where one evaluation tracks the host.
    """
    records, passes = [], []
    start = time.perf_counter()
    while True:
        first = len(records)
        t0 = time.perf_counter()
        for spec in wl.rotation:
            records.append(wl.run(spec, len(records), _plain))
        passes.append((first, len(records), time.perf_counter() - t0))
        wall = time.perf_counter() - start
        if (wall * (len(passes) + 1) / len(passes) > seconds
                and len(records) >= MIN_CALLS):
            break
    best: dict[int, float] = {}
    for rec in records:
        best[rec["spec"]] = min(rec["latency"],
                                best.get(rec["spec"], math.inf))
    cheap = [rec for rec in records if rec["latency"] < RETIME_BELOW_S]
    for _ in range(wl.retimes):
        for rec in cheap:
            again = wl.run(rec["spec"], rec.get("k", 0), _plain)
            best[rec["spec"]] = min(best[rec["spec"]], again["latency"])
            if (again.get("value"), again.get("error_type")) != (
                    rec.get("value"), rec.get("error_type")):
                rec["unstable"] = True
    for rec in records:
        rec["call_latency"] = best[rec["spec"]]
    return records, passes


def run_checks(wl, records: list[dict]) -> tuple[int, int]:
    """(package errors, failed checks) over the records, checked once per
    distinct output and charged to every record with that output.  A
    package error while computing a check's reference fails the check."""
    verdicts: dict[tuple, bool] = {}
    errors = bad = 0
    for rec in records:
        if "error_type" in rec:
            errors += 1
            continue
        if rec.get("unstable"):
            bad += 1
            continue
        key = (rec["spec"], rec.get("k"), rec.get("value"),
               repr(rec.get("rows")))
        if key not in verdicts:
            try:
                verdicts[key] = wl.check(rec)
            except sb.SlepianError:
                verdicts[key] = False
        bad += not verdicts[key]
    return errors, bad


def harrell_davis_median(xs: list[float]) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of the order
    statistics, weight i the Beta((n+1)/2, (n+1)/2) mass on ((i-1)/n, i/n].

    Where the calls' latencies spread over decades, neighbouring order
    statistics differ by 5-10%, so the sample median jumps whenever the
    seed or a stall reorders the calls around it; the weighted mean moves
    smoothly.
    """
    n = len(xs)
    a = 0.5 * (n + 1)
    u = np.linspace(0.0, 1.0, 64 * n + 1)[1:-1]
    log_pdf = (a - 1.0) * (np.log(u) + np.log1p(-u))
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(cdf[::64]) / cdf[-1]
    return float(weights @ np.sort(xs))


def end_to_end(records: list[dict], passes: list[tuple]) -> dict:
    """Latency p50 and p90 over all calls; rates as medians over passes.

    p50 is the Harrell-Davis median of the records' `call_latency` (see
    closed_loop).  p90 is the sample decile of their single times: the
    ten samples beyond it must be distinct evaluations, and the best
    times of mc-skeleton's and oracle-paths' few specs leave only one or
    two of them beyond it.  work_per_s
    divides the work by the wall of the calls that do it, timed in the
    passes: every query on quad-mix, the bcp_montecarlo calls (not the
    study) on mc-skeleton.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    single = [r["latency"] for r in records]
    p90 = statistics.quantiles(single, n=10)[8]
    rates, work_rates = [], []
    for first, end, wall in passes:
        done = [r for r in records[first:end] if "work" in r]
        rates.append((end - first) / wall)
        work_rates.append(sum(r["work"] for r in done)
                          / sum(r["latency"] for r in done))
    return {
        "calls": len(records),
        "passes": len(passes),
        "wall_s": sum(wall for _, _, wall in passes),
        "calls_per_s": statistics.median(rates),
        "latency_p50_ms": 1e3 * harrell_davis_median(
            [r["call_latency"] for r in records]),
        "latency_p90_ms": 1e3 * p90,
        "beyond_p90": sum(x > p90 for x in single),
        "specs": len({r["spec"] for r in records}),
        "work": sum(r.get("work", 0) for r in records),
        "work_per_s": statistics.median(work_rates),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        # where the process's time went, for reading a slow run
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "minor_faults": usage.ru_minflt,
    }


def _count_normals(args, kwargs, result):
    return int(args[1])


def _count_elems(args, kwargs, result):
    return int(np.size(result))


def _count_nodes(args, kwargs, result):
    return int(args[2])


def _count_steps(args, kwargs, item):
    paths, nodes = item[1].shape
    return paths * (nodes - 1)


def install(tracer: Tracer) -> None:
    """Rebind the package names the calling modules imported."""
    tracer.patch(engine, "noncross_affine_product",
                 "bridge.noncross_affine_product", _count_elems)
    tracer.patch(engine, "gauss_legendre_on", "numerics.gauss_legendre_on",
                 _count_nodes)
    tracer.patch(engine, "cholesky", "numerics.cholesky")
    tracer.patch(engine, "covariance_matrix", "process.covariance_matrix")
    tracer.patch(engine, "approximate", "boundary.approximate")
    tracer.patch(oracle, "simulate_paths", "oracle.simulate_paths",
                 _count_steps, iterate=True)
    tracer.patch(numerics.GaussianStream, "normals", "numerics.normals",
                 _count_normals)

    class TracedPool(engine.ThreadPoolExecutor):
        """Charges each parallel MC block to a span in its worker thread."""

        def map(self, fn, *iterables, **kwargs):
            return super().map(
                lambda *a: tracer.call("engine.mc_block", fn, *a),
                *iterables, **kwargs)
    tracer.replace(engine, "ThreadPoolExecutor", TracedPool)


def quad_levels(tracer: Tracer) -> tuple[int, int, int, int]:
    """(queries, levels, tensor elements, exp calls) from the trace.

    Each quadrature level calls gauss_legendre_on once per partition
    time with its node count N, so the N ladder of a query is read off
    its child spans.  Computed, not measured: one level with n+1 axes
    builds (n-1) N^3 log-tensor elements and exponentiates those plus
    the N^2 of the final pair contraction.
    """
    ladder: dict[int, dict[int, int]] = {}
    for span in tracer.spans:
        if span.name == "numerics.gauss_legendre_on":
            per = ladder.setdefault(span.parent, {})
            per[span.count] = per.get(span.count, 0) + 1
    queries = sum(1 for s in tracer.spans if s.name == "engine.bcp_quadrature")
    levels = elems = exps = 0
    for per in ladder.values():
        for nodes, axes in per.items():
            levels += 1
            elems += (axes - 2) * nodes ** 3
            exps += (axes - 2) * nodes ** 3 + nodes ** 2
    return queries, levels, elems, exps


def per_layer(wl, tracer: Tracer, wall_untraced: float, wall_traced: float,
              untraced: list[dict], wall_one: float | None) -> dict:
    table = tracer.summary()

    def row(name: str) -> dict:
        return table.get(name, {"calls": 0, "self_s": 0.0, "count": 0})
    root_self = row("bench.pass")["self_s"]
    layer_self = sum(v["self_s"] for k, v in table.items()
                     if k != "bench.pass")
    normals = row("numerics.normals")
    queries, levels, elems, exps = quad_levels(tracer)
    mc = [r for r in untraced if "work" in r and isinstance(wl, McSkeleton)]
    studies = [r for r in untraced if r.get("study")]
    if isinstance(wl, OraclePaths):
        shortfall, shortfall_se = wl.shortfall(untraced)
    else:
        shortfall = shortfall_se = 0.0
    threads = {s.thread for s in tracer.spans
               if s.name != "engine.convergence_study"
               and _under(tracer, s, "engine.convergence_study")}
    mc_wall = sum(r["latency"] for r in mc)
    return {
        "engine.quad_self_s": row("engine.bcp_quadrature")["self_s"],
        "engine.quad_levels_per_query": levels / queries if queries else 0.0,
        "engine.quad_tensor_elems": elems,
        "engine.quad_exp_calls": exps,
        "numerics.gauss_legendre_on_s":
            row("numerics.gauss_legendre_on")["self_s"],
        "numerics.gauss_legendre_on_calls":
            row("numerics.gauss_legendre_on")["calls"],
        "bridge.noncross_affine_product_s":
            row("bridge.noncross_affine_product")["self_s"],
        "bridge.noncross_affine_product_calls":
            row("bridge.noncross_affine_product")["calls"],
        "bridge.noncross_affine_product_elems":
            row("bridge.noncross_affine_product")["count"],
        "numerics.normals_s": normals["self_s"],
        "numerics.normals_count": normals["count"],
        "numerics.ns_per_normal":
            1e9 * normals["self_s"] / normals["count"]
            if normals["count"] else 0.0,
        "engine.mc_self_s": row("engine.bcp_montecarlo")["self_s"]
        + row("engine.mc_block")["self_s"],
        "numerics.cholesky_s": row("numerics.cholesky")["self_s"],
        "process.covariance_matrix_s":
            row("process.covariance_matrix")["self_s"],
        "engine.converge_self_s": row("engine.convergence_study")["self_s"],
        "engine.converge_threads_seen": len(threads),
        "boundary.approximate_s": row("boundary.approximate")["self_s"],
        "engine.converge_s": sum(r["latency"] for r in studies),
        "engine.mc_s_at_se_1e-3": sum(r["latency"] * (r["error"] / 1e-3) ** 2
                                      for r in mc),
        "engine.mc_parallel_efficiency":
            wall_one / (WORKERS * mc_wall) if wall_one else 0.0,
        "oracle.simulate_paths_self_s":
            row("oracle.simulate_paths")["self_s"],
        "oracle.empirical_bcp_self_s": row("oracle.empirical_bcp")["self_s"],
        "oracle.path_steps": row("oracle.simulate_paths")["count"],
        "oracle.shortfall": shortfall,
        "oracle.shortfall_se": shortfall_se,
        "trace.overhead_share": wall_traced / wall_untraced - 1.0,
        "trace.harness_share": root_self / wall_traced,
        "trace.busy_per_wall": layer_self / (wall_traced - root_self),
    }


def _under(tracer: Tracer, span, name: str) -> bool:
    while span.parent is not None:
        span = tracer.spans[span.parent]
        if span.name == name:
            return True
    return False


def traced_run(wl) -> tuple[list[dict], dict, list]:
    """Untraced, traced, untraced again: the untraced wall is the mean of
    the two, which cancels warm-up and linear drift from the overhead."""
    untraced, wall_before = _timed(wl, wl.trace_list, _plain)
    tracer = Tracer()
    install(tracer)
    try:
        root = tracer.open("bench.pass")
        traced, wall_t = _timed(wl, wl.trace_list, tracer.call)
        tracer.close(root)
    finally:
        tracer.restore()
    wall_u = 0.5 * (wall_before + _timed(wl, wl.trace_list, _plain)[1])
    wall_one = None
    if isinstance(wl, McSkeleton):
        specs = [s for s in wl.trace_list if s < len(wl.calls)]
        _, wall_one = _timed(
            wl, specs, lambda name, fn, *a, **kw:
            fn(*a, **{**kw, "workers": 1}))
    same = all(a.get("value") == b.get("value")
               and a.get("rows") == b.get("rows")
               for a, b in zip(untraced, traced))
    metrics = per_layer(wl, tracer, wall_u, wall_t, untraced, wall_one)
    metrics["trace.untraced_wall_s"] = wall_u
    metrics["trace.traced_wall_s"] = wall_t
    metrics["trace.same_outputs"] = same
    return untraced, metrics, tracer.dump()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    result = {"t_imported": T_IMPORTED, "t_built": time.monotonic()}
    if not args.setup_only:
        if args.trace:
            records, metrics, spans = traced_run(wl)
            result["spans"] = spans
        else:
            records, passes = closed_loop(wl, args.seconds)
            metrics = end_to_end(records, passes)
        errors, bad = run_checks(wl, records)
        if args.trace and not metrics.pop("trace.same_outputs"):
            bad += 1
        result.update(metrics=metrics, attempted=len(records),
                      calls=[[r["spec"], r["latency"], "error_type" not in r]
                             for r in records],
                      errors=errors, bad_checks=bad, workers=WORKERS,
                      work_unit=wl.work_unit, versions={
                          "python": sys.version.split()[0],
                          "numpy": np.__version__,
                          "scipy": _version("scipy")})
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _version(dist: str) -> str:
    from importlib.metadata import PackageNotFoundError, version
    try:
        return version(dist)
    except PackageNotFoundError:
        return "absent"


if __name__ == "__main__":
    sys.exit(main())
