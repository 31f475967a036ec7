"""The slepian-bcp benchmark: one workload, one run, one result line.

    python3 bench/run.py --workload quad-mix --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  Each run

1. starts a few set-up probes, fresh interpreters that import the
   package and build the workload's inputs, and reports the median time
   from spawn to inputs built as `setup_s`;
2. runs the workload in its own fresh process (`bench/workload.py`),
   closed loop from a single client, in whole passes over its call list
   for about `--seconds`, with BLAS and OpenMP pinned to one thread so
   MC workers x BLAS threads <= nproc;
3. with `--trace 1`, instead replays a fixed call list untraced, traced
   and untraced again, and adds the import and cold-CLI probes (no
   set-up probes);
4. checks every output against an independent route (untimed; see
   `workload.py`), prints one line per metric with its unit, and as the
   last line one JSON object with `correct`, `attempted`, `failed` and
   `metrics`.

The metric names and units are read from BENCHMARK.json.  The run's
environment (nproc, versions, git HEAD, seed, thread settings), every
metric and, for traced runs, every span are written to
`.bench_out/<workload>-seed<seed>-trace<t>.json`.

End-to-end metrics mean the same thing on every workload; what one call
and one unit of work are depends on the workload:

    workload      call                     unit of work (work_per_s)
    quad-mix      bcp_quadrature           a log-tensor element computed,
                                           (n-1)N^3+N^2 per level run
    mc-skeleton   bcp_montecarlo or the    a skeleton value n_paths*(n+1),
                  convergence_study        over the bcp_montecarlo calls
    oracle-paths  empirical_bcp            a path-step n_paths*n_steps

so `calls_per_s`, `latency_p50_ms` and `latency_p90_ms` on quad-mix are
the query rate and latencies, `work_per_s` on mc-skeleton the skeleton
values per second and on oracle-paths the path-steps per second, and
`ok_share` is 1 - failed/attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("quad-mix", "mc-skeleton", "oracle-paths")
SETUP_PROBES = 5
COLD_PROBES = 3
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
COLD_QUERY = ["-m", "slepian_bcp.cli", "compute", "--q", "1", "--d", "2",
              "--const-boundary", "1", "--method", "quad"]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def git_head() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown (" + name + ")"


class Deadline:
    """Whole-run time budget shared by every child process."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its time budget")
        return left


def run_child(args: list[str], deadline: Deadline) -> float:
    """Run a Python child to completion; returns its spawn time.

    subprocess.run kills and reaps the child if it outlives the deadline.
    """
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=deadline.left())
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])} exited with "
                           f"{proc.returncode}:\n{proc.stderr.strip()}")
    return t_spawn


def workload_child(opts, out: Path, deadline: Deadline,
                   setup_only: bool = False) -> tuple[dict, float]:
    """Run bench/workload.py; returns its result and its set-up time."""
    args = [str(BENCH / "workload.py"), "--workload", opts.workload,
            "--seed", str(opts.seed), "--seconds", str(opts.seconds),
            "--trace", str(opts.trace), "--out", str(out)]
    t_spawn = run_child(args + (["--setup-only"] if setup_only else []),
                        deadline)
    result = json.loads(out.read_text(encoding="utf-8"))
    return result, result["t_built"] - t_spawn


def import_probe(deadline: Deadline) -> tuple[float, float]:
    """(package import s, scipy import s) from `python -X importtime`.

    The package figure is the cumulative time of its top-level import;
    the scipy figure sums the self time of every scipy module.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import slepian_bcp"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=deadline.left())
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip())
    total = scipy = 0.0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            own = float(parts[0].split(":")[1])
            cumulative = float(parts[1])
        except ValueError:
            continue        # the header line
        name = parts[2].strip()
        if name == "slepian_bcp":
            total = cumulative * 1e-6
        if name == "scipy" or name.startswith("scipy."):
            scipy += own * 1e-6
    return total, scipy


def cold_query(deadline: Deadline) -> float:
    """Wall time of one CLI quadrature query in a fresh interpreter."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, *COLD_QUERY], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=deadline.left())
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip())
    value = json.loads(proc.stdout.splitlines()[-1])["value"]
    if not 0.0 < value < 1.0:
        raise RuntimeError(f"cold CLI query returned {value}")
    return wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = ap.parse_args(argv)
    if opts.seed < 0 or opts.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "slepian_bcp" / "__init__.py").is_file():
        print("error: no package source at src/slepian_bcp; run from a "
              "source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    try:
        return measure(opts, spec)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def measure(opts, spec: dict) -> int:
    wanted = spec["per_layer" if opts.trace else "end_to_end"]
    deadline = Deadline(DEADLINE_S)
    nproc = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)
    name = f"{opts.workload}-seed{opts.seed}"
    record_path = OUT / f"{name}-trace{opts.trace}.json"
    setups = []
    for i in range(0 if opts.trace else SETUP_PROBES):
        probe = OUT / f"{name}-setup{i}.json"
        setups.append(workload_child(opts, probe, deadline,
                                     setup_only=True)[1])
        probe.unlink()
    result, own_setup = workload_child(opts, record_path, deadline)
    setups.append(own_setup)
    raw = result["metrics"]
    attempted = result["attempted"]
    failed = result["errors"] + result["bad_checks"]

    if opts.trace:
        imports = [import_probe(deadline) for _ in range(COLD_PROBES)]
        raw["imports.total_s"] = statistics.median(t for t, _ in imports)
        raw["imports.scipy_s"] = statistics.median(s for _, s in imports)
        raw["cli.cold_query_s"] = statistics.median(
            cold_query(deadline) for _ in range(COLD_PROBES))
    else:
        raw["setup_s"] = statistics.median(setups)
        raw["ok_share"] = 1.0 - failed / attempted

    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]}
               for m in wanted}
    env = {"nproc": nproc, "workers": result["workers"], **result["versions"],
           "git_head": git_head(), "seed": opts.seed,
           "seconds": opts.seconds, "threads": PINNED}
    result.update(env=env, setup_probes_s=setups, final=metrics)
    record_path.write_text(json.dumps(result), encoding="utf-8")

    print(f"# {opts.workload} seed={opts.seed} trace={opts.trace}: "
          f"{attempted} calls, {result['errors']} package errors, "
          f"{result['bad_checks']} failed checks; work unit: "
          f"{result['work_unit']}")
    print("# env " + json.dumps(env, sort_keys=True))
    if opts.trace:
        traced = raw["trace.traced_wall_s"]
        harness = raw["trace.harness_share"] * traced
        print(f"# accounting: traced wall {traced:.3f} s = harness "
              f"{harness:.3f} s + package calls {traced - harness:.3f} s, "
              f"whose layer self times sum to "
              f"{raw['trace.busy_per_wall'] * (traced - harness):.3f} s "
              f"(busy/wall {raw['trace.busy_per_wall']:.3f}); untraced "
              f"wall {raw['trace.untraced_wall_s']:.3f} s, overhead "
              f"{raw['trace.overhead_share']:+.3f}")
    else:
        print(f"# latency samples {raw['calls']} "
              f"({raw['specs']} distinct specs), "
              f"{raw['beyond_p90']} beyond p90; {raw['passes']} passes, "
              f"loop wall {raw['wall_s']:.3f} s; setup probes "
              + " ".join(f"{s:.3f}" for s in setups) + " s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"# record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": result["bad_checks"] == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
