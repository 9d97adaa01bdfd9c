"""nmsir benchmark: one workload, several passes, every metric with its unit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig1-compare --seed 11 --seconds 30 --trace 0

Each pass runs in a fresh single-threaded interpreter (``worker.py``) with
BLAS/OpenMP threads pinned to 1 and ``src/`` of this checkout on the path.
Passes repeat until ``--seconds`` is used up, with at least ``MIN_PASSES``
untraced ones, and each metric is the median over passes.  ``--trace 0``
reports the end-to-end metrics named in ``BENCHMARK.json``.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics,
including the tracing overhead.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record, with the
environment, every metric's unit and direction and the raw samples, goes to
``perfbench/results/``.

The exit code is 0 when the benchmark ran, whether or not checks failed, and
non-zero without a result when it could not run (no ``src/nmsir`` or demo
config in the checkout, or a pass that crashed or timed out).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig1-compare", "fine-solve", "param-sweep")
MIN_PASSES = 3
SETUP_SAMPLES = 7
PASS_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def spawn(workload: str, seed: int, trace: int, small: bool, setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its record."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{v: "1" for v in THREAD_VARS})
    out = Path(tempfile.mkdtemp(prefix=".pass-", dir=HERE))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--trace", str(trace)]
    cmd += ["--small"] * small + ["--setup-only"] * setup_only
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(out, ignore_errors=True)
    ended = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - start
    record["elapsed_s"] = ended - start
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    """Run passes until the time is used up; return them grouped by kind."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        kind = 1 if trace and len(traced) < len(plain) else 0
        rec = spawn(workload, seed, kind, small)
        (traced if kind else plain).append(rec)
        done = len(plain) >= (1 if trace else MIN_PASSES) and (traced or not trace)
        if done:
            next_cost = statistics.median(r["elapsed_s"] for r in plain + traced)
            if time.monotonic() - start + next_cost > seconds:
                break
    setups = [r["setup_s"] for r in plain + traced]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, 0, small, setup_only=True)["setup_s"])
    return {"plain": plain, "traced": traced, "setups": setups}


def end_to_end(runs: dict) -> dict[str, float]:
    plain = runs["plain"]
    solve_ms = [ms for r in plain for ms in r["solve_ms"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(runs["setups"]),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        "solve_ms_p50": percentile(solve_ms, 50),
        "solve_ms_p90": percentile(solve_ms, 90),
        "ref_err": max(r["ref_err"] for r in plain),
    }


def per_layer(runs: dict) -> dict[str, float]:
    traced, plain = runs["traced"], runs["plain"]
    out = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_frac"] = traced_wall / statistics.median(r["wall_s"] for r in plain) - 1
    return out


def environment(args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else "unknown"
    except (OSError, subprocess.TimeoutExpired, IndexError):
        commit = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: "1" for v in THREAD_VARS},
        "commit": commit,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for needed in (ROOT / "src" / "nmsir" / "__init__.py", ROOT / "demos" / "fig1.cfg"):
            if not needed.is_file():
                raise BenchError(f"{needed} is missing: run from a full nmsir checkout")
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
        values = per_layer(runs) if args.trace else end_to_end(runs)
        declared = spec["per_layer" if args.trace else "end_to_end"]
        mismatch = set(values) ^ {m["name"] for m in declared}
        if mismatch:
            raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    passes = runs["plain"] + runs["traced"]
    failures = [f for r in passes for f in r["failures"]]
    attempted = sum(r["attempted"] for r in passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"], "better": m["better"]}
               for m in declared}
    env = environment(args)
    record = {
        "env": env,
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures,
        "samples": {
            "wall_s": [r["wall_s"] for r in runs["plain"]],
            "cpu_s": [r["cpu_s"] for r in runs["plain"]],
            "solve_ms": [ms for r in runs["plain"] for ms in r["solve_ms"]],
            "traced_wall_s": [r["wall_s"] for r in runs["traced"]],
            "setup_s": runs["setups"],
        },
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}{'_small' if args.small else ''}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    for key, m in metrics.items():
        print(f"{args.workload} {key:40s} {m['value']:<14.6g} {m['unit']:6s} ({m['better']} is better)")
    print(f"{args.workload} {'fail_frac':40s} {record['fail_frac']:<14.6g} frac   "
          f"({len(failures)} of {attempted} operations)")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
