"""One benchmark pass in a fresh interpreter; ``run.py`` starts it.

The process imports nmsir and builds the workload's inputs (the set-up that
``setup_s`` times from process start), runs one pass, checks its outputs and
prints one JSON record as the last line of standard output.  With
``--trace 1`` every public nmsir function is wrapped and the record carries
the per-layer metrics; otherwise only the solver entry points are wrapped, to
time each solve.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads  # imports nmsir: part of the timed set-up
from tracer import LAYERS, Tracer, install, layer_metrics

# Untraced passes wrap only these, to give per-solve latency.
SOLVE_LAYERS = ("solvers", "reference")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    source = Path(workloads.nm.__file__).resolve()
    if root / "src" not in source.parents:
        print(f"nmsir was imported from {source}, not from {root / 'src'}", file=sys.stderr)
        return 2

    prepare, run, check = workloads.WORKLOADS[args.workload]
    inputs = prepare(root, args.seed, args.small, Path(args.out))
    record = {"ready": time.monotonic()}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = Tracer()
    restore = install(tracer, LAYERS if args.trace else SOLVE_LAYERS)
    start, cpu_start = time.perf_counter(), time.process_time()
    outcome = run(inputs)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    restore()

    verdict = check(inputs, outcome)
    record.update(
        wall_s=wall,
        cpu_s=cpu,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=verdict.attempted,
        failures=verdict.failures,
        ref_err=verdict.ref_err,
        solve_ms=[
            s.duration * 1e3 for s in tracer.spans
            if s.layer in SOLVE_LAYERS and s.name.partition(".")[2].startswith("solve_")
            and not s.error
        ],
    )
    if args.trace:
        record["layers"] = layer_metrics(tracer.spans, wall)
        record["layers"].update((k, verdict.counts.get(k, 0)) for k in workloads.COUNTS)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
