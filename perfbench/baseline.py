"""Record a baseline: every workload untraced and traced, gathered in one file.

    python3 perfbench/baseline.py --seed 11 --seconds 30 --out perfbench/baseline/BENCH_1.json

Runs ``run.py`` for each workload with ``--trace 0`` and ``--trace 1``, keeps
the full records it writes under ``perfbench/results/`` (environment, units,
directions, raw samples) and prints the end-to-end table and one per-layer
table per workload in markdown.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, WORKLOADS


def record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                    str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return json.loads((HERE / "results" / f"{workload}_seed{seed}_trace{trace}.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = {"workloads": {}}
    for workload in WORKLOADS:
        plain, traced = (record(workload, args.seed, args.seconds, t) for t in (0, 1))
        bench.setdefault("env", {k: v for k, v in plain["env"].items() if k not in ("workload", "trace")})
        bench["workloads"][workload] = {
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "samples": plain["samples"] | {"traced_wall_s": traced["samples"]["traced_wall_s"]},
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")

    rows = bench["workloads"]
    first = rows[WORKLOADS[0]]
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("| --- | --- |" + " --- |" * len(WORKLOADS))
    for name, m in first["end_to_end"].items():
        cells = " | ".join(f"{rows[w]['end_to_end'][name]['value']:.4g}" for w in WORKLOADS)
        print(f"| {name} | {m['unit']} | {cells} |")
    fails = " | ".join(f"{rows[w]['failed']}/{rows[w]['attempted']}" for w in WORKLOADS)
    print(f"| fail_frac | failed/attempted | {fails} |")
    print()
    print("| per-layer metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("| --- | --- |" + " --- |" * len(WORKLOADS))
    for name, m in first["per_layer"].items():
        cells = " | ".join(f"{rows[w]['per_layer'][name]['value']:.4g}" for w in WORKLOADS)
        print(f"| {name} | {m['unit']} | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
