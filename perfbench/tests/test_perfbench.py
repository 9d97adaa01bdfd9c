"""Tests of the benchmark itself: span arithmetic, checks, reduced-size runs.

Run from the root of the checkout:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import nmsir as nm  # noqa: E402
import nmsir.cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- spans ------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("cli.main", 0.0, 10.0),
        Span("simulate.run_ensemble", 1.0, 7.0, parent=0),
        Span("network.generate_regular", 2.0, 3.0, parent=1),
        Span("simulate.run_single", 3.0, 6.5, parent=1),
        Span("solvers.solve_pairwise", 8.0, 9.5, parent=0),
    ]
    assert tracer.self_times(spans) == pytest.approx([2.5, 1.5, 1.0, 3.5, 1.5])
    # Self times partition the outermost span.
    assert sum(tracer.self_times(spans)) == pytest.approx(spans[0].duration)


def test_tracer_links_nested_calls_and_marks_errors():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap("solvers.solve_pairwise", lambda x: x + 1)

    def boom():
        raise ValueError("no")

    outer = tr.wrap("cli.main", lambda: inner(1) + inner(2))
    failing = tr.wrap("solvers.solve_meanfield", boom)
    assert outer() == 5
    with pytest.raises(ValueError):
        failing()
    names = [(s.name, s.parent, s.duration, s.error) for s in tr.spans]
    assert names == [
        ("cli.main", -1, 5.0, False),
        ("solvers.solve_pairwise", 0, 1.0, False),
        ("solvers.solve_pairwise", 0, 1.0, False),
        ("solvers.solve_meanfield", -1, 1.0, True),
    ]
    metrics = tracer.layer_metrics(tr.spans, wall_s=10.0)
    assert metrics["cli.main.self_s"] == pytest.approx(3.0)
    assert metrics["solvers.errors"] == 1
    assert metrics["solvers.share"] == pytest.approx(0.3)


def test_absent_functions_read_zero():
    metrics = tracer.layer_metrics([], wall_s=1.0)
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(metrics) <= declared
    assert all(value == 0 for value in metrics.values())


def test_install_wraps_by_identity_and_restores():
    original = nm.solve_pairwise
    special = nmsir.cli._SPECIAL_SOLVERS["special:gamma"]
    to_csv = nm.Trajectory.__dict__["to_csv"]
    tr = Tracer()
    restore = tracer.install(tr)
    try:
        assert nm.solve_pairwise is not original
        assert nmsir.cli.solve_pairwise is nm.solve_pairwise
        wrapped = nmsir.cli._SPECIAL_SOLVERS["special:gamma"]
        assert wrapped[0] is not special[0] and wrapped[1:] == special[1:]
        params = nm.EpidemicParams(tau=0.35, dist=nm.Exponential(2 / 3), t_end=2.0)
        nm.solve_pairwise(params, num_nodes=1000, degree=15)
    finally:
        restore()
    assert nm.solve_pairwise is original
    assert nmsir.cli._SPECIAL_SOLVERS["special:gamma"] == special
    assert nm.Trajectory.__dict__["to_csv"] is to_csv
    assert [s.name for s in tr.spans] == ["solvers.solve_pairwise"]
    assert tr.spans[0].counts == {"steps": 200}


# -- checks -----------------------------------------------------------------


def _fig1_inputs(tmp_path, peaks):
    """A compare summary whose pairwise and ensemble rows agree closely."""
    inputs = workloads.prepare_fig1(ROOT, 11, False, tmp_path)
    lines = ["# meta: command=compare",
             "dist,method,peak,peak_time,final_size,peak_rel_err,final_size_rel_err"]
    for kind, peak in peaks.items():
        spec = workloads.LAWS[kind][0]
        final = {"exp": 998.2, "gamma": 999.3, "uniform": 999.5}[kind]
        lines.append(f'"{spec}",simulation,{peak},1.8,{final},0.0,0.0')
        lines.append(f'"{spec}",pairwise,{peak * 1.01},1.8,{final},0.01,0.0001')
        lines.append(f'"{spec}",meanfield,{peak * 1.05},1.6,999.62,0.05,0.001')
    (tmp_path / "compare_summary.csv").write_text("\n".join(lines) + "\n")
    return inputs


def test_fig1_check_passes_ordered_peaks(tmp_path):
    inputs = _fig1_inputs(tmp_path, {"exp": 577.0, "gamma": 772.0, "uniform": 918.0})
    verdict = workloads.check_fig1(inputs, {"exit_code": 0})
    assert verdict.failures == []
    assert 0 < verdict.ref_err < 1e-3


def test_fig1_check_fails_swapped_law_ordering(tmp_path):
    inputs = _fig1_inputs(tmp_path, {"exp": 918.0, "gamma": 772.0, "uniform": 577.0})
    verdict = workloads.check_fig1(inputs, {"exit_code": 0})
    assert len(verdict.failures) == 2  # ensemble and pairwise orderings


def test_fig1_check_fails_exit_code_that_disagrees_with_gates(tmp_path):
    inputs = _fig1_inputs(tmp_path, {"exp": 577.0, "gamma": 772.0, "uniform": 918.0})
    assert workloads.check_fig1(inputs, {"exit_code": 3}).failures
    assert workloads.check_fig1(inputs, {"exit_code": 2}).failures


def _traj(I, R):
    t = np.linspace(0.0, 1.0, len(I))
    S = workloads.NUM_NODES - I - R
    return nm.Trajectory(t, S, I.copy(), R.copy(), SI=I * 3.0, SS=S * 15.0)


def _fine_outcome(perturb=0.0):
    I = np.array([5.0, 300.0, 600.0, 200.0, 10.0])
    R = np.array([0.0, 50.0, 300.0, 790.0, 985.0])
    codes, trajs = {}, {}
    for law, (_, special, _) in workloads.LAWS.items():
        for model in ("pairwise", "meanfield", special):
            codes[(law, model)] = 0
        trajs[(law, "pairwise")] = _traj(I * (1 + perturb), R)
        trajs[(law, special)] = _traj(I, R)
    return {"exit_codes": codes, "trajectories": trajs}


def test_fine_check_fails_perturbed_reference():
    assert workloads.check_fine({}, _fine_outcome()).failures == []
    verdict = workloads.check_fine({}, _fine_outcome(perturb=2e-2))
    assert len(verdict.failures) == 4  # every law misses its tolerance
    assert verdict.ref_err == pytest.approx(2e-2, rel=1e-6)


def test_fine_check_fails_broken_conservation_and_exit_code():
    outcome = _fine_outcome()
    outcome["trajectories"][("exp", "pairwise")].R[-1] += 1e-3
    outcome["exit_codes"][("gamma", "meanfield")] = 2
    failures = workloads.check_fine({}, outcome).failures
    assert len(failures) == 2


def test_sweep_check_counts_failures_per_operation():
    inputs = workloads.prepare_sweep(ROOT, 5, True, None)
    outcome = workloads.run_sweep(inputs)
    verdict = workloads.check_sweep(inputs, outcome)
    assert verdict.attempted == len(inputs["cases"]) and verdict.failures == []
    assert 0 < verdict.ref_err < workloads.FINAL_SIZE_RELATION_TOL

    broken = outcome["results"][0]
    pw = broken["solves"][0]
    pw.I[3] = -1e-6
    outcome["results"][1] = {"params": outcome["results"][1]["params"], "error": "SolverError: x"}
    assert len(workloads.check_sweep(inputs, outcome).failures) == 2


def test_sweep_taus_cover_the_range_for_every_seed():
    for seed in (0, 1, 2):
        taus = sorted(p.tau for p in workloads.prepare_sweep(ROOT, seed, False, None)["cases"])
        assert 0.1 <= taus[0] < 0.118 and 0.982 < taus[-1] <= 1.0


# -- whole runs -------------------------------------------------------------


def _run(cwd, *args, timeout=60):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", ["fig1-compare", "fine-solve", "param-sweep"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_at_reduced_size(workload, trace):
    start = time.monotonic()
    proc = _run(ROOT, "--workload", workload, "--seed", "2", "--seconds", "1",
                "--trace", trace, "--small")
    assert time.monotonic() - start < 60
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pass-*"))
    proc = _run(tmp_path, "--workload", "fine-solve", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
