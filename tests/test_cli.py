"""CLI harness: config handling, determinism, meta reconstruction, exit codes."""

import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nmsir as nm
from nmsir import cli
from nmsir.cli import build_config, config_from_meta, main, read_config_file
from nmsir.trajectory import Trajectory, parse_meta

FIG1_CFG = Path(__file__).resolve().parent.parent / "demos" / "fig1.cfg"

SMALL = [
    "--set", "network.N=200",
    "--set", "network.n=8",
    "--set", "simulation.runs=3",
    "--set", "epidemic.t_end=12",
]


def test_build_config_defaults_and_aliases():
    cfg = build_config({})
    assert cfg.network_num_nodes == 1000
    assert cfg.network_degree == 15
    cfg = build_config({"network.N": "300", "epidemic.I0": "7"})
    assert cfg.network_num_nodes == 300
    assert cfg.epidemic_initial_infected == 7


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown configuration key"):
        build_config({"network.size": "10"})


def test_removed_corrector_key(tmp_path, capsys):
    # solver.corrector_iters is no configuration key: setting it is an error,
    # while a meta line that still carries it rebuilds its configuration.
    assert main(["solve", "--set", "solver.corrector_iters=3", "--out", str(tmp_path)]) == 2
    assert "unknown configuration key" in capsys.readouterr().err
    old_header = (
        "# meta: command=solve compare.distributions= compare.enforce=true "
        "compare.gnuplot=false epidemic.I0=5 epidemic.dist=exp:rate=0.6667 "
        "epidemic.t_end=1.0 epidemic.tau=0.35 network.N=1000 "
        "network.fresh_graph_per_run=true network.graph_seed=1 network.n=15 "
        "simulation.base_seed=42 simulation.dt_out=0.1 simulation.runs=100 "
        "simulation.save_runs=false solver.corrector_iters=3 solver.h=0.01 model=pairwise"
    )
    cfg = config_from_meta(parse_meta(old_header))
    assert cfg == build_config({"epidemic.t_end": "1.0"})


def test_meta_without_configuration_keys_is_refused(tmp_path):
    # A library solve's meta echoes the solve, not a configuration; rebuilding
    # from it must fail rather than return the defaults (tau = 0.35, N = 1000).
    p = nm.EpidemicParams(tau=0.9, dist=nm.FixedDuration(1.5), initial_infected=50, t_end=3.0)
    nm.solve_pairwise(p, num_nodes=400, degree=6).to_csv(tmp_path / "pw.csv")
    first = (tmp_path / "pw.csv").read_text().split("\n", 1)[0]
    with pytest.raises(cli.ConfigError, match="no configuration key"):
        config_from_meta(parse_meta(first))


def test_config_file_and_override_precedence(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# example experiment\n"
        "network.N = 400\n"
        "network.n = 10\n"
        "epidemic.tau = 0.2   # overridden below\n"
    )
    pairs = read_config_file(cfg_file)
    assert pairs == {"network.N": "400", "network.n": "10", "epidemic.tau": "0.2"}
    rc = main(
        ["graph-gen", "--config", str(cfg_file), "--set", "network.N=60",
         "--set", "network.n=4", "--out", str(tmp_path),
         "--edges-out", str(tmp_path / "g.txt")]
    )
    assert rc == 0
    loaded = nm.load_edge_list(tmp_path / "g.txt")
    assert loaded.num_nodes == 60 and loaded.degree == 4


def test_validation_errors_exit_2(tmp_path, capsys):
    assert main(["simulate", "--set", "simulation.runs=0", "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--set", "epidemic.dist=", "--out", str(tmp_path)]) == 2
    assert (
        main(
            ["solve", "--model", "special:markovian",
             "--set", "epidemic.dist=gamma:shape=3,rate=2", "--out", str(tmp_path)]
        )
        == 2
    )
    capsys.readouterr()


def test_prefix_with_path_separator_exits_2(tmp_path, capsys):
    # A prefix names files inside --out; a directory in it is rejected up
    # front instead of failing at the first write.
    for prefix in ("sub/", "a/b_"):
        with pytest.raises(cli.ConfigError, match="outputs.prefix"):
            build_config({"outputs.prefix": prefix})
        for command in ("analytics", "simulate"):
            argv = [command, *SMALL, "--set", f"outputs.prefix={prefix}", "--out", str(tmp_path)]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: outputs.prefix") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_missing_config_file_exits_2(tmp_path, capsys):
    # A file the command cannot open is an input error: one `error:` line
    # and exit 2, not an OSError traceback.
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing.cfg" in err
    assert list(tmp_path.iterdir()) == []


def test_edge_list_into_missing_directory_exits_2(tmp_path, capsys):
    argv = ["graph-gen", "--set", "network.N=20", "--set", "network.n=4",
            "--edges-out", str(tmp_path / "missing" / "edges.txt")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "edges.txt" in err
    assert list(tmp_path.iterdir()) == []


def test_missing_out_directory_is_created(tmp_path, capsys):
    # Unlike --edges-out, --out names a directory the command creates,
    # parents included.
    out = tmp_path / "a" / "b"
    assert main(["solve", "--set", "epidemic.t_end=1", "--out", str(out)]) == 0
    path = out / "solve_pairwise.csv"
    assert capsys.readouterr().out == f"wrote {path}\n"
    meta = Trajectory.from_csv(path).meta
    assert config_from_meta(meta) == build_config({"epidemic.t_end": "1"})


@pytest.mark.parametrize(
    "args, message",
    [(["--set", "simulation.save_runs=maybe"], "expected a boolean"),
     (["--set", "network.N=1"], "network.N must be at least 2"),
     (["--set", "network.n=1000"], "network.n must satisfy"),
     (["--set", "epidemic.I0=1001"], "epidemic.I0 must lie in"),
     (["--set", "network.N=many"], "bad value for network.N"),
     (["--config", "@cfg"], "expected 'key = value'"),
     (["--set", "network.N"], "--set expects KEY=VALUE")],
    ids=["bool", "N", "n", "I0", "non-numeric", "config-line", "set"],
)
def test_bad_input_exits_2(tmp_path, capsys, args, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("network.N = 200\nnetwork.n 8\n")
    argv = ["analytics", *(str(cfg) if a == "@cfg" else a for a in args), "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert list(tmp_path.iterdir()) == [cfg]


NON_FINITE_OVERRIDES = [
    "epidemic.tau=nan",
    "epidemic.tau=inf",
    "epidemic.dist=exp:rate=inf",
    "epidemic.dist=fixed:sigma=inf",
    "epidemic.dist=gamma:shape=3,rate=inf",
    "epidemic.dist=gamma:shape=inf,rate=2",
    "epidemic.dist=uniform:a=1,b=inf",
    "epidemic.dist=uniform:a=nan,b=2",
    "epidemic.t_end=nan",
    "epidemic.t_end=inf",
    "simulation.dt_out=nan",
    "simulation.dt_out=inf",
    "solver.h=nan",
    "solver.h=inf",
]


@pytest.mark.parametrize("override", NON_FINITE_OVERRIDES)
def test_non_finite_inputs_exit_2(tmp_path, capsys, override):
    with pytest.raises(cli.ConfigError if override.startswith("epidemic.tau") else ValueError):
        build_config(dict([override.split("=", 1)]))
    for command in ("analytics", "simulate"):
        assert main([command, *SMALL, "--set", override, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_analytics_huge_tau_reports_zero_survivors(tmp_path, capsys):
    # r0 is about 2e7, so the mean-field root lies below the smallest double.
    assert main(["analytics", "--set", "epidemic.tau=1e6", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    with open(tmp_path / "analytics.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert float(rows[0]["s_inf_meanfield"]) == 0.0
    assert 0.0 < float(rows[0]["s_inf_pairwise"]) < 1e-20


@pytest.mark.parametrize("graph", [[], ["--set", "network.N=187", "--set", "network.n=4"]])
def test_analytics_without_initial_infected_at_huge_tau(tmp_path, capsys, graph):
    # L[f](tau) underflows to 0, so r0p = (n-1) N/N, which rounds to 14.0 at
    # the default graph and to 3.0000000000000004 at N = 187, n = 4.
    args = ["analytics", "--set", "epidemic.I0=0", "--set", "epidemic.tau=1000",
            "--set", "epidemic.dist=fixed:sigma=1.5", *graph, "--out", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    with open(tmp_path / "analytics.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert float(rows[0]["s_inf_pairwise"]) == 0.0
    assert float(rows[0]["attack_pairwise"]) == 1.0


LONG_UNIFORM = ["solve", "--model", "special:uniform",
                "--set", "epidemic.tau=2", "--set", "epidemic.t_end=400",
                "--set", "solver.h=0.02", "--set", "epidemic.dist=uniform:a=1,b=2"]


def test_arithmetic_overflow_exits_2(tmp_path, capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "solve_model", overflow)
    assert main(LONG_UNIFORM + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure") and "OverflowError" in err


@pytest.mark.parametrize(
    "exc, message",
    [(MemoryError("Unable to allocate 186. GiB for an array with shape (25000000001,)"),
      "error: Unable to allocate 186. GiB"),
     (MemoryError(), "error: MemoryError")],
    ids=["numpy", "bare"],
)
def test_memory_error_exits_2(tmp_path, capsys, monkeypatch, exc, message):
    # An input too large for memory ends in one error line and exit 2, not
    # a traceback; the solve is made to raise, nothing is allocated.
    def out_of_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "solve_pairwise", out_of_memory)
    assert main(["solve", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("h", ["1e-6", "1e-9"])
def test_step_count_past_the_limit_exits_2(tmp_path, capsys, h):
    # t_end = 25 at these steps is 2.5e7 and 2.5e10 steps: the solve is
    # refused before anything is allocated, rather than running for minutes
    # or running out of memory.
    assert main(["solve", "--set", f"solver.h={h}", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: t_end/h") and "limit of 1000000 steps" in err
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_oversized_grid_in_an_ensemble_worker_exits_2(tmp_path):
    # dt_out = 1e-12 asks each run for a 2.5e13-point output grid (182 TiB).
    # The worker that runs it fails to allocate it, and the MemoryError it
    # hands back must end in one error line and exit 2, with no file
    # written.  The address space is capped, so no machine can grant it.
    cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (16 << 30, 16 << 30))"
    argv = ["simulate", "--set", "network.N=200", "--set", "network.n=8",
            "--set", "simulation.dt_out=1e-12", "--set", "simulation.runs=2",
            "--out", str(tmp_path)]
    run = subprocess.run(
        [sys.executable, "-c", f"{cap}; import sys; from nmsir.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(nm.__file__).resolve().parents[1])),
    )
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: Unable to allocate") and run.stderr.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_uniform_reference_survives_phi_past_overflow(tmp_path, monkeypatch):
    # Phi reaches about 840 here; the reference carries exp(-Phi)-damped
    # window integrals, so exp(Phi) (overflow past 709) is never formed.
    solved = []
    real_solve = cli.solve_model

    def spy(*args, **kwargs):
        solved.append(real_solve(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(cli, "solve_model", spy)
    assert main(LONG_UNIFORM + ["--out", str(tmp_path)]) == 0
    traj = Trajectory.from_csv(tmp_path / "solve_special_uniform.csv")
    for name in ("S", "I", "SI"):
        assert np.all(np.isfinite(traj.series(name)))
    assert solved[0].extra["Phi"][-1] > 709.0


def test_simulate_deterministic_and_meta_reconstructs(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    argv = ["simulate", *SMALL, "--seed", "5", "--out"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    assert (out1 / "sim_mean.csv").read_bytes() == (out2 / "sim_mean.csv").read_bytes()
    assert (out1 / "sim_std.csv").read_bytes() == (out2 / "sim_std.csv").read_bytes()

    # The meta line alone reconstructs the run byte for byte.
    traj = Trajectory.from_csv(out1 / "sim_mean.csv")
    cfg = config_from_meta(traj.meta)
    assert cfg.simulation_base_seed == 5
    out3 = tmp_path / "c"
    rebuilt = ["simulate"] + sum(
        (["--set", f"{k}={v}"] for k, v in cfg.flatten().items()), []
    )
    assert main(rebuilt + ["--out", str(out3)]) == 0
    body1 = (out1 / "sim_mean.csv").read_text().splitlines()[1:]
    body3 = (out3 / "sim_mean.csv").read_text().splitlines()[1:]
    assert body1 == body3


def test_solve_writes_parseable_trajectory(tmp_path):
    rc = main(
        ["solve", "--model", "pairwise", "--set", "solver.h=0.02",
         "--set", "epidemic.t_end=10", "--out", str(tmp_path)]
    )
    assert rc == 0
    traj = Trajectory.from_csv(tmp_path / "solve_pairwise.csv")
    assert traj.meta["model"] == "pairwise"
    assert len(traj.t) == 501
    assert traj.S[0] == 995.0


def test_solve_preserves_grid_snap_note(tmp_path):
    rc = main(
        ["solve", "--model", "pairwise",
         "--set", "epidemic.dist=fixed:sigma=1.5037",
         "--set", "solver.h=0.01", "--set", "epidemic.t_end=5",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    traj = Trajectory.from_csv(tmp_path / "solve_pairwise.csv")
    assert "grid_snap" in traj.meta


def test_special_fixed_snaps_off_grid_sigma(tmp_path):
    # At h = 0.1 the reference's [SI] dips below its floor at t = 4.2 (for an
    # on-grid sigma = 1.6 too), so the horizon stops short of it.
    rc = main(
        ["solve", "--model", "special:fixed",
         "--set", "epidemic.dist=fixed:sigma=1.55",
         "--set", "solver.h=0.1", "--set", "epidemic.t_end=4",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    traj = Trajectory.from_csv(tmp_path / "solve_special_fixed.csv")
    assert traj.meta["grid_snap"] == "sigma:1.55->1.6"


def test_solve_special_models(tmp_path):
    rc = main(
        ["solve", "--model", "special:gamma",
         "--set", "epidemic.dist=gamma:shape=3,rate=2",
         "--set", "solver.h=0.01", "--set", "epidemic.t_end=8", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "solve_special_gamma.csv").exists()


def test_special_model_refuses_degree_below_two(tmp_path, capsys):
    # The closed-form pairwise reference has the pairwise solve's input rule.
    argv = ["solve", "--model", "special:markovian", "--set", "network.n=1",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "pairwise model needs degree >= 2" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "model,kind,spec",
    [("special:markovian", "exp", "gamma:shape=1,rate=2"),
     ("special:fixed", "fixed", "uniform:a=1,b=2"),
     ("special:gamma", "gamma", "exp:rate=0.6667"),
     ("special:uniform", "uniform", "fixed:sigma=1.5")],
)
def test_special_model_rejects_law_of_another_kind(tmp_path, capsys, model, kind, spec):
    argv = ["solve", "--model", model, "--set", f"epidemic.dist={spec}", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    given = nm.parse_distribution(spec).spec_string()
    assert f"{model} needs a recovery law of kind {kind!r}, got {given!r}" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_analytics_table_and_csv(tmp_path, capsys):
    rc = main(
        ["analytics", "--out", str(tmp_path), "--set",
         "compare.distributions=exp:rate=0.6667;gamma:shape=3,rate=2;uniform:a=1,b=2"]
    )
    assert rc == 0
    shown = capsys.readouterr().out
    assert "R0p" in shown and "uniform:a=1.0,b=2.0" in shown
    lines = (tmp_path / "analytics.csv").read_text().splitlines()
    assert lines[1].startswith("kind,mean,variance,laplace_at_tau,R0,R0p")
    assert len(lines) == 5  # meta + header + three rows
    # attack ordering: uniform > gamma > exp in the pairwise column
    parsed = list(csv.reader(lines[2:]))
    attack_pw = {row[0]: float(row[-1]) for row in parsed}
    assert (
        attack_pw["uniform:a=1.0,b=2.0"]
        > attack_pw["gamma:shape=3,rate=2.0"]
        > attack_pw["exp:rate=0.6667"]
    )


def test_analytics_zero_tau_row(tmp_path, capsys):
    rc = main(
        ["analytics", "--out", str(tmp_path), "--set", "epidemic.tau=0"]
    )
    assert rc == 0
    lines = (tmp_path / "analytics.csv").read_text().splitlines()
    row = lines[2].split(",")
    assert float(row[3]) == 1.0  # Laplace transform at tau = 0
    assert float(row[5]) == 0.0  # pairwise reproduction number
    capsys.readouterr()


def test_compare_smoke_and_gnuplot(tmp_path, capsys):
    rc = main(
        ["compare", *SMALL, "--seed", "3", "--out", str(tmp_path),
         "--set", "compare.distributions=exp:rate=0.6667;fixed:sigma=1.5",
         "--set", "compare.enforce=false", "--set", "compare.gnuplot=true"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "attack-rate ordering" in out
    assert (tmp_path / "compare_summary.csv").exists()
    assert (tmp_path / "compare_0_exp.csv").exists()
    assert (tmp_path / "compare_1_fixed.csv").exists()
    assert (tmp_path / "compare.gp").exists()
    lines = (tmp_path / "compare_summary.csv").read_text().splitlines()
    assert lines[1] == (
        "dist,method,peak,peak_time,final_size,peak_rel_err,final_size_rel_err"
    )
    assert len(lines) == 2 + 2 * 3
    methods = [row[1] for row in csv.reader(lines[2:])]
    assert methods == ["simulation", "pairwise", "meanfield"] * 2


def test_compare_reports_each_gate_margin_in_standard_errors(tmp_path, capsys):
    # Every gate on a report line carries its margin in SE of the ensemble
    # mean, positive exactly when the gate passes; one run has no spread,
    # so its margins are infinite.
    gate = re.compile(r"(\w+) (OK|FAIL) ([+-](?:inf|\d+\.\d)) SE")
    for extra, runs in ((["--seed", "3"], 3), (["--seed", "1", "--set", "simulation.runs=1"], 1)):
        main(["compare", *SMALL, *extra, "--out", str(tmp_path),
              "--set", "compare.distributions=exp:rate=0.6667;uniform:a=1,b=2",
              "--set", "compare.enforce=false"])
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[")]
        assert len(lines) == 2
        for line in lines:
            gates = gate.findall(line)
            assert [name for name, _, _ in gates] == [
                "peak_within_10pct", "final_size_within_5pct", "meanfield_overshoots"
            ]
            for _, verdict, margin in gates:
                assert (verdict == "OK") == (float(margin) > 0), line
                assert math.isinf(float(margin)) == (runs == 1), line
            verdict = "OK" if all(v == "OK" for _, v, _ in gates) else "FAIL"
            assert f"-> {verdict} [" in line


def test_compare_records_the_solves_grid_snap(tmp_path, capsys):
    # The simulator runs sigma = 1.55 and [1.03, 2.07] while both solves
    # run sigma = 1.6 and [1.0, 2.1]; the summary joins the laws' notes.
    rc = main(
        ["compare", *SMALL, "--out", str(tmp_path), "--set", "solver.h=0.1",
         "--set", "compare.distributions=fixed:sigma=1.55;exp:rate=0.6667;uniform:a=1.03,b=2.07",
         "--set", "compare.enforce=false"]
    )
    assert rc == 0
    capsys.readouterr()

    def meta(name):
        return parse_meta((tmp_path / name).read_text().split("\n", 1)[0])

    assert meta("compare_0_fixed.csv")["grid_snap"] == "sigma:1.55->1.6"
    assert "grid_snap" not in meta("compare_1_exp.csv")
    assert meta("compare_2_uniform.csv")["grid_snap"] == "a:1.03->1.0;b:2.07->2.1"
    assert meta("compare_summary.csv")["grid_snap"] == "sigma:1.55->1.6;a:1.03->1.0;b:2.07->2.1"


@pytest.mark.parametrize("fresh", ["true", "false"])
def test_compare_ensembles_equal_ensembles_run_alone(tmp_path, capsys, fresh):
    # compare runs every law on shared graphs; each law's curves must be
    # those of an ensemble of that law alone.
    specs = "exp:rate=0.6667;gamma:shape=3,rate=2;uniform:a=1,b=2"
    argv = ["compare", *SMALL, "--seed", "5", "--out", str(tmp_path),
            "--set", f"compare.distributions={specs}", "--set", "compare.enforce=false",
            "--set", f"network.fresh_graph_per_run={fresh}"]
    assert main(argv) == 0
    capsys.readouterr()
    cfg = build_config(dict(arg.split("=", 1) for arg in argv if "=" in arg))
    for idx, spec in enumerate(specs.split(";")):
        mean, std = nm.run_ensembles(
            [cli._epidemic_params(cfg, spec)], num_nodes=200, degree=8, runs=3,
            base_seed=5, graph_seed=cfg.network_graph_seed,
            fresh_graph_per_run=fresh == "true", dt_out=cfg.simulation_dt_out,
        )[0]
        kind = nm.parse_distribution(spec).kind
        with open(tmp_path / f"compare_{idx}_{kind}.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        for column, expected in (("t", mean.t), ("I_sim", mean.I), ("S_sim", mean.S),
                                 ("I_sim_std", std.I)):
            assert np.array_equal([float(r[column]) for r in rows], expected), column


def test_compare_threshold_failure_exits_3(tmp_path, capsys):
    # Seed 1 on this configuration goes extinct immediately, so the
    # deterministic solvers overshoot the single run by far more than 5%.
    rc = main(
        ["compare", "--out", str(tmp_path),
         "--set", "network.N=200", "--set", "network.n=15",
         "--set", "network.graph_seed=1",
         "--set", "epidemic.I0=1", "--set", "simulation.runs=1",
         "--seed", "1"]
    )
    assert rc == 3
    capsys.readouterr()


def test_compare_no_enforce_passes_same_setup(tmp_path, capsys):
    rc = main(
        ["compare", "--out", str(tmp_path),
         "--set", "network.N=200", "--set", "network.n=15",
         "--set", "network.graph_seed=1",
         "--set", "epidemic.I0=1", "--set", "simulation.runs=1",
         "--seed", "1", "--set", "compare.enforce=false"]
    )
    assert rc == 0
    capsys.readouterr()


def test_save_runs_writes_per_run_files(tmp_path):
    rc = main(
        ["simulate", *SMALL, "--seed", "9", "--out", str(tmp_path),
         "--set", "simulation.save_runs=true"]
    )
    assert rc == 0
    for k in range(3):
        assert (tmp_path / f"sim_run_{k:03d}.csv").exists()
    run0 = Trajectory.from_csv(tmp_path / "sim_run_000.csv")
    assert run0.S[0] + run0.I[0] == 200.0
    # The saved runs are the ensemble's own runs, not a re-simulation.
    runs = [Trajectory.from_csv(tmp_path / f"sim_run_{k:03d}.csv") for k in range(3)]
    mean = Trajectory.from_csv(tmp_path / "sim_mean.csv")
    for name in ("S", "I"):
        run_mean = np.mean([run.series(name) for run in runs], axis=0)
        np.testing.assert_allclose(run_mean, mean.series(name), rtol=0, atol=1e-12)


def test_analytics_meta_round_trips_spaced_spec_list(tmp_path, capsys):
    # fig1.cfg separates its specs with "; ", which used to split the header.
    assert main(["analytics", "--config", str(FIG1_CFG), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    header = (tmp_path / "analytics.csv").read_text().splitlines()[0]
    cfg = config_from_meta(parse_meta(header))
    assert cfg == build_config(read_config_file(FIG1_CFG))
    assert cfg.distribution_list() == [
        "exp:rate=0.6667", "gamma:shape=3,rate=2.0", "uniform:a=1.0,b=2.0"
    ]


def test_solve_meta_round_trips_spaced_dist(tmp_path):
    rc = main(
        ["solve", "--model", "pairwise", "--set", "epidemic.dist=gamma:shape=3, rate=2",
         "--set", "epidemic.t_end=2", "--out", str(tmp_path)]
    )
    assert rc == 0
    traj = Trajectory.from_csv(tmp_path / "solve_pairwise.csv")
    cfg = config_from_meta(traj.meta)
    assert cfg.epidemic_dist == "gamma:shape=3,rate=2.0"


def test_failed_compare_writes_nothing(tmp_path, capsys):
    # At this step size the first pairwise step's sweep finds no [S] >= 0;
    # the solves run after every ensemble, and the compare writes no file.
    argv = ["compare", *SMALL, "--set", "solver.h=0.5", "--set", "epidemic.tau=3"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "error: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


TWO_LAWS = "compare.distributions=exp:rate=0.6667;gamma:shape=3,rate=2"
META_RUNS = {
    "simulate": ["simulate", *SMALL, "--set", "simulation.save_runs=true"],
    "solve": ["solve", "--set", "epidemic.t_end=2"],
    "analytics": ["analytics", "--set", TWO_LAWS],
    "compare": ["compare", *SMALL, "--set", TWO_LAWS, "--set", "compare.enforce=false"],
}
META_FILES = {
    "simulate": ["sim_mean.csv", "sim_std.csv", "sim_run_000.csv", "sim_run_001.csv",
                 "sim_run_002.csv"],
    "solve": ["solve_pairwise.csv"],
    "analytics": ["analytics.csv"],
    "compare": ["compare_summary.csv", "compare_0_exp.csv", "compare_1_gamma.csv"],
}


@pytest.fixture(scope="module")
def meta_outputs(tmp_path_factory):
    """Each META_RUNS command run once: command -> (output dir, expected meta config)."""
    runs = {}
    for command, argv in META_RUNS.items():
        out = tmp_path_factory.mktemp(command)
        assert main(argv + ["--out", str(out)]) == 0
        cfg = build_config(dict(arg.split("=", 1) for arg in argv if "=" in arg))
        expected = {k: v for k, v in cfg.flatten().items() if not k.startswith("outputs.")}
        runs[command] = out, expected
    return runs


def test_meta_files_are_every_file_written(meta_outputs):
    for command, (out, _) in meta_outputs.items():
        assert sorted(p.name for p in out.iterdir()) == sorted(META_FILES[command])


@pytest.mark.parametrize(
    "command,name", [(c, n) for c, names in META_FILES.items() for n in names]
)
def test_every_output_file_rebuilds_its_run(meta_outputs, command, name):
    out, expected = meta_outputs[command]
    data = (out / name).read_bytes()
    assert b"\r" not in data
    first = data.decode("utf-8").split("\n", 1)[0]
    assert first.startswith("# meta:")
    rebuilt = config_from_meta(parse_meta(first)).flatten()
    assert {k: v for k, v in rebuilt.items() if not k.startswith("outputs.")} == expected
