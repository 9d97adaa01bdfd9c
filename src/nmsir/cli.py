"""Command-line harness: simulate, solve, analytics, compare, graph-gen.

Configuration is a flat ``section.key = value`` text file; every value can be
overridden on the command line with ``--set section.key=value`` (repeatable),
and the dedicated flags ``--seed``/``--out`` take final precedence.  Unknown
keys are rejected.  All outputs are CSV files whose ``# meta:`` line echoes
the exact configuration (seeds included), so any result file can be
reproduced byte-for-byte from its own header.  A command that fails writes
no output.

Exit codes: 0 success; 2 a configuration or validation error, a failed solve
(solver error or floating-point overflow), a file that cannot be read or
written (a missing config file, an ``--edges-out`` path in a missing
directory) or an input too large for memory; 3 a compare threshold failure.
The ``--out`` directory is created, parents included, when missing.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .analysis import final_size_meanfield, final_size_pairwise, reproduction_numbers
from .network import generate_regular, save_edge_list
from .recovery import Exponential, FixedDuration, GammaErlang, UniformInterval, parse_distribution
from .reference import solve_reference_pairwise
from .simulate import run_ensembles
from .solvers import SolverError, solve_meanfield, solve_pairwise
from .trajectory import EpidemicParams, SolverConfig, Trajectory, _format_value, write_csv

__all__ = ["ConfigError", "ExperimentConfig", "build_config", "main"]

# Thresholds enforced by `compare` (exit code 3 when violated).
PEAK_REL_TOL = 0.10
FINAL_SIZE_REL_TOL = 0.05


class ConfigError(ValueError):
    """Invalid configuration key, value, or combination."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; defaults reproduce the headline figure."""

    network_num_nodes: int = 1000
    network_degree: int = 15
    network_graph_seed: int = 1
    network_fresh_graph_per_run: bool = True
    epidemic_tau: float = 0.35
    epidemic_dist: str = "exp:rate=0.6667"
    epidemic_initial_infected: int = 5
    epidemic_t_end: float = 25.0
    simulation_runs: int = 100
    simulation_base_seed: int = 42
    simulation_dt_out: float = 0.1
    simulation_save_runs: bool = False
    solver_h: float = 0.01
    outputs_dir: str = "."
    outputs_prefix: str = ""
    compare_distributions: str = ""
    compare_enforce: bool = True
    compare_gnuplot: bool = False

    def validate(self) -> "ExperimentConfig":
        if self.network_num_nodes < 2:
            raise ConfigError("network.N must be at least 2")
        if not 0 < self.network_degree < self.network_num_nodes:
            raise ConfigError("network.n must satisfy 0 < n < N")
        if not 0 <= self.epidemic_tau < math.inf:
            # tau = 0 is meaningful for analytics (L = 1, r0p = 0); the
            # simulator and solvers reject it when actually run.
            raise ConfigError("epidemic.tau must be nonnegative and finite")
        for key, seed in (("network.graph_seed", self.network_graph_seed),
                          ("simulation.base_seed", self.simulation_base_seed)):
            if seed < 0:
                raise ConfigError(f"{key} must be nonnegative, got {seed}")
        if not 0 <= self.epidemic_initial_infected <= self.network_num_nodes:
            raise ConfigError("epidemic.I0 must lie in [0, N]")
        if not 0 < self.epidemic_t_end < math.inf:
            raise ConfigError("epidemic.t_end must be positive and finite")
        if self.simulation_runs < 1:
            raise ConfigError("simulation.runs must be >= 1")
        if not 0 < self.simulation_dt_out < math.inf:
            raise ConfigError("simulation.dt_out must be positive and finite")
        if not 0 < self.solver_h < math.inf:
            raise ConfigError("solver.h must be positive and finite")
        if any(sep in self.outputs_prefix for sep in filter(None, ("/", os.sep, os.altsep))):
            raise ConfigError("outputs.prefix must not contain a path separator; use --out")
        parse_distribution(self.epidemic_dist)
        for spec in self.distribution_list():
            parse_distribution(spec)
        return self

    # -- key mapping ------------------------------------------------------

    @classmethod
    def key_map(cls) -> dict[str, tuple[str, str]]:
        table = {}
        for f in fields(cls):
            section, _, rest = f.name.partition("_")
            key = f"{section}.{rest}"
            table[key] = (f.name, f.type)
        # Friendlier aliases used throughout the docs.
        table["network.N"] = table.pop("network.num_nodes")
        table["network.n"] = table.pop("network.degree")
        table["epidemic.I0"] = table.pop("epidemic.initial_infected")
        return table

    def distribution_list(self) -> list[str]:
        items = [s.strip() for s in self.compare_distributions.split(";") if s.strip()]
        return items

    def flatten(self) -> dict[str, str]:
        return {
            key: _format_value(getattr(self, attr))
            for key, (attr, _) in sorted(self.key_map().items())
        }


_TYPE_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool}


def build_config(pairs: dict[str, str]) -> ExperimentConfig:
    """Construct and validate a config from dotted key/value strings."""
    table = ExperimentConfig.key_map()
    updates = {}
    for key, raw in pairs.items():
        if key not in table:
            raise ConfigError(f"unknown configuration key {key!r}")
        attr, type_name = table[key]
        parser = _TYPE_PARSERS.get(type_name, str)
        try:
            updates[attr] = parser(raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    cfg = ExperimentConfig(**updates).validate()
    # Specs are kept in canonical form: free of whitespace, so they survive a
    # `# meta:` echo, and equal laws compare equal as text.
    return replace(
        cfg,
        epidemic_dist=parse_distribution(cfg.epidemic_dist).spec_string(),
        compare_distributions=";".join(
            parse_distribution(spec).spec_string() for spec in cfg.distribution_list()
        ),
    )


def read_config_file(path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            pairs[key.strip()] = value.strip()
    return pairs


def config_from_meta(meta: dict[str, str]) -> ExperimentConfig:
    """Rebuild the configuration echoed in a CSV ``# meta:`` line.

    A line that echoes no configuration key, as ``Trajectory.to_csv`` called
    from the library writes, raises ``ConfigError``.
    """
    table = ExperimentConfig.key_map()
    pairs = {k: v for k, v in meta.items() if k in table}
    if not pairs:
        raise ConfigError("the meta line holds no configuration key to rebuild a run from")
    return build_config(pairs)


# -- command implementations ----------------------------------------------


def _epidemic_params(cfg: ExperimentConfig, dist_spec: str | None = None) -> EpidemicParams:
    return EpidemicParams(
        tau=cfg.epidemic_tau,
        dist=parse_distribution(dist_spec or cfg.epidemic_dist),
        initial_infected=cfg.epidemic_initial_infected,
        t_end=cfg.epidemic_t_end,
    )


def _out_path(cfg: ExperimentConfig, name: str) -> Path:
    out = Path(cfg.outputs_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{cfg.outputs_prefix}{name}"


def _meta_with_config(cfg: ExperimentConfig, *solves: Trajectory, **extra) -> dict:
    """``command``, the configuration, ``extra``, then the ``grid_snap`` notes of ``solves``."""
    meta = {"command": extra.pop("command")}
    # Output location is environmental, not part of the run: leaving it out
    # keeps equal-seed runs byte-identical regardless of where they land.
    meta.update(
        (k, v) for k, v in cfg.flatten().items() if not k.startswith("outputs.")
    )
    meta.update(extra)
    snaps = ";".join(solve.meta["grid_snap"] for solve in solves if "grid_snap" in solve.meta)
    if snaps:
        meta["grid_snap"] = snaps
    return meta


def _ensembles(
    cfg: ExperimentConfig, laws: list[EpidemicParams]
) -> list[tuple[Trajectory, Trajectory]]:
    return run_ensembles(
        laws,
        num_nodes=cfg.network_num_nodes,
        degree=cfg.network_degree,
        runs=cfg.simulation_runs,
        base_seed=cfg.simulation_base_seed,
        graph_seed=cfg.network_graph_seed,
        fresh_graph_per_run=cfg.network_fresh_graph_per_run,
        dt_out=cfg.simulation_dt_out,
    )


def cmd_simulate(cfg: ExperimentConfig) -> int:
    ((mean, std),) = _ensembles(cfg, [_epidemic_params(cfg)])
    mean.meta = _meta_with_config(cfg, command="simulate")
    std.meta = _meta_with_config(cfg, command="simulate", statistic="std")
    mean_path = _out_path(cfg, "sim_mean.csv")
    mean.to_csv(mean_path)
    std.to_csv(_out_path(cfg, "sim_std.csv"), column_suffix="_std")
    if cfg.simulation_save_runs:
        for k, traj in enumerate(mean.extra["runs"]):
            traj.meta = _meta_with_config(cfg, command="simulate", run=k)
            traj.to_csv(_out_path(cfg, f"sim_run_{k:03d}.csv"))
    print(f"wrote {mean_path} and companion std file ({cfg.simulation_runs} runs)")
    return 0


# Each `special:` model is the pairwise reference, for a law of one kind.
_SPECIAL_SOLVERS = {
    "special:markovian": (solve_reference_pairwise, Exponential),
    "special:fixed": (solve_reference_pairwise, FixedDuration),
    "special:gamma": (solve_reference_pairwise, GammaErlang),
    "special:uniform": (solve_reference_pairwise, UniformInterval),
}


def solve_model(cfg: ExperimentConfig, model: str, dist_spec: str | None = None) -> Trajectory:
    params = _epidemic_params(cfg, dist_spec)
    if model in _SPECIAL_SOLVERS:
        solve, law = _SPECIAL_SOLVERS[model]
        if not isinstance(params.dist, law):
            raise ConfigError(
                f"{model} needs a recovery law of kind {law.kind!r}, "
                f"got {params.dist.spec_string()!r}"
            )
    elif model in ("pairwise", "meanfield"):
        solve = solve_pairwise if model == "pairwise" else solve_meanfield
    else:
        raise ConfigError(f"unknown model {model!r}")
    return solve(params, num_nodes=cfg.network_num_nodes, degree=cfg.network_degree,
                 config=SolverConfig(h=cfg.solver_h))


def cmd_solve(cfg: ExperimentConfig, model: str) -> int:
    traj = solve_model(cfg, model)
    traj.meta = _meta_with_config(cfg, traj, command="solve", model=model)
    path = _out_path(cfg, f"solve_{model.replace(':', '_')}.csv")
    traj.to_csv(path)
    print(f"wrote {path}")
    return 0


def cmd_analytics(cfg: ExperimentConfig) -> int:
    specs = cfg.distribution_list() or [cfg.epidemic_dist]
    n, N = cfg.network_degree, cfg.network_num_nodes
    s0 = N - cfg.epidemic_initial_infected
    tau = cfg.epidemic_tau
    header = [
        "kind", "mean", "variance", "laplace_at_tau", "R0", "R0p",
        "s_inf_meanfield", "s_inf_pairwise", "attack_meanfield", "attack_pairwise",
    ]
    rows = []
    for spec in specs:
        dist = parse_distribution(spec)
        rep = reproduction_numbers(tau, n, N, s0, dist)
        mf = final_size_meanfield(rep.r0)
        pw = final_size_pairwise(rep.r0p, n)
        rows.append([
            spec, dist.mean(), dist.variance(), rep.laplace_at_tau, rep.r0,
            rep.r0p, mf.s_inf, pw.s_inf, mf.attack_rate, pw.attack_rate,
        ])

    widths = [max(len(header[j]), 12) for j in range(len(header))]
    widths[0] = max(len(r[0]) for r in rows + [header]) + 1
    print("  ".join(h.ljust(widths[j]) for j, h in enumerate(header)))
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [
            f"{val:.6g}".ljust(widths[j + 1]) for j, val in enumerate(row[1:])
        ]
        print("  ".join(cells))

    path = _out_path(cfg, "analytics.csv")
    write_csv(path, _meta_with_config(cfg, command="analytics"), header, rows)
    print(f"wrote {path}")
    return 0


_SUMMARY_HEADER = ["dist", "method", "peak", "peak_time", "final_size",
                   "peak_rel_err", "final_size_rel_err"]


def _in_se(gap: float, se: float) -> float:
    """``gap`` in units of ``se``; an infinity of its sign when there is no spread."""
    return gap / se if se > 0.0 else math.copysign(math.inf, gap)


# One law of `compare`: its gates (gate -> (passed, margin in SE)), summary
# rows, curve file (name, tag, meta, curves by column), report line and
# ensemble final size, and the pairwise solve whose notes stand for the law's.
_LawCompare = namedtuple("_LawCompare", "checks summary curve_file report sim_final pairwise")


def _compare_one(cfg: ExperimentConfig, idx: int, spec: str, ensemble: tuple) -> _LawCompare:
    """The ``idx``-th law's two solves, checked against its ensemble."""
    mean, std = ensemble
    # Both solves snap a law's breakpoints alike, so the pairwise one's notes
    # stand for the law's; the simulator runs it as given.
    pw = solve_model(cfg, "pairwise", spec)
    mf = solve_model(cfg, "meanfield", spec)
    N = cfg.network_num_nodes
    sim_peak, sim_final = mean.peak_infected()[1], mean.final_size(N)
    rows = {}
    for method, traj in (("simulation", mean), ("pairwise", pw), ("meanfield", mf)):
        peak_time, peak = traj.peak_infected()
        final = traj.final_size(N)
        rows[method] = {
            "peak": peak, "peak_time": peak_time, "final_size": final,
            "peak_rel_err": abs(peak - sim_peak) / max(sim_peak, 1e-12),
            "final_size_rel_err": abs(final - sim_final) / max(sim_final, 1e-12),
        }
    # Each gate's margin is in standard errors of the ensemble mean: of [I]
    # at the mean's peak, and of the final size N - [S](t_end).
    root_runs = math.sqrt(mean.meta["runs"])
    se_peak = float(std.I[int(np.argmax(mean.I))]) / root_runs
    se_final = float(std.S[-1]) / root_runs
    sim, pair, field = rows["simulation"], rows["pairwise"], rows["meanfield"]
    checks = {  # gate -> (passed, margin in SE)
        "peak_within_10pct": (
            pair["peak_rel_err"] < PEAK_REL_TOL,
            _in_se(PEAK_REL_TOL * sim_peak - abs(pair["peak"] - sim_peak), se_peak),
        ),
        "final_size_within_5pct": (
            pair["final_size_rel_err"] < FINAL_SIZE_REL_TOL,
            _in_se(FINAL_SIZE_REL_TOL * sim_final - abs(pair["final_size"] - sim_final), se_final),
        ),
        "meanfield_overshoots": (
            field["final_size"] > sim_final, _in_se(field["final_size"] - sim_final, se_final)
        ),
    }
    curves = {
        "t": mean.t,
        "I_sim": mean.I,
        "I_sim_std": std.I,
        "I_pairwise": np.interp(mean.t, pw.t, pw.I),
        "I_meanfield": np.interp(mean.t, mf.t, mf.I),
        "S_sim": mean.S,
        "S_pairwise": np.interp(mean.t, pw.t, pw.S),
        "S_meanfield": np.interp(mean.t, mf.t, mf.S),
    }
    report = (
        f"[{spec}] sim peak {sim['peak']:.1f} @ t={sim['peak_time']:.2f}, "
        f"final size {sim['final_size']:.1f}; "
        f"pairwise peak err {pair['peak_rel_err']:.2%}, "
        f"final err {pair['final_size_rel_err']:.2%}; "
        f"meanfield peak err {field['peak_rel_err']:.2%}, "
        f"final err {field['final_size_rel_err']:.2%} "
        f"-> {'OK' if all(ok for ok, _ in checks.values()) else 'FAIL'} ["
        + "; ".join(f"{gate} {'OK' if ok else 'FAIL'} {margin:+.1f} SE"
                    for gate, (ok, margin) in checks.items())
        + "]"
    )
    tag = parse_distribution(spec).kind
    curve_meta = _meta_with_config(cfg, pw, command="compare", dist=spec)
    curve_file = (f"compare_{idx}_{tag}.csv", tag, curve_meta, curves)
    summary = [[spec, method] + [m[k] for k in _SUMMARY_HEADER[2:]] for method, m in rows.items()]
    return _LawCompare(checks, summary, curve_file, report, sim_final, pw)


def cmd_compare(cfg: ExperimentConfig) -> int:
    specs = cfg.distribution_list() or [cfg.epidemic_dist]
    # Every law's ensemble first, on shared graphs; then each law's solves.
    # Every result and file name is in memory before the first file is
    # written, so a compare that fails writes nothing.
    ensembles = _ensembles(cfg, [_epidemic_params(cfg, spec) for spec in specs])
    laws = [_compare_one(cfg, idx, spec, ens) for idx, (spec, ens) in enumerate(zip(specs, ensembles))]
    for name, _, curve_meta, curves in (law.curve_file for law in laws):
        columns = zip(*(curve.tolist() for curve in curves.values()))
        write_csv(_out_path(cfg, name), curve_meta, list(curves), columns)
    summary_path = _out_path(cfg, "compare_summary.csv")
    write_csv(summary_path, _meta_with_config(cfg, *(law.pairwise for law in laws), command="compare"),
              _SUMMARY_HEADER, [row for law in laws for row in law.summary])
    for law in laws:
        print(law.report)
    if len(specs) > 1:
        order = sorted(zip(specs, (law.sim_final for law in laws)), key=lambda kv: -kv[1])
        print("attack-rate ordering (largest first): " + " > ".join(s for s, _ in order))
    print(f"wrote {summary_path}")
    if cfg.compare_gnuplot:
        gp = _out_path(cfg, "compare.gp")
        with open(gp, "w", encoding="utf-8") as fh:
            fh.write("set datafile separator ','\nset key autotitle columnhead\n")
            fh.write("set xlabel 't'\nset ylabel 'prevalence [I]'\n")
            plots = []
            for name, tag, *_ in (law.curve_file for law in laws):
                name = cfg.outputs_prefix + name
                plots += [
                    f"'{name}' using 1:2 with points title '{tag} sim'",
                    f"'{name}' using 1:4 with lines title '{tag} pairwise'",
                    f"'{name}' using 1:5 with lines dt 2 title '{tag} meanfield'",
                ]
            fh.write("plot " + ", \\\n     ".join(plots) + "\n")
        print(f"wrote {gp}")
    if cfg.compare_enforce and not all(ok for law in laws for ok, _ in law.checks.values()):
        print("comparison thresholds violated", file=sys.stderr)
        return 3
    return 0


def cmd_graph_gen(cfg: ExperimentConfig, path: str | None) -> int:
    graph = generate_regular(
        cfg.network_num_nodes, cfg.network_degree, cfg.network_graph_seed
    )
    out = Path(path) if path else _out_path(cfg, "graph_edges.txt")
    save_edge_list(graph, out)
    print(
        f"wrote {out} ({graph.num_nodes} nodes, degree {graph.degree}, "
        f"{graph.edges.shape[0]} edges)"
    )
    return 0


# -- argument parsing ------------------------------------------------------


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None, help="config file path")
    parser.add_argument("--seed", type=int, default=None, help="override simulation.base_seed")
    parser.add_argument("--out", type=str, default=None, help="override outputs.dir")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry (repeatable)",
    )


def _assemble_config(args) -> ExperimentConfig:
    pairs: dict[str, str] = {}
    if args.config:
        pairs.update(read_config_file(args.config))
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        pairs[key.strip()] = value.strip()
    if args.seed is not None:
        pairs["simulation.base_seed"] = str(args.seed)
    if args.out is not None:
        pairs["outputs.dir"] = args.out
    return build_config(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nmsir",
        description="SIR epidemics with arbitrary recovery laws on regular networks",
    )
    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, run in (
        ("simulate", "run a stochastic ensemble, write CSVs", lambda cfg, a: cmd_simulate(cfg)),
        ("solve", "solve a deterministic model", lambda cfg, a: cmd_solve(cfg, a.model)),
        ("analytics", "reproduction numbers and final sizes", lambda cfg, a: cmd_analytics(cfg)),
        ("compare", "simulation vs solvers with thresholds", lambda cfg, a: cmd_compare(cfg)),
        ("graph-gen", "generate a regular graph edge list",
         lambda cfg, a: cmd_graph_gen(cfg, a.edges_out)),
    ):
        sub.add_parser(name, help=help_text, parents=[common]).set_defaults(run=run)
    sub.choices["solve"].add_argument(
        "--model",
        default="pairwise",
        choices=["pairwise", "meanfield"] + sorted(_SPECIAL_SOLVERS),
    )
    sub.choices["graph-gen"].add_argument("--edges-out", type=str, default=None)

    args = parser.parse_args(argv)
    try:
        return args.run(_assemble_config(args), args)
    except (ConfigError, ValueError, SolverError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: numerical failure ({type(exc).__name__}: {exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
