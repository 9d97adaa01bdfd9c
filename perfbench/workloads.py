"""The benchmark's three workloads: inputs from a seed, one timed pass, checks.

Each workload has three steps.  ``prepare`` builds the inputs from the seed;
importing this module plus ``prepare`` is the set-up the benchmark times.
``run`` is one pass, the work ``wall_s`` measures.  ``check`` inspects what
the pass produced and returns a ``Verdict``; it runs outside the timed pass.

A failure is an operation that raised or whose output missed a check.  The
thresholds are those of the acceptance criteria and of the compare command.
Where a check is narrower than the claim it comes from, the reason is given
at the check.

``ref_err`` is the solver route's relative gap to an independent closed-form
oracle: on fine-solve the worst sup-norm gap to the reference models over the
laws and S, I, SI; on fig1-compare the worst gap of the six solves' final
sizes to the final-size relations; on param-sweep the geometric mean of that
gap over the sweep.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import nmsir as nm
import nmsir.cli

FIG1_CFG = Path("demos") / "fig1.cfg"
NUM_NODES, DEGREE = 1000, 15

# The four recovery laws of the paper, all with mean 3/2, and the closed-form
# reference model that matches each.  The tolerances are acceptance
# criterion 3's, for the generic pairwise solve against the reference.
LAWS = {
    "exp": ("exp:rate=0.6667", "special:markovian", 1e-3),
    "fixed": ("fixed:sigma=1.5", "special:fixed", 1e-3),
    "gamma": ("gamma:shape=3,rate=2", "special:gamma", 1e-2),
    "uniform": ("uniform:a=1,b=2", "special:uniform", 1e-2),
}
# At equal mean, the smaller-variance law has the higher prevalence peak.
PEAK_ORDER = ("uniform", "gamma", "exp")
PEAK_REL_TOL, FINAL_SIZE_REL_TOL = 0.10, 0.05  # the compare command's own gates
CONSERVATION_TOL = 1e-9
POSITIVITY_FLOOR = -1e-9
FINAL_SIZE_RELATION_TOL = 0.02  # acceptance criterion 6
RELATION_MAX_I0 = 5


# Outcomes a check counts rather than fails; each is a per-layer metric.
COUNTS = ("cli.overshoot_misses", "solvers.meanfield_negative")


@dataclass
class Verdict:
    attempted: int
    failures: list[str] = field(default_factory=list)
    ref_err: float = 0.0
    counts: dict = field(default_factory=dict)


def _quiet_main(argv) -> int | str:
    """``nmsir.cli.main``'s exit code, or the error it raised, output swallowed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return nmsir.cli.main(argv)
        except Exception as exc:  # a traceback is a failed operation
            return f"{type(exc).__name__}: {exc}"


def _set_flags(pairs: dict) -> list[str]:
    return [arg for key, value in pairs.items() for arg in ("--set", f"{key}={value}")]


def _rel_sup(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


# -- fig1-compare -----------------------------------------------------------


def prepare_fig1(root: Path, seed: int, small: bool, out: Path) -> dict:
    # Seed n gives base seed n and graph seed n+1, so seed 11 is the cfg's own.
    overrides = {"simulation.base_seed": seed, "network.graph_seed": seed + 1}
    if small:
        overrides["simulation.runs"] = 10
    cfg_path = root / FIG1_CFG
    pairs = dict(nmsir.cli.read_config_file(cfg_path))
    pairs.update({k: str(v) for k, v in overrides.items()})
    cfg = nmsir.cli.build_config(pairs)
    argv = ["compare", "--config", str(cfg_path), "--out", str(out), *_set_flags(overrides)]
    return {"argv": argv, "out": out, "cfg": cfg}


def run_fig1(inputs: dict) -> dict:
    return {"exit_code": _quiet_main(inputs["argv"])}


def summary_rows(path: Path) -> dict[tuple[str, str], dict]:
    """(law kind, method) -> row of a ``compare_summary.csv``."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = {}
    for row in csv.DictReader(lines):
        rows[(row["dist"].partition(":")[0], row["method"])] = {
            k: float(v) for k, v in row.items() if k not in ("dist", "method")
        }
    return rows


def check_fig1(inputs: dict, outcome: dict) -> Verdict:
    verdict = Verdict(attempted=1)
    code = outcome["exit_code"]
    # Exit code 3 is the compare command's gate verdict.  Its mean-field
    # overshoot gate has no statistical margin for the uniform law (ensemble
    # final size 999.5-999.7 of 1000 against a mean-field 999.62), so it
    # misses on a large share of seeds.  The misses are counted, not failed;
    # every other gate is re-checked below with the command's tolerances.
    if code not in (0, 3):
        verdict.failures.append(f"compare ended with {code}")
        return verdict
    rows = summary_rows(inputs["out"] / "compare_summary.csv")
    cfg = inputs["cfg"]
    misses = 0
    for kind in PEAK_ORDER:
        sim, pw, mf = (rows[(kind, m)] for m in ("simulation", "pairwise", "meanfield"))
        if not pw["peak_rel_err"] < PEAK_REL_TOL:
            verdict.failures.append(f"{kind}: pairwise peak off by {pw['peak_rel_err']:.2%}")
        if not pw["final_size_rel_err"] < FINAL_SIZE_REL_TOL:
            verdict.failures.append(
                f"{kind}: pairwise final size off by {pw['final_size_rel_err']:.2%}"
            )
        misses += not mf["final_size"] > sim["final_size"]
        dist = nm.parse_distribution(LAWS[kind][0])
        s0 = cfg.network_num_nodes - cfg.epidemic_initial_infected
        rep = nm.reproduction_numbers(cfg.epidemic_tau, cfg.network_degree,
                                      cfg.network_num_nodes, s0, dist)
        for model, relation in ((pw, nm.final_size_pairwise(rep.r0p, cfg.network_degree)),
                                (mf, nm.final_size_meanfield(rep.r0))):
            attack = 1.0 - (cfg.network_num_nodes - model["final_size"]) / s0
            gap = abs(attack - relation.attack_rate) / relation.attack_rate
            verdict.ref_err = max(verdict.ref_err, gap)
    if (code == 3) != bool(misses or verdict.failures):
        verdict.failures.append(f"compare exit code {code} disagrees with its gates")
    for method in ("simulation", "pairwise"):
        peaks = [rows[(kind, method)]["peak"] for kind in PEAK_ORDER]
        if not peaks[0] > peaks[1] > peaks[2]:
            verdict.failures.append(f"{method} peaks not ordered {' > '.join(PEAK_ORDER)}: {peaks}")
    verdict.counts["cli.overshoot_misses"] = misses
    return verdict


# -- fine-solve -------------------------------------------------------------


def prepare_fine(root: Path, seed: int, small: bool, out: Path) -> dict:
    t_end = 8.0 if small else 25.0
    commands = []
    for law, (spec, special, _) in LAWS.items():
        for model in ("pairwise", "meanfield", special):
            pairs = {"epidemic.dist": spec, "epidemic.t_end": repr(t_end),
                     "solver.h": "0.001", "outputs.prefix": f"{law}_"}
            commands.append((law, model, pairs))
    for _, _, pairs in commands:
        nmsir.cli.build_config(pairs)
    # The seed orders the solves; the inputs stay those of the paper's figure,
    # because the cost and the reference gap both depend on tau.
    random.Random(seed).shuffle(commands)
    argvs = [(law, model, ["solve", "--model", model, "--out", str(out), *_set_flags(pairs)])
             for law, model, pairs in commands]
    return {"commands": argvs, "out": out}


def _solve_csv(out: Path, law: str, model: str) -> Path:
    return out / f"{law}_solve_{model.replace(':', '_')}.csv"


def run_fine(inputs: dict) -> dict:
    codes, read_back = {}, {}
    for law, model, argv in inputs["commands"]:
        codes[(law, model)] = _quiet_main(argv)
    for law, (_, special, _) in LAWS.items():
        for model in ("pairwise", special):
            if codes[(law, model)] == 0:
                read_back[(law, model)] = nm.Trajectory.from_csv(
                    _solve_csv(inputs["out"], law, model)
                )
    return {"exit_codes": codes, "trajectories": read_back}


def check_fine(inputs: dict, outcome: dict) -> Verdict:
    codes, trajs = outcome["exit_codes"], outcome["trajectories"]
    verdict = Verdict(attempted=len(codes))
    for (law, model), code in sorted(codes.items()):
        if code != 0:
            verdict.failures.append(f"solve {law} {model} ended with {code}")
    for (law, model), traj in sorted(trajs.items()):
        drift = float(np.max(np.abs(traj.S + traj.I + traj.R - NUM_NODES))) / NUM_NODES
        if not drift <= CONSERVATION_TOL:
            verdict.failures.append(f"{law} {model}: S+I+R drifts from N by {drift:.1e}")
    for law, (_, special, tol) in LAWS.items():
        generic, ref = trajs.get((law, "pairwise")), trajs.get((law, special))
        if generic is None or ref is None:
            continue
        if len(generic.t) != len(ref.t):
            verdict.failures.append(f"{law}: grids differ ({len(generic.t)} vs {len(ref.t)})")
            continue
        err = max(_rel_sup(generic.series(s), ref.series(s)) for s in ("S", "I", "SI"))
        verdict.ref_err = max(verdict.ref_err, err)
        if not err < tol:
            verdict.failures.append(f"{law}: pairwise vs {special} gap {err:.2e} >= {tol:g}")
    return verdict


# -- param-sweep ------------------------------------------------------------


def prepare_sweep(root: Path, seed: int, small: bool, out: Path) -> dict:
    draws = 6 if small else 50
    rng = np.random.default_rng(seed)
    # One tau per equal slice of [0.1, 1.0], so every seed spans the range
    # evenly and a pass costs about the same whatever the seed.
    taus = 0.1 + 0.9 * (np.arange(draws) + rng.uniform(size=draws)) / draws
    specs = [spec for spec, _, _ in LAWS.values()]
    cases = []
    for k, tau in enumerate(taus):
        dist = nm.parse_distribution(specs[k % len(specs)])
        i0 = (1, 5, 50)[k % 3]
        cases.append(nm.EpidemicParams(tau=float(tau), dist=dist, initial_infected=i0, t_end=40.0))
    return {"cases": cases, "config": nm.SolverConfig(h=1e-2)}


def run_sweep(inputs: dict) -> dict:
    results = []
    for params in inputs["cases"]:
        try:
            common = dict(num_nodes=NUM_NODES, degree=DEGREE, config=inputs["config"])
            pw = nm.solve_pairwise(params, **common)
            mf = nm.solve_meanfield(params, **common)
            rep = nm.reproduction_numbers(params.tau, DEGREE, NUM_NODES,
                                          NUM_NODES - params.initial_infected, params.dist)
            relations = (nm.final_size_pairwise(rep.r0p, DEGREE), nm.final_size_meanfield(rep.r0))
        except Exception as exc:  # counted as a failed operation, not fatal
            results.append({"params": params, "error": f"{type(exc).__name__}: {exc}"})
            continue
        results.append({"params": params, "solves": (pw, mf), "relations": relations})
    return {"results": results}


def check_sweep(inputs: dict, outcome: dict) -> Verdict:
    results = outcome["results"]
    verdict = Verdict(attempted=len(results), counts={"solvers.meanfield_negative": 0})
    gaps = []
    for res in results:
        p = res["params"]
        label = f"tau={p.tau:.3f} {p.dist.spec_string()} I0={p.initial_infected}"
        if "error" in res:
            verdict.failures.append(f"{label}: {res['error']}")
            continue
        s0 = NUM_NODES - p.initial_infected
        problems = []
        for model, traj, relation in zip(("pairwise", "meanfield"), res["solves"], res["relations"]):
            low = min(float(np.min(traj.series(s))) for s in ("S", "I", "R", "SI", "SS"))
            if model == "pairwise" and not low >= POSITIVITY_FLOOR:
                problems.append(f"{model} series dips to {low:.1e}")
            elif not low >= POSITIVITY_FLOOR:
                # Mean-field R dips below zero just before the first recoveries
                # of a bounded-support law (down to -4e-3 at tau=0.9).  The
                # positivity claim (criterion 5) covers the pairwise model
                # only, so this is counted, not failed.
                verdict.counts["solvers.meanfield_negative"] += 1
            if not relation.attack_rate > 0:
                problems.append(f"{model} relation predicts no outbreak")
                continue
            gap = abs(1.0 - traj.S[-1] / s0 - relation.attack_rate) / relation.attack_rate
            gaps.append(gap)
            # The relations hold for a vanishing initial seed; at I0=50 (5% of
            # N) they are off by up to 6% at tau=0.1 whatever the solver does.
            if p.initial_infected <= RELATION_MAX_I0 and not gap < FINAL_SIZE_RELATION_TOL:
                problems.append(f"{model} final size {gap:.2%} from the relation")
        if problems:
            verdict.failures.append(f"{label}: " + "; ".join(problems))
    # The geometric mean, not the worst: the worst gap tracks the lowest tau
    # drawn, which moves with the seed (27% quartile spread over ten seeds);
    # the geometric mean over ~100 solves moves by 1.4%.
    verdict.ref_err = float(np.exp(np.mean(np.log(np.maximum(gaps, 1e-300))))) if gaps else 0.0
    return verdict


WORKLOADS = {
    "fig1-compare": (prepare_fig1, run_fig1, check_fig1),
    "fine-solve": (prepare_fine, run_fine, check_fine),
    "param-sweep": (prepare_sweep, run_sweep, check_sweep),
}
