"""Exact simulation of SIR epidemics with arbitrary recovery laws.

Transmission along each S-I link is Markovian with rate ``tau``; the
infectious period of each node is drawn from the configured recovery
distribution.  Because transmission is memoryless and each period is drawn
once, a run is a first-passage percolation (Kenah & Robins 2007, Phys. Rev. E
76:036113): draw one period T_u per node and one Exp(tau) delay d_uv per
directed edge, and keep u->v iff d_uv < T_u.  A node's infection time is then
its shortest-path distance from the seeds over the kept edges, weighted by
the delays, and it recovers T_v later.  A run draws, in this order, the seeds
(unless they are pinned), the N periods, and the delays of the ``graph.edges``
rows as u->v and then as v->u.

The distances come from a frontier relaxation: the kept edges are sorted by
source once, and each sweep relaxes only the out-edges of the nodes whose
time dropped in the previous sweep (the seeds first), from the times at the
sweep's start, until a sweep improves nothing.  Every candidate is a
left-to-right sum of delays along a path, so the times are the least such
sums whatever the order of relaxation.  The sweeps follow the hop depth of
the infection tree: at most about 20 on fig-1 runs, but O(N) on a ring.
A sweep costs O(edges it relaxes), so a ring's run is O(N) (see README).

The run ends at the last grid point (or at ``t_end``, should rounding put
that point past it): later arrivals are dropped, so the final size and the
last event times in the meta describe the run that the series show.  The
output grid is filled from per-node grid indices: a grid point counts every
infection and recovery at or before it, an edge is an S-I link from its
first endpoint's infection until that endpoint recovers or the other one is
infected, and an S-S link until either endpoint is infected.  Link counts
use the ordered convention ([SS] counts each link twice).

An ensemble runs several laws in one pass over the run index: run k of every
law uses graph k and RNG stream k, so each graph is built once whatever the
number of laws, and a law's runs are those of an ensemble of that law alone.
Runs share nothing, so they run on forked worker processes, one per CPU the
process may use (``os.sched_getaffinity``) and at most one per run, and
stream back in run order.  With one usable CPU or one run, without the fork
start method, or inside a daemonic worker (which may not have children) they
run in-process.  The output is byte-identical whatever the worker count, and
no option selects it.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from contextlib import contextmanager
from itertools import repeat

import numpy as np

from .network import RegularGraph, generate_regular
from .trajectory import SERIES_NAMES, EpidemicParams, Trajectory

__all__ = ["run_single", "run_ensembles"]

# Most output points t_end/dt_out + 1 a run takes (it peaks at ~90 bytes a point).
_MAX_GRID_POINTS = 1_000_000

# The job of the run_ensembles call that started this worker process; the
# pool initializer fills it (fork hands it over without pickling).
_JOB: dict = {}


def _first_passage(times, source, target, weight):
    """Least path lengths from the finite entries of ``times`` (updated in place).

    Each sweep relaxes the out-edges of the nodes that the previous sweep
    improved (the seeds first), from the times at the sweep's start, in
    O(those edges).  Returns (times, sweeps); the last sweep improves nothing.
    """
    order = np.argsort(source)
    target, weight = target[order], weight[order]
    starts = np.searchsorted(source[order], np.arange(len(times) + 1))
    out_degree = np.diff(starts)
    stamp = np.zeros(len(times), dtype=np.intp)
    frontier = np.flatnonzero(times < math.inf)
    sweeps = 0
    while frontier.size:
        sweeps += 1
        first, count = starts[frontier], out_degree[frontier]
        edges = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
        cand, dest = np.repeat(times[frontier], count) + weight[edges], target[edges]
        better = cand < times[dest]
        dest = dest[better]
        np.minimum.at(times, dest, cand[better])
        rank = np.arange(dest.size)
        stamp[dest] = rank
        frontier = dest[stamp[dest] == rank]  # each improved node once, with no sort
    return times, sweeps


def _check_run(num_nodes: int, params: EpidemicParams, dt_out: float) -> None:
    if params.initial_infected > num_nodes:
        raise ValueError("initial_infected exceeds the number of nodes")
    if not 0.0 < dt_out < math.inf:
        raise ValueError(f"dt_out must be positive and finite, got {dt_out}")
    points = params.t_end / dt_out + 1.0  # run_single's grid has floor(points) of them
    if points > _MAX_GRID_POINTS:
        raise ValueError(f"t_end/dt_out + 1 = {points:.4g} output points exceeds the limit of "
                         f"{_MAX_GRID_POINTS} points for a simulation run; increase dt_out")


def _meta(source: str, num_nodes, degree, params: EpidemicParams, I0, dt_out, **own) -> dict:
    """The head that every run's and ensemble's meta shares, then its ``own`` keys."""
    return {"source": source, "N": num_nodes, "n": degree, "tau": params.tau,
            "dist": params.dist.spec_string(), "I0": I0, "t_end": params.t_end,
            "dt_out": dt_out, **own}


def run_single(
    graph: RegularGraph,
    params: EpidemicParams,
    seed,
    dt_out: float = 0.1,
    initial_nodes=None,
) -> Trajectory:
    """Simulate one realisation and sample it onto a uniform grid.

    ``seed`` may be an int, a ``SeedSequence`` or a ``Generator``; equal seeds
    give bit-identical trajectories.  Initial infecteds are drawn uniformly
    without replacement unless ``initial_nodes`` pins them explicitly, as
    distinct node ids in ``[0, N)``.  What the relaxation cost (sweeps, kept
    edges and infections) is returned in ``extra["diag"]``.
    """
    _check_run(graph.num_nodes, params, dt_out)
    rng = np.random.default_rng(seed)
    num_nodes = graph.num_nodes
    dist, t_end = params.dist, params.t_end

    if initial_nodes is not None:
        seeds = [int(node) for node in initial_nodes]
        if len(set(seeds)) != len(seeds):
            raise ValueError("initial_nodes must be distinct")
        if not all(0 <= node < num_nodes for node in seeds):
            raise ValueError(f"initial_nodes must lie in [0, {num_nodes})")
    elif params.initial_infected:
        seeds = rng.choice(num_nodes, size=params.initial_infected, replace=False)
    else:
        seeds = []
    periods = np.asarray(dist.sample(rng, size=num_nodes), dtype=float)
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    source, target = np.concatenate((u, v)), np.concatenate((v, u))
    delays = rng.exponential(1.0 / params.tau, size=source.size)
    kept = np.flatnonzero(delays < periods[source])

    a = np.full(num_nodes, math.inf)
    a[np.asarray(seeds, dtype=np.intp)] = 0.0
    a, sweeps = _first_passage(a, source[kept], target[kept], delays[kept])
    n_out = int(np.floor(t_end / dt_out + 1e-9)) + 1
    grid = np.arange(n_out) * dt_out
    a[a > min(t_end, grid[-1])] = math.inf
    r = a + periods
    infected = a < math.inf

    def counts(idx):  # per grid point, how many of idx are at or before it
        return np.cumsum(np.bincount(idx, minlength=n_out + 1))[:n_out]

    # A time maps to the first grid point at or after it (n_out if none); the
    # map keeps order, so an edge's keys are min/max/where of its ends' keys.
    ia, ir = np.searchsorted(grid, a), np.searchsorted(grid, r)
    ever, recovered = counts(ia), counts(ir)
    ia_u, ia_v = ia[u], ia[v]
    linked = counts(np.minimum(ia_u, ia_v))
    first_rec = np.where(ia_u <= ia_v, ir[u], ir[v])
    si = linked - counts(np.minimum(first_rec, np.maximum(ia_u, ia_v)))
    total = int(np.count_nonzero(infected))
    meta = _meta(
        "simulation", num_nodes, graph.degree, params, len(seeds), dt_out,
        final_size=float(total),
        last_infection_time=float(a[infected].max()) if total else 0.0,
        last_recovery_time=float(r[infected].max()) if total else 0.0,
        total_infections=total,
    )
    diag = {"sweeps": sweeps, "kept_edges": kept.size, "infections": total}
    return Trajectory(
        grid, (num_nodes - ever).astype(float), (ever - recovered).astype(float),
        recovered.astype(float), si.astype(float), 2.0 * (len(u) - linked), meta, {"diag": diag},
    )


def _ensemble_run(k: int, job: dict = _JOB) -> list[Trajectory]:
    """Run k of every law of ``job``: graph k, or the one shared graph, under stream k."""
    graph = job["graph"] if "graph" in job else generate_regular(
        job["num_nodes"], job["degree"], job["graph_seed"] + 7919 * k
    )
    return [run_single(graph, params, job["streams"][k], job["dt_out"]) for params in job["laws"]]


def _worker_count(runs: int) -> int:
    """Processes for ``runs`` runs: one per usable CPU, at most ``runs``; 1 is in-process."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if min(cpus, runs) < 2:
        return 1
    # Imported here: a call that stays in-process pays nothing for it.
    import multiprocessing

    forkable = "fork" in multiprocessing.get_all_start_methods()
    if not forkable or multiprocessing.current_process().daemon:
        return 1
    return min(cpus, runs)


@contextmanager
def _ensemble_results(job: dict, runs: int):
    """Yield each run's trajectories in run order, computed on forked workers if several.

    The pool is closed and joined when the results are consumed, and
    terminated and joined if the consumer or a worker raises.
    """
    workers = _worker_count(runs)
    if workers == 1:
        yield map(_ensemble_run, range(runs), repeat(job))
        return
    import multiprocessing

    pool = multiprocessing.get_context("fork").Pool(workers, _JOB.update, (job,))
    try:
        # Runs go out in chunks, sized as Pool.map sizes them; one message per
        # run made the fig-1 ensembles about 0.07 s slower on two workers.
        yield pool.imap(_ensemble_run, range(runs), -(-runs // (4 * workers)))
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        pool.join()


def run_ensembles(
    laws: Sequence[EpidemicParams],
    *,
    num_nodes: int,
    degree: int,
    runs: int,
    base_seed: int,
    graph_seed: int = 1,
    fresh_graph_per_run: bool = True,
    dt_out: float = 0.1,
) -> list[tuple[Trajectory, Trajectory]]:
    """Run independent realisations of each law; one pointwise (mean, std) per law.

    Per-run RNG streams are spawned from ``base_seed``.  With
    ``fresh_graph_per_run`` run k has the graph of seed ``graph_seed + 7919
    k``; without it every run shares the one graph of ``graph_seed``, built
    once here and handed to the workers with the job.  The seeds name the
    graphs, and the meta records them.  Two calls with equal seeds produce
    bit-identical output.  The run index is the outer loop: graph k
    is built once and run k of every law uses it, with stream k of
    ``base_seed``, so each law's ensemble is bit-identical to a one-law call
    for that law alone.
    Standard deviations are population (ddof=0), so a single run reports zero
    spread.  The per-run trajectories, in run order, are kept in the mean's
    ``extra["runs"]``; their series are row views of one ``(runs, len(t))``
    array per series, and they share one grid.

    With more than one CPU in ``os.sched_getaffinity(0)`` (``os.cpu_count()``
    where that call is missing), the runs go to a pool of forked workers, one
    per such CPU and at most ``runs``.  Each worker receives the job once, when
    it starts; the runs stream back in run order and are copied into the
    stacks as they arrive.  One usable CPU, one run, no fork start method, or
    a caller that is itself a daemonic worker keeps every run in-process.
    The results are byte-identical whatever the worker count; there is no
    option to choose it.  ``runs``, ``dt_out`` and each law's
    ``initial_infected`` are checked before any run starts; an exception
    raised inside a run reaches the caller with its type and message, and no
    worker outlives the call.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    for params in laws:
        _check_run(num_nodes, params, dt_out)
    job = {"laws": list(laws), "streams": np.random.SeedSequence(base_seed).spawn(runs),
           "dt_out": dt_out, "num_nodes": num_nodes, "degree": degree, "graph_seed": graph_seed}
    if not fresh_graph_per_run:
        job["graph"] = generate_regular(num_nodes, degree, graph_seed)

    # Per law: one (runs, len(t)) array per series, filled row by row.
    stacks: list[dict[str, np.ndarray]] = [{} for _ in laws]
    run_lists: list[list[Trajectory]] = [[] for _ in laws]
    with _ensemble_results(job, runs) as streamed:
        for k, run in enumerate(streamed):
            for traj, stack, trajs in zip(run, stacks, run_lists):
                if not stack:
                    stack.update((name, np.empty((runs, len(traj.t)))) for name in SERIES_NAMES)
                for name, rows in stack.items():
                    rows[k] = traj.series(name)
                trajs.append(Trajectory(
                    trajs[0].t if trajs else traj.t,
                    **{name: rows[k] for name, rows in stack.items()},
                    meta=traj.meta, extra=traj.extra,
                ))

    results = []
    for params, stack, trajs in zip(laws, stacks, run_lists):
        meta = _meta(
            "simulation_ensemble", num_nodes, degree, params, params.initial_infected, dt_out,
            runs=runs, base_seed=base_seed, graph_seed=graph_seed,
            fresh_graph_per_run=fresh_graph_per_run,
        )
        grid = trajs[0].t
        mean = Trajectory(
            grid, **{k: np.mean(v, axis=0) for k, v in stack.items()},
            meta=meta, extra={"runs": trajs},
        )
        std = Trajectory(
            grid, **{k: np.std(v, axis=0) for k, v in stack.items()},
            meta={**meta, "statistic": "std"},
        )
        results.append((mean, std))
    return results
