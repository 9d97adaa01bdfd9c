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
the infection tree: at most about 20 on fig-1 runs, but O(N) on a ring,
where each sweep relaxes only a few edges (the README gives the cost).

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
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .network import RegularGraph, generate_regular
from .trajectory import SERIES_NAMES, EpidemicParams, Trajectory

__all__ = ["run_single", "run_ensembles"]


def _first_passage(times, source, target, weight):
    """Least path lengths from the finite entries of ``times`` (updated in place).

    Each sweep relaxes the out-edges of the nodes that the previous sweep
    improved (the seeds first), all from the times at the sweep's start.
    Returns (times, sweeps); the last sweep is the one that improves nothing.
    """
    order = np.argsort(source)
    target, weight = target[order], weight[order]
    starts = np.searchsorted(source[order], np.arange(len(times) + 1))
    out_degree = np.diff(starts)
    improved = np.zeros(len(times), dtype=bool)
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
        improved[dest] = True
        frontier = np.flatnonzero(improved)
        improved[frontier] = False
    return times, sweeps


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
    if params.initial_infected > graph.num_nodes:
        raise ValueError("initial_infected exceeds the number of nodes")
    if not 0.0 < dt_out < math.inf:
        raise ValueError(f"dt_out must be positive and finite, got {dt_out}")
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
    meta = {
        "source": "simulation",
        "N": num_nodes,
        "n": graph.degree,
        "tau": params.tau,
        "dist": dist.spec_string(),
        "I0": len(seeds),
        "t_end": params.t_end,
        "dt_out": dt_out,
        "final_size": float(total),
        "last_infection_time": float(a[infected].max()) if total else 0.0,
        "last_recovery_time": float(r[infected].max()) if total else 0.0,
        "total_infections": total,
    }
    diag = {"sweeps": sweeps, "kept_edges": kept.size, "infections": total}
    return Trajectory(
        grid, (num_nodes - ever).astype(float), (ever - recovered).astype(float),
        recovered.astype(float), si.astype(float), 2.0 * (len(u) - linked), meta, {"diag": diag},
    )


def run_ensembles(
    laws: Sequence[EpidemicParams],
    *,
    num_nodes: int,
    degree: int,
    runs: int,
    base_seed: int,
    graph_seed: int = 1,
    fresh_graph_per_run: bool = True,
    graph: RegularGraph | None = None,
    dt_out: float = 0.1,
) -> list[tuple[Trajectory, Trajectory]]:
    """Run independent realisations of each law; one pointwise (mean, std) per law.

    Per-run RNG streams are spawned from ``base_seed``, and per-run graph
    seeds from ``graph_seed`` when ``fresh_graph_per_run`` is set; a fixed
    ``graph`` may be supplied instead, and the meta then records its shape
    and seed, with ``fresh_graph_per_run`` false.  Two calls with equal seeds
    produce bit-identical output.  The run index is the outer loop: graph k
    is built once and run k of every law uses it, with stream k of
    ``base_seed``, so each law's ensemble is bit-identical to a one-law call
    for that law alone.
    Standard deviations are population (ddof=0), so a single run reports zero
    spread.  The per-run trajectories, in run order, are kept in the mean's
    ``extra["runs"]``; their series are row views of one ``(runs, len(t))``
    array per series, and they share one grid.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    run_streams = np.random.SeedSequence(base_seed).spawn(runs)
    if graph is None and not fresh_graph_per_run:
        graph = generate_regular(num_nodes, degree, graph_seed)
    if graph is not None:
        num_nodes, degree = graph.num_nodes, graph.degree
        graph_seed, fresh_graph_per_run = graph.seed, False

    # Per law: one (runs, len(t)) array per series, filled row by row.
    stacks: list[dict[str, np.ndarray]] = [{} for _ in laws]
    run_lists: list[list[Trajectory]] = [[] for _ in laws]
    for k in range(runs):
        g = graph if graph is not None else generate_regular(
            num_nodes, degree, graph_seed + 7919 * k
        )
        for params, stack, trajs in zip(laws, stacks, run_lists):
            traj = run_single(g, params, run_streams[k], dt_out)
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
        meta = {
            "source": "simulation_ensemble",
            "N": num_nodes,
            "n": degree,
            "tau": params.tau,
            "dist": params.dist.spec_string(),
            "I0": params.initial_infected,
            "t_end": params.t_end,
            "dt_out": dt_out,
            "runs": runs,
            "base_seed": base_seed,
            "graph_seed": graph_seed,
            "fresh_graph_per_run": fresh_graph_per_run,
        }
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
