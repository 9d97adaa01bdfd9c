"""Exact event-driven simulation of SIR epidemics with arbitrary recovery laws.

Transmission along each S-I link is Markovian with rate ``tau``; the
infectious period of each node is drawn from the configured recovery
distribution.  When a node becomes infected it consumes one block of
variates: its infectious period, then one candidate transmission time (an
Exp(tau) delay) per neighbor.  When the law draws its period as K standard
exponentials (exponential, Erlang and fixed laws, K = 1, K and 0), every
block is a run of standard exponentials, so a few calls draw the blocks of
the whole run and each infection reads its own at its offset; the uniform law
interleaves two distributions and draws block by block.  Either way the
stream is consumed in the same order, and a caller's generator is left where
block-by-block draws would leave it.

A candidate is kept only if it falls before the source's recovery and within
the horizon, and before the target's earliest kept candidate; this does not
change the law of the process, because transmission is memoryless and only a
target's earliest candidate can infect it.  Until a node is infected,
``infected_at`` holds its earliest kept candidate (a lazy decrease-key), and
a popped candidate is live iff its time still equals that entry; the pops
that infect, and so the order of the draws, are those of a loop that queues
every candidate aimed at a susceptible node.

Recoveries are never queued: a kept candidate always pops while its source is
still infectious, so the event loop only records each node's infection and
recovery time.  The output grid is then filled from those per-node times: a
grid point counts every infection and recovery at or before it, an edge is an
S-I link from its first endpoint's infection until that endpoint recovers or
the other one is infected, and an S-S link until either endpoint is infected.
Link counts use the ordered convention ([SS] counts each link twice).

An ensemble runs several laws in one pass over the run index: run k of every
law uses graph k and RNG stream k, so each graph is built once whatever the
number of laws, and a law's runs are those of an ensemble of that law alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from heapq import heappop, heappush

import numpy as np

from .network import RegularGraph, generate_regular
from .trajectory import SERIES_NAMES, EpidemicParams, Trajectory

__all__ = ["run_single", "run_ensemble", "run_ensembles"]


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
    distinct node ids in ``[0, N)``.  The event counts (heap pushes, pops,
    stale pops, infections) are returned in ``extra["diag"]``.
    """
    if params.initial_infected > graph.num_nodes:
        raise ValueError("initial_infected exceeds the number of nodes")
    if not 0.0 < dt_out < math.inf:
        raise ValueError(f"dt_out must be positive and finite, got {dt_out}")
    rng = np.random.default_rng(seed)
    num_nodes = graph.num_nodes
    adjacency = graph.neighbors
    dist, t_end, scale = params.dist, params.t_end, 1.0 / params.tau

    inf = math.inf
    infected_at = [inf] * num_nodes
    recovers_at = [inf] * num_nodes
    infection_times: list[float] = []  # nondecreasing: events pop in time order
    # t_cand <= t_end is t_cand < past_end, so one comparison with
    # min(recovery, past_end) keeps a candidate before the source recovers
    # and within the horizon.
    past_end = math.nextafter(t_end, inf)

    if initial_nodes is not None:
        seeds = [int(node) for node in initial_nodes]
        if len(set(seeds)) != len(seeds):
            raise ValueError("initial_nodes must be distinct")
        if not all(0 <= node < num_nodes for node in seeds):
            raise ValueError(f"initial_nodes must lie in [0, {num_nodes})")
    elif params.initial_infected:
        seeds = rng.choice(num_nodes, size=params.initial_infected, replace=False).tolist()
    else:
        seeds = []
    # The seeds are queued at t = 0 ahead of every candidate, in seed order.
    heap = [(0.0, k - len(seeds), node) for k, node in enumerate(seeds)]
    for node in seeds:
        infected_at[node] = 0.0

    # When the law's periods are K standard-exponential stages, every block is
    # a run of one standard-exponential stream, and infection j reads its
    # block at offset ``pos``.  The stream is drawn in a few calls, each at
    # least doubling it; a call that would pass half of ``most`` (enough for
    # every node to be infected) draws all of it.  Memoryviews yield Python
    # floats without building a list of every value.
    num_stages = dist.exponential_stages()
    if num_stages is not None:
        state = rng.bit_generator.state
        most = num_stages * num_nodes + sum(map(len, adjacency))
        # Nothing drawn yet; a fixed period still reads off the empty stream.
        stages, drawn = np.empty(0), 0
        periods, scaled = memoryview(dist.periods_from_stages(stages)), memoryview(stages)
    sample, exponential = dist.sample, rng.exponential
    pos = pushes = stale = 0
    while heap:
        t, _, node = heappop(heap)
        if t != infected_at[node]:
            stale += 1
            continue
        infection_times.append(t)
        nbrs = adjacency[node]
        if num_stages is None:
            rec_at = t + sample(rng)
            delays = exponential(scale, size=len(nbrs)).tolist()
        else:
            end = pos + num_stages + len(nbrs)
            if end > drawn:
                drawn = max(2 * drawn, end, 8192)
                drawn = most if 2 * drawn > most else drawn
                stages = np.concatenate((stages, rng.standard_exponential(drawn - len(stages))))
                periods = memoryview(dist.periods_from_stages(stages))
                scaled = memoryview(stages * scale)
            rec_at = t + periods[pos]
            delays = scaled[end - len(nbrs):end]
            pos = end
        recovers_at[node] = rec_at
        limit = rec_at if rec_at < past_end else past_end
        for other, delay in zip(nbrs, delays):
            t_cand = t + delay
            if t_cand < limit and t_cand < infected_at[other]:
                infected_at[other] = t_cand
                heappush(heap, (t_cand, pushes, other))
                pushes += 1
    pops = pushes  # candidates only (not the seeds): the heap is drained
    if num_stages is not None and isinstance(seed, np.random.Generator):
        # Leave a caller's generator where block-by-block draws would have.
        rng.bit_generator.state = state
        rng.standard_exponential(pos)

    n_out = int(np.floor(t_end / dt_out + 1e-9)) + 1
    grid = np.arange(n_out) * dt_out
    a, r = np.array(infected_at), np.array(recovers_at)
    ever = np.searchsorted(infection_times, grid, side="right")
    recovery_times = np.sort(r)
    recovered = np.searchsorted(recovery_times, grid, side="right")
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    first = np.minimum(a[u], a[v])
    last = np.maximum(a[u], a[v])
    first_rec = np.where(a[u] <= a[v], r[u], r[v])
    si_from = np.searchsorted(grid, first)
    si_to = np.searchsorted(grid, np.minimum(first_rec, last))
    si = np.cumsum(np.bincount(si_from, minlength=n_out + 1)
                   - np.bincount(si_to, minlength=n_out + 1))[:n_out]
    ss = 2 * (len(u) - np.searchsorted(np.sort(first), grid, side="right"))

    total = len(infection_times)
    meta = {
        "source": "simulation",
        "N": num_nodes,
        "n": graph.degree,
        "tau": params.tau,
        "dist": dist.spec_string(),
        "I0": params.initial_infected,
        "t_end": params.t_end,
        "dt_out": dt_out,
        "final_size": float(total),
        "last_infection_time": infection_times[-1] if total else 0.0,
        "last_recovery_time": float(recovery_times[total - 1]) if total else 0.0,
        "total_infections": total,
    }
    diag = {"pushes": pushes, "pops": pops, "stale_pops": stale, "infections": total}
    return Trajectory(
        grid, (num_nodes - ever).astype(float), (ever - recovered).astype(float),
        recovered.astype(float), si.astype(float), ss.astype(float), meta, {"diag": diag},
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
    """:func:`run_ensemble` for several laws at once, one (mean, std) per law.

    The run index is the outer loop: graph k is built once and run k of every
    law uses it, with stream k of ``base_seed``, so each law's ensemble is
    bit-identical to a :func:`run_ensemble` call for that law alone.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    run_streams = np.random.SeedSequence(base_seed).spawn(runs)
    if graph is None and not fresh_graph_per_run:
        graph = generate_regular(num_nodes, degree, graph_seed)
    if graph is not None:
        num_nodes, degree = graph.num_nodes, graph.degree

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


def run_ensemble(
    params: EpidemicParams,
    *,
    num_nodes: int,
    degree: int,
    runs: int,
    base_seed: int,
    graph_seed: int = 1,
    fresh_graph_per_run: bool = True,
    graph: RegularGraph | None = None,
    dt_out: float = 0.1,
) -> tuple[Trajectory, Trajectory]:
    """Run independent realisations; return pointwise (mean, std) trajectories.

    Per-run RNG streams are spawned from ``base_seed``, and per-run graph
    seeds from ``graph_seed`` when ``fresh_graph_per_run`` is set; a fixed
    ``graph`` may be supplied instead.  Two calls with equal seeds produce
    bit-identical output.  Standard deviations are population (ddof=0), so a
    single run reports zero spread.  The per-run trajectories, in run order,
    are kept in the mean's ``extra["runs"]``; their series are row views of
    one ``(runs, len(t))`` array per series, and they share one grid.
    """
    (result,) = run_ensembles(
        [params], num_nodes=num_nodes, degree=degree, runs=runs, base_seed=base_seed,
        graph_seed=graph_seed, fresh_graph_per_run=fresh_graph_per_run, graph=graph,
        dt_out=dt_out,
    )
    return result
