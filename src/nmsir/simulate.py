"""Exact event-driven simulation of SIR epidemics with arbitrary recovery laws.

Transmission along each S-I link is Markovian with rate ``tau``; the
infectious period of each node is drawn from the configured recovery
distribution.  When a node becomes infected, its recovery time is drawn
immediately and one candidate transmission time (an Exp(tau) delay) is drawn
per neighbor.  Candidates are validated lazily when popped: they fire only if
the target is still susceptible and the source has not yet recovered, which
is exact because transmission is memoryless.  Candidates that can never fire
(later than the source's recovery or the horizon) are dropped at scheduling
time; this does not change the law of the process.

Link counts [SI] and [SS] (ordered convention) are maintained incrementally
by scanning the flipped node's neighborhood, and sampled onto a uniform
output grid by last-event-carried-forward.
"""

from __future__ import annotations

import heapq

import numpy as np

from .network import INFECTED, RECOVERED, SUSCEPTIBLE, RegularGraph, generate_regular
from .trajectory import SERIES_NAMES, EpidemicParams, Trajectory

__all__ = ["run_single", "run_ensemble"]

_INFECTION, _RECOVERY = 0, 1


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
    without replacement unless ``initial_nodes`` pins them explicitly.
    """
    if params.initial_infected > graph.num_nodes:
        raise ValueError("initial_infected exceeds the number of nodes")
    rng = np.random.default_rng(seed)
    num_nodes = graph.num_nodes
    adjacency = graph.neighbor_lists()
    tau = params.tau
    dist = params.dist
    t_end = params.t_end

    n_out = int(np.floor(t_end / dt_out + 1e-9)) + 1
    grid = np.arange(n_out) * dt_out
    out = {name: np.empty(n_out) for name in ("S", "I", "R", "SI", "SS")}

    state = [SUSCEPTIBLE] * num_nodes
    s_count, i_count, r_count = num_nodes, 0, 0
    si_count = 0
    ss_count = sum(len(nbrs) for nbrs in adjacency)  # = N*n on a regular graph

    heap: list[tuple] = []
    seq = 0
    scale = 1.0 / tau
    last_infection = 0.0
    last_recovery = 0.0
    total_infections = 0

    def infect(node: int, t: float):
        nonlocal s_count, i_count, si_count, ss_count, seq, last_infection
        nonlocal total_infections
        state[node] = INFECTED
        s_count -= 1
        i_count += 1
        last_infection = t
        total_infections += 1
        rec_at = t + dist.sample(rng)
        heapq.heappush(heap, (rec_at, seq, _RECOVERY, node, -1))
        seq += 1
        nbrs = adjacency[node]
        delays = rng.exponential(scale, size=len(nbrs))
        for other, delay in zip(nbrs, delays):
            st = state[other]
            if st == SUSCEPTIBLE:
                ss_count -= 2
                si_count += 1
                t_cand = t + delay
                if t_cand < rec_at and t_cand <= t_end:
                    heapq.heappush(heap, (t_cand, seq, _INFECTION, other, node))
                    seq += 1
            elif st == INFECTED:
                si_count -= 1

    def recover(node: int, t: float):
        nonlocal i_count, r_count, si_count, last_recovery
        state[node] = RECOVERED
        i_count -= 1
        r_count += 1
        last_recovery = t
        for other in adjacency[node]:
            if state[other] == SUSCEPTIBLE:
                si_count -= 1

    if initial_nodes is not None:
        for node in initial_nodes:
            infect(int(node), 0.0)
    elif params.initial_infected:
        seeds = rng.choice(num_nodes, size=params.initial_infected, replace=False)
        for node in seeds:
            infect(int(node), 0.0)

    # Grid points before the next event (all of them once the heap is empty)
    # carry the current counts.
    g_idx = 0
    while True:
        t_next = heap[0][0] if heap else np.inf
        while g_idx < n_out and grid[g_idx] < t_next:
            out["S"][g_idx] = s_count
            out["I"][g_idx] = i_count
            out["R"][g_idx] = r_count
            out["SI"][g_idx] = si_count
            out["SS"][g_idx] = ss_count
            g_idx += 1
        if not heap:
            break
        _, _, kind, node, source = heapq.heappop(heap)
        if kind == _INFECTION:
            if state[node] == SUSCEPTIBLE and state[source] == INFECTED:
                infect(node, t_next)
        else:
            recover(node, t_next)

    meta = {
        "source": "simulation",
        "N": num_nodes,
        "n": graph.degree,
        "tau": params.tau,
        "dist": dist.spec_string(),
        "I0": params.initial_infected,
        "t_end": params.t_end,
        "dt_out": dt_out,
        "final_size": float(num_nodes - s_count),
        "last_infection_time": last_infection,
        "last_recovery_time": last_recovery,
        "total_infections": total_infections,
    }
    return Trajectory(grid, out["S"], out["I"], out["R"], out["SI"], out["SS"], meta)


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
    are kept in the mean's ``extra["runs"]``.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    run_streams = np.random.SeedSequence(base_seed).spawn(runs)
    if graph is None and not fresh_graph_per_run:
        graph = generate_regular(num_nodes, degree, graph_seed)
    if graph is not None:
        num_nodes, degree = graph.num_nodes, graph.degree

    trajs = []
    for k in range(runs):
        g = graph if graph is not None else generate_regular(
            num_nodes, degree, graph_seed + 7919 * k
        )
        trajs.append(run_single(g, params, np.random.default_rng(run_streams[k]), dt_out))
    grid = trajs[-1].t

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
    stacks = {k: np.vstack([traj.series(k) for traj in trajs]) for k in SERIES_NAMES}
    mean = Trajectory(
        grid, **{k: np.mean(v, axis=0) for k, v in stacks.items()},
        meta=dict(meta), extra={"runs": trajs},
    )
    std = Trajectory(
        grid, **{k: np.std(v, axis=0) for k, v in stacks.items()},
        meta={**meta, "statistic": "std"},
    )
    return mean, std
