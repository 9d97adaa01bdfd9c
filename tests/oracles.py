"""Independent reference implementations used only as test oracles.

Nothing here may import from the modules it checks beyond plain data types:
the Gillespie simulator below is a from-scratch rejection-free direct method
for the Markovian SIR special case, used to cross-validate the simulator,
and the pair counter is a brute-force double loop that checks the vectorised
``count_pairs`` beside it (ordered pair counts of a node-state assignment,
kept here with the state constants because no library code needs them).
The percolation oracle checks the simulator's final sizes for every recovery
law without times or a heap.

The reference graph generator at the end is the plain-Python implementation
that the vectorised ``network`` code replaced; it draws from the generator in
the same order, so the fast code must reproduce its output bit for bit.  The
reference event loop after it is the event-driven simulator that the
percolation construction of ``simulate`` replaced.  It shares neither code
nor draw order with it, so the two are compared in distribution.  The
percolation run after that rebuilds a run from the draw order ``simulate``
documents, with a plain Dijkstra and per-grid-point state counts, so the
simulator must reproduce it bit for bit.  Likewise
the numpy RK4 march after it is the one the float-only march of
``reference`` replaced; it performs every operation in the same order, so
the closed-form references must come out identical on either march.  The
edge-based compartmental model at the end checks the pairwise solver for every
recovery law from the law's survival alone; it shares no code with ``solvers``
or ``reference``.
The renewal march at the very end, with its history kinds and step
closures, is the one whose four calls per step ``solvers`` folded into two;
``solvers._solve`` run on it must give every series bit for bit, and the
same error text where a step fails.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from nmsir.network import RegularGraph
from nmsir.solvers import StepContractionError

SUSCEPTIBLE, INFECTED, RECOVERED = 0, 1, 2


def _adjacency(graph: RegularGraph) -> list[list[int]]:
    """Each node's neighbours in increasing order, read from ``graph.edges``."""
    adjacency: list[list[int]] = [[] for _ in range(graph.num_nodes)]
    for i, j in graph.edges.tolist():
        adjacency[i].append(j)
        adjacency[j].append(i)
    return [sorted(nbrs) for nbrs in adjacency]


def count_pairs(graph: RegularGraph, states) -> tuple[int, int, int]:
    """Ordered pair counts ([SS], [SI], [II]) for a node-state assignment.

    ``states`` holds one of SUSCEPTIBLE/INFECTED/RECOVERED per node.  [SS] and
    [II] count both orientations of each link; [SI] counts ordered (S, I)
    pairs, i.e. each undirected S-I link exactly once.
    """
    st = np.asarray(states)
    if st.shape != (graph.num_nodes,):
        raise ValueError(
            f"states must have shape ({graph.num_nodes},), got {st.shape}"
        )
    u = graph.edges[:, 0]
    v = graph.edges[:, 1]
    su, sv = st[u], st[v]
    ss = 2 * int(np.count_nonzero((su == SUSCEPTIBLE) & (sv == SUSCEPTIBLE)))
    ii = 2 * int(np.count_nonzero((su == INFECTED) & (sv == INFECTED)))
    si = int(
        np.count_nonzero((su == SUSCEPTIBLE) & (sv == INFECTED))
        + np.count_nonzero((su == INFECTED) & (sv == SUSCEPTIBLE))
    )
    return ss, si, ii


def brute_force_pair_counts(graph: RegularGraph, states) -> tuple[int, int, int]:
    """Ordered ([SS], [SI], [II]) by enumerating every directed pair."""
    st = list(states)
    ss = si = ii = 0
    for i, nbrs in enumerate(_adjacency(graph)):
        for j in nbrs:
            if st[i] == SUSCEPTIBLE and st[j] == SUSCEPTIBLE:
                ss += 1
            elif st[i] == SUSCEPTIBLE and st[j] == INFECTED:
                si += 1
            elif st[i] == INFECTED and st[j] == INFECTED:
                ii += 1
    return ss, si, ii


def gillespie_final_size(
    graph: RegularGraph,
    tau: float,
    gamma: float,
    initial_infected: int,
    rng: np.random.Generator,
) -> int:
    """Final size of one Markovian SIR run via the direct Gillespie method.

    Maintains the set of S-I links explicitly; at each step the next event
    time is exponential in the total rate and the event type is chosen
    proportionally.  Returns the number of ever-infected nodes.
    """
    num_nodes = graph.num_nodes
    state = [SUSCEPTIBLE] * num_nodes
    adjacency = _adjacency(graph)

    # Sampleable set of directed (infected -> susceptible) links.
    links: list[tuple[int, int]] = []
    link_pos: dict[tuple[int, int], int] = {}

    def add_link(item):
        link_pos[item] = len(links)
        links.append(item)

    def drop_link(item):
        pos = link_pos.pop(item)
        last = links.pop()
        if pos != len(links):
            links[pos] = last
            link_pos[last] = pos

    infected: list[int] = []
    infected_pos: dict[int, int] = {}

    def infect(node):
        state[node] = INFECTED
        infected_pos[node] = len(infected)
        infected.append(node)
        for other in adjacency[node]:
            if state[other] == SUSCEPTIBLE:
                add_link((node, other))
            elif state[other] == INFECTED and (other, node) in link_pos:
                drop_link((other, node))

    def recover(node):
        state[node] = RECOVERED
        pos = infected_pos.pop(node)
        last = infected.pop()
        if pos != len(infected):
            infected[pos] = last
            infected_pos[last] = pos
        for other in adjacency[node]:
            if state[other] == SUSCEPTIBLE:
                drop_link((node, other))

    seeds = rng.choice(num_nodes, size=initial_infected, replace=False)
    for node in seeds:
        infect(int(node))

    total_infected = initial_infected
    while infected:
        rate_inf = tau * len(links)
        rate_rec = gamma * len(infected)
        total = rate_inf + rate_rec
        rng.exponential(1.0 / total)  # waiting time; only the order matters here
        if rng.random() * total < rate_inf:
            source, target = links[rng.integers(len(links))]
            infect(target)
            total_infected += 1
        else:
            recover(infected[rng.integers(len(infected))])
    return total_infected


def percolation_final_size(
    graph: RegularGraph,
    tau: float,
    dist,
    initial_infected: int,
    rng: np.random.Generator,
) -> int:
    """Final size of one SIR run as a percolation out-component.

    With Markovian transmission at rate ``tau``, u infects v iff an Exp(tau)
    delay drawn for the directed edge u->v falls below u's infectious period
    (Kenah & Robins 2007, Phys. Rev. E 76:036113).  So one period per node,
    one delay per directed edge and one seed set give the epidemic's final
    size as the number of nodes reachable from the seeds over the kept edges.
    """
    num_nodes = graph.num_nodes
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    source, target = np.concatenate([u, v]), np.concatenate([v, u])
    periods = np.asarray(dist.sample(rng, size=num_nodes), dtype=float)
    kept = rng.exponential(1.0 / tau, size=source.size) < periods[source]
    seeds = rng.choice(num_nodes, size=initial_infected, replace=False)
    # Node num_nodes is a root with an edge to every seed.
    rows = np.concatenate([source[kept], np.full(seeds.size, num_nodes)])
    cols = np.concatenate([target[kept], seeds])
    links = csr_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(num_nodes + 1,) * 2
    )
    reached = breadth_first_order(links, num_nodes, directed=True, return_predecessors=False)
    return reached.size - 1


def _reference_pair_stubs(num_nodes: int, degree: int, rng: np.random.Generator):
    """One pairing attempt, one Python pair at a time; an edge set or None."""
    edges: set[tuple[int, int]] = set()
    stubs = np.repeat(np.arange(num_nodes), degree)
    while stubs.size:
        rng.shuffle(stubs)
        progress = False
        leftover: list[int] = []
        flat = stubs.tolist()
        for u, v in zip(flat[0::2], flat[1::2]):
            if u == v:
                leftover.extend((u, v))
                continue
            key = (u, v) if u < v else (v, u)
            if key in edges:
                leftover.extend((u, v))
                continue
            edges.add(key)
            progress = True
        if not progress:
            return None
        stubs = np.asarray(leftover, dtype=np.int64)
    return edges


def reference_regular_graph(num_nodes: int, degree: int, seed: int, max_restarts: int = 200):
    """The edges of ``generate_regular(num_nodes, degree, seed)``.

    Returns the (m, 2) int64 array of sorted (i, j) rows with i < j.
    """
    rng = np.random.default_rng(seed)
    for _ in range(max_restarts):
        edges = _reference_pair_stubs(num_nodes, degree, rng)
        if edges is not None:
            break
    else:
        raise RuntimeError("no simple pairing found")
    return np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)


def reference_run_single(graph: RegularGraph, params, seed, dt_out=0.1, initial_nodes=None):
    """(series, meta) of one event-driven run with recovery events in the heap.

    Node and link counts are updated incrementally at every infection and
    recovery and carried forward onto the output grid; ``series`` maps
    S, I, R, SI, SS to float arrays.
    """
    rng = np.random.default_rng(seed)
    num_nodes = graph.num_nodes
    adjacency = _adjacency(graph)
    dist, t_end, scale = params.dist, params.t_end, 1.0 / params.tau

    n_out = int(np.floor(t_end / dt_out + 1e-9)) + 1
    grid = np.arange(n_out) * dt_out
    out = {name: np.empty(n_out) for name in ("S", "I", "R", "SI", "SS")}

    state = [SUSCEPTIBLE] * num_nodes
    s_count, i_count, r_count = num_nodes, 0, 0
    si_count = 0
    ss_count = sum(len(nbrs) for nbrs in adjacency)

    infection, recovery = 0, 1
    heap: list[tuple] = []
    seq = 0
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
        heapq.heappush(heap, (rec_at, seq, recovery, node, -1))
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
                    heapq.heappush(heap, (t_cand, seq, infection, other, node))
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
        if kind == infection:
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
    return out, meta


def reference_percolation_run(graph: RegularGraph, params, seed, dt_out=0.1,
                              initial_nodes=None):
    """(series, meta) of one run built the way ``simulate`` documents it.

    Draws, in order, the seeds (unless pinned), one period per node and one
    Exp(tau) delay per directed edge (the ``graph.edges`` rows as u->v, then
    as v->u), keeps u->v iff its delay is below u's period, and takes each
    node's infection time as its distance from the seeds by a plain-Python
    Dijkstra.  Each grid point then counts node states directly: a node is
    infected from its infection time until its recovery, and the ordered
    pair counts are taken over the edge list.
    """
    rng = np.random.default_rng(seed)
    num_nodes = graph.num_nodes
    if initial_nodes is not None:
        seeds = [int(node) for node in initial_nodes]
    elif params.initial_infected:
        seeds = rng.choice(num_nodes, size=params.initial_infected, replace=False).tolist()
    else:
        seeds = []
    periods = np.asarray(params.dist.sample(rng, size=num_nodes), dtype=float)
    u, v = graph.edges[:, 0].tolist(), graph.edges[:, 1].tolist()
    delays = rng.exponential(1.0 / params.tau, size=2 * len(u)).tolist()

    out_edges: list[list[tuple[int, float]]] = [[] for _ in range(num_nodes)]
    for (a, b), delay in zip(list(zip(u, v)) + list(zip(v, u)), delays):
        if delay < periods[a]:
            out_edges[a].append((b, delay))
    best = [np.inf] * num_nodes
    for node in seeds:
        best[node] = 0.0
    heap = [(0.0, node) for node in seeds]
    done = [False] * num_nodes
    while heap:
        t, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        for other, delay in out_edges[node]:
            if t + delay < best[other]:
                best[other] = t + delay
                heapq.heappush(heap, (t + delay, other))

    n_out = int(np.floor(params.t_end / dt_out + 1e-9)) + 1
    grid = (np.arange(n_out) * dt_out)[:, None]
    # The run ends at the last grid point, or at t_end if that comes first.
    infected_at = np.array(best)
    infected_at[infected_at > min(params.t_end, grid[-1, 0])] = np.inf
    recovered_at = infected_at + periods
    susceptible = infected_at > grid
    infected = (infected_at <= grid) & (recovered_at > grid)
    ends = graph.edges.T
    ss = 2 * np.sum(susceptible[:, ends[0]] & susceptible[:, ends[1]], axis=1)
    si = np.sum(susceptible[:, ends[0]] & infected[:, ends[1]]
                | infected[:, ends[0]] & susceptible[:, ends[1]], axis=1)
    out = {
        "S": susceptible.sum(axis=1).astype(float),
        "I": infected.sum(axis=1).astype(float),
        "R": (recovered_at <= grid).sum(axis=1).astype(float),
        "SI": si.astype(float),
        "SS": ss.astype(float),
    }
    ever = np.isfinite(infected_at)
    meta = {
        "source": "simulation",
        "N": num_nodes,
        "n": graph.degree,
        "tau": params.tau,
        "dist": params.dist.spec_string(),
        "I0": len(seeds),
        "t_end": params.t_end,
        "dt_out": dt_out,
        "final_size": float(ever.sum()),
        "last_infection_time": float(infected_at[ever].max()) if ever.any() else 0.0,
        "last_recovery_time": float(recovered_at[ever].max()) if ever.any() else 0.0,
        "total_infections": int(ever.sum()),
    }
    return out, meta


def reference_march_delay_rk4(rhs, u0, h: float, steps: int, jumps: dict | None = None):
    """Classical RK4 with node history, Hermite delayed lookup, node jumps.

    The numpy march the closed-form references ran on before they moved to
    Python floats: every state, stage and lookup is an ndarray row.

    ``rhs(t, u, lookup, t0)`` receives the step's starting node time ``t0``
    for branch decisions.  ``jumps`` maps node index -> fn(u) -> u, applied
    after the step landing on that node; the pre-jump state and left-limit
    derivative stay available to interpolation of the preceding panel.
    Delayed arguments must trail the current time by at least one step.
    """
    jumps = jumps or {}
    u0 = np.asarray(u0, dtype=float)
    m = u0.size
    U = np.empty((steps + 1, m))
    D = np.zeros((steps + 1, m))
    U[0] = u0
    pre_jump: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def lookup(tq: float) -> np.ndarray:
        j = tq / h
        j0 = int(j)
        theta = j - j0
        if theta < 1e-9:
            return U[j0]
        if theta > 1.0 - 1e-9:
            return U[j0 + 1]
        right = pre_jump.get(j0 + 1)
        u_r, d_r = right if right is not None else (U[j0 + 1], D[j0 + 1])
        t2 = theta * theta
        t3 = t2 * theta
        return (
            (2 * t3 - 3 * t2 + 1) * U[j0]
            + ((t3 - 2 * t2 + theta) * h) * D[j0]
            + (-2 * t3 + 3 * t2) * u_r
            + ((t3 - t2) * h) * d_r
        )

    for k in range(steps):
        t0 = k * h
        uk = U[k]
        k1 = rhs(t0, uk, lookup, t0)
        D[k] = k1
        k2 = rhs(t0 + 0.5 * h, uk + 0.5 * h * k1, lookup, t0)
        k3 = rhs(t0 + 0.5 * h, uk + 0.5 * h * k2, lookup, t0)
        k4 = rhs(t0 + h, uk + h * k3, lookup, t0)
        u_new = uk + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) in jumps:
            d_pre = rhs((k + 1) * h, u_new, lookup, t0)
            pre_jump[k + 1] = (u_new.copy(), np.asarray(d_pre, dtype=float))
            u_new = jumps[k + 1](u_new)
        U[k + 1] = u_new
    D[steps] = rhs(steps * h, U[steps], lookup, (steps - 1) * h)
    return U


def edge_based_susceptibles(dist, tau: float, degree: int, num_nodes: int,
                            initial_infected: int, t_end: float, h: float, refine: int = 8):
    """[S] on the grid 0, h, ..., t_end from the edge-based compartmental model.

    Miller, Slim & Volz (2012) reduce SIR with Markovian transmission at rate
    ``tau`` and any recovery law on a configuration-model graph to one scalar
    Volterra equation for theta(t), the probability that a given neighbour has
    not yet transmitted.  On an n-regular graph seeded with a fraction rho of
    newborn infecteds::

        1 - theta(t) = rho K(t) + (1 - rho) int_0^t K(t - s) d[-theta(s)^(n-1)]
        K(a) = tau int_0^a xi(v) exp(-tau v) dv,   [S](t) = N (1 - rho) theta^n

    It uses only ``dist.survival`` (xi).  K comes from the midpoint rule on a
    grid ``refine`` times finer than ``h``, so a jump of xi on that grid, as
    at a fixed period's atom, is integrated exactly.  The Stieltjes integral
    takes K at the midpoint of each step, and each step solves for theta by
    fixed-point iteration.
    """
    steps = int(round(t_end / h))
    rho = initial_infected / num_nodes
    fine = h / refine
    ages = (np.arange(steps * refine) + 0.5) * fine
    kernel = np.concatenate(
        ([0.0], np.cumsum(np.asarray(dist.survival(ages)) * np.exp(-tau * ages)) * tau * fine)
    )
    k_node = kernel[::refine]  # K(j h), j = 0..steps
    k_mid = kernel[refine // 2::refine]  # K((m + 1/2) h), m = 0..steps-1
    k_mid_rev = k_mid[::-1].copy()
    theta = np.ones(steps + 1)
    drop = np.zeros(steps + 1)  # drop[i] = u(t_{i-1}) - u(t_i), u = theta^(n-1)
    u_prev = 1.0
    for j in range(1, steps + 1):
        # sum_{i<j} K((j - i + 1/2) h) drop[i]; the step's own term is solved for below.
        history = k_mid_rev[steps - j:steps - 1] @ drop[1:j]
        known = 1.0 - rho * k_node[j] - (1.0 - rho) * (history + k_mid[0] * u_prev)
        th = theta[j - 1]
        for _ in range(100):
            new = known + (1.0 - rho) * k_mid[0] * th ** (degree - 1)
            converged = abs(new - th) <= 1e-15
            th = new
            if converged:
                break
        theta[j] = th
        drop[j] = u_prev - th ** (degree - 1)
        u_prev = th ** (degree - 1)
    return np.arange(steps + 1) * h, num_nodes * (1.0 - rho) * theta**degree


# -- the renewal march with four calls per step -------------------------------
# Copied unchanged from ``solvers``: each step called ``next_sum``, ``step``,
# ``weight`` and ``push``, and every node's history value was recorded.

# Sweeps the pairwise corrector may run in one step; a step that needs more
# is reported rather than marched on.
_MAX_CORRECTOR_SWEEPS = 50

# Pairwise corrector's remaining [S] error per step, relative to [S] on its
# first sweep and to max(1, [S]) on later ones.
_CORRECTOR_TOL = 1e-5


class _History(NamedTuple):
    """The renewal march's memory of its pushed weights w_0, w_1, ...

    ``next_sum()`` is h sum_i w_i K_{k+1-i} over the k+1 weights pushed so
    far and the model's kernel K, the history sum for the step to node k+1
    without its half term (the step adds it); ``push(w)`` appends a weight.
    """

    next_sum: Callable[[], float]
    push: Callable[[float], None]


def _weight_history(kernel: np.ndarray, h: float, steps: int, window: int | None) -> _History:
    """The full kind (``window`` None) and the windowed kind: every weight stored.

    ``next_sum`` is one numpy dot product over the stored weights and the
    reversed ``kernel``, O(k) at step k and O(steps^2) in all; the windowed
    kind sums only the last ``window`` weights, for a kernel that is zero
    past node ``window``.
    """
    xi_rev = kernel[::-1].copy()
    weight = np.zeros(steps + 1)
    reach = steps if window is None else window
    count = 0

    def next_sum():
        lo = count - reach if count > reach else 0
        return h * float(np.dot(weight[lo:count], xi_rev[steps - count + lo : steps]))

    def push(w):
        nonlocal count
        weight[count] = w
        count += 1

    return _History(next_sum, push)


def _stage_history(stages: int, rate: float, decay: float, h: float) -> _History:
    """The stage kind, for the kernel xi(a) e^{-da} with the survival
    xi(a) = e^{-ra} sum_{j<K} (ra)^j / j!.

    Keeps A_j = sum_i w_i e^{-(r+d)(t-t_i)} (r(t-t_i))^j / j! for j < K,
    whose sum over j is sum_i w_i xi(t - t_i) e^{-d(t-t_i)} (the linear
    chain trick).  No weight is stored: a new weight enters A_0, and a step
    moves the sums on in place, A_j <- sum_{l<=j} c_{j-l} A_l with
    c_m = e^{-(r+d)h} (rh)^m / m!, j running downwards so each A_l (l < j)
    is read before it is overwritten.  Every coefficient is positive, so
    nothing cancels.  O(K^2) Python float operations per step.
    """
    rh = rate * h
    c = [math.exp(-(rate + decay) * h) * rh**m / math.factorial(m) for m in range(stages)]
    c0 = c[0]
    # (j, [(l, c_{j-l}) for l < j]) for j = K-1 .. 0.
    rows = [(j, list(zip(range(j), c[j:0:-1]))) for j in range(stages - 1, -1, -1)]
    sums = [0.0] * stages

    def next_sum():
        for j, row in rows:
            total = c0 * sums[j]
            for l, cl in row:
                total += cl * sums[l]
            sums[j] = total
        return h * sum(sums)

    def push(w):
        sums[0] += w

    return _History(next_sum, push)


def _march_renewal(*, step, weight, boundary: np.ndarray, jump: int | None = None, x0: float,
                   h: float, history: _History):
    """Advance the coupled ODE + renewal system on the grid of ``boundary``.

    Returns (x, y, y_hist) arrays of the boundary's length.  Per step the
    model's ``step(k, x_k, y_k, y_{k-1}, hist, b_left)`` returns the new
    (x, y, damp), y on the left of a jump and damp the factor the step put
    on its boundary value b_left, and ``weight(x, y)`` the history weight W.
    ``history`` holds the weights, node 0's halved (the trapezoid end rule),
    and gives one sum per step.  An ``ArithmeticError`` in a step is
    reported as ``StepContractionError``.

    When the boundary term drops at node ``jump`` (newborn infecteds under a
    point-mass recovery law all leave at sigma, making y itself jump there),
    the step landing on the jump solves for the left limit, which is the
    boundary one node earlier (a point mass survives with probability 1
    before its atom); the committed series carries the right limit and the
    history buffer their midpoint, mirroring the kernel treatment, so the
    trapezoid stays second order.
    """
    # Per-step work runs on Python floats and lists, because numpy scalar
    # arithmetic costs several times more per operation.
    b = boundary.tolist()
    next_sum, push = history.next_sum, history.push

    xk, yk = float(x0), b[0]
    y_prev = yk  # so a linear predictor starts from y_0
    x, y, y_hist = [xk], [yk], [yk]
    push(0.5 * weight(xk, yk))  # the trapezoid's half end weight

    try:
        for k in range(len(b) - 1):
            at_jump = k + 1 == jump
            b_left = b[k] if at_jump else b[k + 1]
            xs, ys, damp = step(k, xk, yk, y_prev, next_sum(), b_left)
            y_prev, xk, yk = yk, xs, ys + damp * (b[k + 1] - b_left)
            yh = ys + damp * (0.5 * (b_left + b[k + 1]) - b_left) if at_jump else yk
            x.append(xk)
            y.append(yk)
            y_hist.append(yh)
            push(weight(xs, yh))
    except ArithmeticError as exc:
        raise StepContractionError(
            f"renewal march failed in the step to t={(k + 1) * h:.6g} "
            f"({type(exc).__name__}: {exc}); reduce the step size h={h}"
        ) from exc
    return np.array(x), np.array(y), np.array(y_hist)


def _meanfield_step(coupling: float, xi0: float, h: float):
    """The mean-field (step, weight) pair: each step solved in closed form.

    With the new incidence w = c x y (c = tau n/N), C = x_k + h f_k/2 and
    A = hist + b_left, the trapezoid equations x = C - h w/2 and
    y = A + h xi0 w/2 turn w = c x y into a2 w^2 + a1 w - c C A = 0, with
    a2 = c h^2 xi0/4 and a1 = 1 - h c (C xi0 - A)/2.  Its nonnegative root is
    taken as 2 c C A / (a1 + sqrt(a1^2 + 4 a2 c C A)), which does not
    cancel.  No sweep leaves a residual, so S + I = N holds to rounding
    before the first recovery.  C < 0, A < 0 or a denominator <= 0 leave no
    nonnegative root, and the step fails.
    """
    half_h = 0.5 * h
    a2 = 0.25 * coupling * h * h * xi0

    def step(k, xk, yk, y_prev, hist, b_left):
        C = xk - half_h * (coupling * xk * yk)
        A = hist + b_left
        cca = coupling * C * A
        a1 = 1.0 - half_h * coupling * (C * xi0 - A)
        root = a1 + math.sqrt(a1 * a1 + 4.0 * a2 * cca) if C >= 0.0 and A >= 0.0 else math.nan
        if not root > 0.0:
            raise StepContractionError(
                f"mean-field step to t={(k + 1) * h:.6g} has no nonnegative solution "
                f"([S] part {C:.6g}, [I] part {A:.6g}); reduce the step size h={h}"
            )
        w = 2.0 * cca / root
        return C - half_h * w, A + half_h * xi0 * w, 1.0

    return step, lambda s, i: coupling * s * i


def _pairwise_step(tau: float, n: float, N: float, S0: float, xi0: float, h: float):
    """The pairwise (step, weight) pair: [SI] solved exactly, a corrector on [S].

    The history holds W = tau kappa [S]^(-1/n) [SI] against xi(a) e^(-tau a),
    so with A = hist + [S]0^(-beta) e^(-tau t_{k+1}) b_left the step's
    renewal equation [SI] = [S]^beta A + h xi0 tau kappa [S]^alpha [SI]/2
    (alpha = (n-2)/n) is linear in [SI]: [SI] = [S]^beta A / (1 - h xi0 tau
    kappa [S]^alpha/2).  The jump's left limit b_left is damped at t_{k+1}
    too, like the rest of the step.  A fixed-point sweep then takes
    [S] <- T([S]) = [S]_k - h tau ([SI]_k + [SI])/2 from a predictor that
    extrapolates [SI] linearly.  [SI] rises with [S] (A >= 0), so the residual
    F = [S] - T([S]) has slope F' >= 1 and a sweep's correction
    |T(x) - x| bounds the error |T(x) - [S]*| of its result: the step is done
    when the correction is within ``_CORRECTOR_TOL`` times T(x) >= 0 on the
    first sweep, where the predictor may be far off relative to a [S] below
    one node, and times max(1, T(x)) on later sweeps.  An iterate [S] < 0, or
    one whose denominator is not positive (no [SI] >= 0 solves the step),
    gives nan and fails the step at once; so does needing more than
    ``_MAX_CORRECTOR_SWEEPS`` sweeps.
    """
    half_h_tau = 0.5 * h * tau
    tau_kappa = tau * ((n - 1.0) / N * S0 ** (2.0 / n))
    alpha, beta, inv_n = (n - 2.0) / n, (n - 1.0) / n, 1.0 / n
    implicit, boundary_scale = 0.5 * h * xi0 * tau_kappa, S0**-beta

    def step(k, xk, yk, y_prev, hist, b_left):
        damp_s0 = boundary_scale * math.exp(-tau * (k + 1) * h)
        A = hist + damp_s0 * b_left
        xs = xk - half_h_tau * (3.0 * yk - y_prev)
        for sweep in range(_MAX_CORRECTOR_SWEEPS):
            den = 1.0 - implicit * xs**alpha if xs >= 0.0 else math.nan
            ys = xs**beta * A / den if den > 0.0 else math.nan
            x_new = xk - half_h_tau * (yk + ys)
            delta = abs(x_new - xs)
            scale = x_new if sweep == 0 else max(1.0, x_new)
            if x_new >= 0.0 and delta <= _CORRECTOR_TOL * scale:
                return x_new, ys, xs**beta * damp_s0
            if math.isnan(delta):
                break
            xs = x_new
        if math.isnan(delta):
            why = "a sweep found no [S] >= 0 with a positive denominator (residual nan)"
        else:
            why = f"no convergence within {_MAX_CORRECTOR_SWEEPS} sweeps (residual {delta:.3e})"
        raise StepContractionError(
            f"pairwise step to t={(k + 1) * h:.6g} failed: {why}; reduce the step size h={h}"
        )

    return step, lambda s, si: tau_kappa * si / s**inv_n if s > 0.0 else 0.0
