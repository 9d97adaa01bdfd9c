"""Regular random networks and node/pair state counting.

Networks are undirected, unweighted, simple and n-regular, generated by stub
pairing (configuration model with suitable-pair matching and bounded
restarts).  Pair counts use the ordered convention: every undirected link is
counted in both directions, so an all-susceptible n-regular network has
``[SS] = N*n`` and one S-I link contributes exactly one ordered (S, I) pair.

Graphs are immutable after construction; shared read access from concurrent
simulation workers is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SUSCEPTIBLE",
    "INFECTED",
    "RECOVERED",
    "RegularGraph",
    "generate_regular",
    "count_pairs",
    "save_edge_list",
    "load_edge_list",
]

SUSCEPTIBLE, INFECTED, RECOVERED = 0, 1, 2


@dataclass(frozen=True)
class RegularGraph:
    """An n-regular simple undirected graph on ``num_nodes`` nodes."""

    num_nodes: int
    degree: int
    neighbors: tuple  # tuple of sorted tuples, one per node
    seed: int | None = None
    _edges: np.ndarray = field(repr=False, default=None)  # (m, 2) with i < j

    @property
    def edges(self) -> np.ndarray:
        """Undirected edge array of shape (N*n/2, 2) with i < j rows."""
        return self._edges

    def neighbor_lists(self) -> list[list[int]]:
        """Mutable copy of the adjacency, for hot loops."""
        return [list(nbrs) for nbrs in self.neighbors]

    def validate(self) -> None:
        """Check regularity, symmetry, and absence of loops/parallel edges."""
        seen = set()
        for i, nbrs in enumerate(self.neighbors):
            if len(nbrs) != self.degree:
                raise AssertionError(f"node {i} has degree {len(nbrs)} != {self.degree}")
            if len(set(nbrs)) != len(nbrs):
                raise AssertionError(f"node {i} has a parallel edge")
            for j in nbrs:
                if j == i:
                    raise AssertionError(f"node {i} has a self-loop")
                if i not in self.neighbors[j]:
                    raise AssertionError(f"edge {i}-{j} not symmetric")
                seen.add((min(i, j), max(i, j)))
        if 2 * len(seen) != self.num_nodes * self.degree:
            raise AssertionError("edge count inconsistent with N*n")


def _pair_stubs(num_nodes: int, degree: int, rng: np.random.Generator):
    """One pairing attempt; returns an edge set or None on a dead end."""
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


def _from_edges(num_nodes: int, degree: int, edges, seed: int | None) -> RegularGraph:
    """Assemble a graph from undirected (i, j) pairs with i < j."""
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return RegularGraph(
        num_nodes=num_nodes,
        degree=degree,
        neighbors=tuple(tuple(sorted(nbrs)) for nbrs in adj),
        seed=seed,
        _edges=np.array(sorted(edges), dtype=np.int64).reshape(-1, 2),
    )


def generate_regular(
    num_nodes: int, degree: int, seed: int, max_restarts: int = 200
) -> RegularGraph:
    """Generate a random n-regular simple graph, deterministic given ``seed``.

    Raises ``ValueError`` when ``num_nodes * degree`` is odd or the degree is
    infeasible, and ``RuntimeError`` if no simple pairing is found within
    ``max_restarts`` attempts.
    """
    if degree < 0 or num_nodes <= 0:
        raise ValueError("num_nodes must be positive and degree nonnegative")
    if (num_nodes * degree) % 2 != 0:
        raise ValueError("num_nodes * degree must be even")
    if degree >= num_nodes:
        raise ValueError("degree must be smaller than num_nodes")

    rng = np.random.default_rng(seed)
    edges = None
    for _ in range(max_restarts):
        edges = _pair_stubs(num_nodes, degree, rng)
        if edges is not None:
            break
    if edges is None:
        raise RuntimeError(
            f"no simple {degree}-regular graph found on {num_nodes} nodes "
            f"after {max_restarts} restarts; parameters may be infeasible"
        )

    return _from_edges(num_nodes, degree, edges, seed)


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


def save_edge_list(graph: RegularGraph, path) -> None:
    """Write the graph as an edge-list text file with a ``# N n seed`` header."""
    with open(path, "w", encoding="utf-8") as fh:
        seed = graph.seed if graph.seed is not None else -1
        fh.write(f"# {graph.num_nodes} {graph.degree} {seed}\n")
        for i, j in graph.edges:
            fh.write(f"{i} {j}\n")


def load_edge_list(path) -> RegularGraph:
    """Read a graph written by :func:`save_edge_list`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError("edge-list file must start with a '# N n seed' header")
        parts = header[1:].split()
        if len(parts) != 3:
            raise ValueError(f"malformed edge-list header {header!r}")
        num_nodes, degree, seed = int(parts[0]), int(parts[1]), int(parts[2])
        edges = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            i_s, j_s = line.split()
            i, j = int(i_s), int(j_s)
            if not (0 <= i < j < num_nodes):
                raise ValueError(f"bad edge line {line!r}")
            edges.append((i, j))
    graph = _from_edges(num_nodes, degree, edges, None if seed < 0 else seed)
    if any(len(nbrs) != degree for nbrs in graph.neighbors):
        raise ValueError("edge list does not describe a regular graph")
    return graph
