"""Regular random networks: generation, validation and edge-list I/O.

Networks are undirected, unweighted, simple and n-regular, generated by stub
pairing (configuration model with suitable-pair matching, after Steger and
Wormald 1999, and bounded restarts).  Each pairing pass is one shuffle of the
open stubs followed by array operations on edge keys ``i*N + j``, so a graph
costs a few numpy calls per pass rather than a Python step per stub.

A graph is its edge array alone: one row ``(i, j)`` with i < j per link.
Graphs are immutable after construction (the edge array is a read-only
copy).  Edge lists read from files must describe a simple regular graph:
repeated edges and unequal degrees are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RegularGraph",
    "generate_regular",
    "save_edge_list",
    "load_edge_list",
]

# Pairing passes generate_regular tries before it gives up on a shape.
_MAX_RESTARTS = 200


@dataclass(frozen=True, eq=False)
class RegularGraph:
    """An n-regular simple undirected graph on ``num_nodes`` nodes.

    ``edges`` is stored as a read-only int64 array of shape (N*n/2, 2) whose
    rows ``(i, j)`` have i < j.  Graphs compare and hash by identity.
    """

    num_nodes: int
    degree: int
    edges: np.ndarray = field(repr=False)
    seed: int | None = None

    def __post_init__(self):
        edges = np.array(self.edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    def validate(self) -> None:
        """Check the row order and range, that no row repeats, and every degree.

        Raises ``ValueError``: the edges may come from outside the package,
        as in :func:`load_edge_list`.
        """
        i, j = self.edges[:, 0], self.edges[:, 1]
        if not np.all((0 <= i) & (i < j) & (j < self.num_nodes)):
            raise ValueError(f"edge rows must satisfy 0 <= i < j < {self.num_nodes}")
        if np.unique(i * self.num_nodes + j).size != i.size:
            raise ValueError("an edge is listed more than once")
        if not np.all(np.bincount(self.edges.ravel(), minlength=self.num_nodes) == self.degree):
            raise ValueError(f"not every node has degree {self.degree}; the graph is not regular")


def _pair_stubs(num_nodes: int, degree: int, rng: np.random.Generator):
    """One pairing attempt; sorted edge keys ``i*N + j`` (i < j), or None on a dead end.

    Each pass shuffles the open stubs and reads them as consecutive pairs.  A
    pair is rejected if it is a loop, if its edge was accepted in an earlier
    pass, or if it repeats a pair seen earlier in the same pass; the rejected
    pairs stay open, in pair order, for the next pass.  A pass that accepts
    nothing is a dead end.
    """
    accepted = np.empty(0, dtype=np.int64)
    stubs = np.repeat(np.arange(num_nodes, dtype=np.int64), degree)
    while stubs.size:
        rng.shuffle(stubs)
        u, v = stubs[0::2], stubs[1::2]
        keys = np.minimum(u, v) * num_nodes + np.maximum(u, v)
        # First occurrence of each key within the pass, in pair order.
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        first = np.empty(keys.size, dtype=bool)
        first[order] = np.concatenate(([True], ranked[1:] != ranked[:-1]))
        ok = (u != v) & first
        if accepted.size:
            pos = np.minimum(np.searchsorted(accepted, keys), accepted.size - 1)
            ok &= accepted[pos] != keys
        if not ok.any():
            return None
        accepted = np.sort(np.concatenate((accepted, keys[ok])))
        stubs = np.column_stack((u[~ok], v[~ok])).ravel()
    return accepted


def _from_keys(num_nodes: int, degree: int, keys: np.ndarray, seed: int | None) -> RegularGraph:
    """Assemble a graph from sorted, distinct edge keys ``i*N + j`` with i < j."""
    return RegularGraph(num_nodes, degree, np.column_stack(np.divmod(keys, num_nodes)), seed)


def generate_regular(num_nodes: int, degree: int, seed: int) -> RegularGraph:
    """Generate a random n-regular simple graph, deterministic given ``seed``.

    Raises ``ValueError`` when ``num_nodes * degree`` is odd or the degree is
    infeasible, and ``RuntimeError`` if no simple pairing is found within
    ``_MAX_RESTARTS`` attempts.
    """
    if degree < 0 or num_nodes <= 0:
        raise ValueError("num_nodes must be positive and degree nonnegative")
    if (num_nodes * degree) % 2 != 0:
        raise ValueError("num_nodes * degree must be even")
    if degree >= num_nodes:
        raise ValueError("degree must be smaller than num_nodes")

    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RESTARTS):
        keys = _pair_stubs(num_nodes, degree, rng)
        if keys is not None:
            return _from_keys(num_nodes, degree, keys, seed)
    raise RuntimeError(
        f"no simple {degree}-regular graph found on {num_nodes} nodes "
        f"after {_MAX_RESTARTS} restarts; parameters may be infeasible"
    )


def save_edge_list(graph: RegularGraph, path) -> None:
    """Write the graph as an edge-list text file with a ``# N n seed`` header."""
    with open(path, "w", encoding="utf-8") as fh:
        seed = graph.seed if graph.seed is not None else -1
        fh.write(f"# {graph.num_nodes} {graph.degree} {seed}\n")
        for i, j in graph.edges:
            fh.write(f"{i} {j}\n")


def load_edge_list(path) -> RegularGraph:
    """Read a graph written by :func:`save_edge_list`; it must pass ``validate()``."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError("edge-list file must start with a '# N n seed' header")
        parts = header[1:].split()
        if len(parts) != 3:
            raise ValueError(f"malformed edge-list header {header!r}")
        num_nodes, degree, seed = int(parts[0]), int(parts[1]), int(parts[2])
        rows = [line.split() for line in fh if line.strip()]
    if any(len(row) != 2 for row in rows):
        raise ValueError("every edge line must hold two node ids")
    edges = np.array(rows, dtype=np.int64).reshape(len(rows), 2)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    graph = RegularGraph(num_nodes, degree, edges, None if seed < 0 else seed)
    graph.validate()
    return graph
