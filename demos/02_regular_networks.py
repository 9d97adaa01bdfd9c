"""Regular random graphs and ordered pair counting.

Generates the kind of network used in all experiments (N nodes, every node
with exactly n neighbours), verifies its structural invariants, and shows the
ordered pair-counting convention that the deterministic models are written
in: every undirected link is counted in both directions, so an all-susceptible
network carries [SS] = N*n, and one S-I link contributes one ordered (S, I)
pair.
"""

from pathlib import Path

import numpy as np

from nmsir import generate_regular, load_edge_list, save_edge_list

N, DEGREE, SEED = 1000, 15, 1
SUSCEPTIBLE, INFECTED = 0, 1


def ordered_pairs(graph, states, a, b):
    """Ordered (a, b) pairs: each link whose ends hold a and b, once per orientation."""
    su, sv = states[graph.edges[:, 0]], states[graph.edges[:, 1]]
    return int(np.count_nonzero((su == a) & (sv == b)) + np.count_nonzero((su == b) & (sv == a)))


graph = generate_regular(N, DEGREE, seed=SEED)
graph.validate()
degrees = set(np.bincount(graph.edges.ravel(), minlength=N).tolist())
print(f"generated {N} nodes, degree set {degrees}, {graph.edges.shape[0]} edges")

# All susceptible: [SS] counts both orientations of every link.
states = np.full(N, SUSCEPTIBLE)
ss = ordered_pairs(graph, states, SUSCEPTIBLE, SUSCEPTIBLE)
si = ordered_pairs(graph, states, SUSCEPTIBLE, INFECTED)
print(f"all-S counts: [SS]={ss} (= N*n = {N * DEGREE}), [SI]={si}")

# Infect five random nodes: [SI] ~ (n/N) * S * I in expectation.
rng = np.random.default_rng(7)
infected = rng.choice(N, size=5, replace=False)
states[infected] = INFECTED
ss = ordered_pairs(graph, states, SUSCEPTIBLE, SUSCEPTIBLE)
si = ordered_pairs(graph, states, SUSCEPTIBLE, INFECTED)
expected_si = DEGREE / N * (N - 5) * 5
print(f"five infecteds: [SI]={si} (closure expectation {expected_si:.1f}), [SS]={ss}")

# Edge lists round-trip through a plain text format with a '# N n seed' header.
out = Path("demo_output")
out.mkdir(exist_ok=True)
path = out / "regular_graph_edges.txt"
save_edge_list(graph, path)
again = load_edge_list(path)
assert np.array_equal(again.edges, graph.edges)
print(f"edge list round-trip OK -> {path}")
