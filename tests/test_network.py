"""Regular graph generation, ordered pair counting, edge-list round trips."""

import hashlib

import numpy as np
import pytest

import nmsir as nm
from nmsir import network
from oracles import (
    INFECTED,
    RECOVERED,
    SUSCEPTIBLE,
    brute_force_pair_counts,
    count_pairs,
    reference_regular_graph,
)

# SHA-256 of the little-endian int64 edge arrays of the fig-1 graphs
# (N=1000, n=15, graph_seed=12, run k uses seed 12 + 7919*k), recorded with
# the plain-Python pairing loop kept in ``oracles``.
FIG1_EDGE_DIGESTS = {
    0: "9a422b9e8c85e58073d7786a5494a4e6be994d04d6e338c0928e1cf12f7e5b35",
    1: "2f21f70bbca01c7ececad21f096481310a0d9c70130a851a311e2bc67c203ba3",
    50: "18b6c578f9ef343432796a5e2b74aa0767297314dc8771513965cc2c6f2c2d6f",
    99: "790461dfb2fc0cddcdffde0281b18d71681ad2099767f452f82338181d083e9c",
}


def test_k4_is_unique_three_regular_graph():
    g = nm.generate_regular(4, 3, seed=0)
    g.validate()
    np.testing.assert_array_equal(g.edges, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])


# K4 with one defect each; validate() must reject every one.
K4_EDGES = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
BROKEN_K4 = {
    "loop": [[0, 0], *K4_EDGES[1:]],
    "reversed row": [[1, 0], *K4_EDGES[1:]],
    "node id >= N": [*K4_EDGES[:-1], [2, 4]],
    "repeated row": [*K4_EDGES[:-1], [1, 3]],
    "wrong degree": K4_EDGES[:-1],
}


@pytest.mark.parametrize("defect", sorted(BROKEN_K4))
def test_validate_rejects_each_defect(defect):
    nm.RegularGraph(4, 3, K4_EDGES).validate()
    with pytest.raises(ValueError):
        nm.RegularGraph(4, 3, BROKEN_K4[defect]).validate()


def test_graph_needs_its_edges():
    with pytest.raises(TypeError):
        nm.RegularGraph(4, 3)
    with pytest.raises(ValueError, match="shape"):
        nm.RegularGraph(4, 3, [0, 1, 2, 3])


def test_graphs_compare_and_hash_by_identity():
    a = nm.generate_regular(20, 3, 1)
    b = nm.generate_regular(20, 3, 1)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_graph_keeps_a_read_only_copy_of_its_edges():
    edges = np.array(K4_EDGES)
    g = nm.RegularGraph(4, 3, edges)
    edges[0] = [2, 3]
    g.validate()
    assert g.edges.dtype == np.int64 and not g.edges.flags.writeable


def test_odd_stub_count_rejected():
    with pytest.raises(ValueError, match="even"):
        nm.generate_regular(5, 3, seed=0)


def test_degree_at_least_num_nodes_rejected():
    with pytest.raises(ValueError):
        nm.generate_regular(4, 4, seed=0)


def test_generated_graph_passes_invariants():
    g = nm.generate_regular(1000, 15, seed=1)
    g.validate()
    degrees = np.bincount(g.edges.ravel(), minlength=1000)
    assert np.all(degrees == 15)  # degree histogram is a point mass
    assert g.edges.shape == (1000 * 15 // 2, 2)


def test_generation_deterministic_per_seed():
    a = nm.generate_regular(120, 7, seed=9)
    b = nm.generate_regular(120, 7, seed=9)
    c = nm.generate_regular(120, 7, seed=10)
    np.testing.assert_array_equal(a.edges, b.edges)
    assert not np.array_equal(a.edges, c.edges)


@pytest.mark.parametrize(
    "num_nodes,degree", [(4, 3), (10, 3), (50, 4), (200, 8), (1000, 15), (100, 1), (10, 0)]
)
def test_generation_matches_reference_pairing(num_nodes, degree):
    for seed in range(5):
        g = nm.generate_regular(num_nodes, degree, seed)
        edges = reference_regular_graph(num_nodes, degree, seed)
        assert g.edges.dtype == edges.dtype
        np.testing.assert_array_equal(g.edges, edges)


@pytest.mark.parametrize("k", sorted(FIG1_EDGE_DIGESTS))
def test_fig1_graph_edges_are_stable(k):
    g = nm.generate_regular(1000, 15, 12 + 7919 * k)
    edges = np.ascontiguousarray(g.edges, dtype="<i8")
    assert hashlib.sha256(edges.tobytes()).hexdigest() == FIG1_EDGE_DIGESTS[k]


def test_edges_are_read_only(small_graph):
    assert not small_graph.edges.flags.writeable
    with pytest.raises(ValueError):
        small_graph.edges[0, 0] = 1


def test_count_pairs_all_susceptible(small_graph):
    N, n = small_graph.num_nodes, small_graph.degree
    ss, si, ii = count_pairs(small_graph, np.full(N, SUSCEPTIBLE))
    assert (ss, si, ii) == (N * n, 0, 0)


def test_count_pairs_all_infected(small_graph):
    N, n = small_graph.num_nodes, small_graph.degree
    ss, si, ii = count_pairs(small_graph, np.full(N, INFECTED))
    assert (ss, si, ii) == (0, 0, N * n)


def test_count_pairs_k4_single_infected():
    g = nm.generate_regular(4, 3, seed=0)
    states = np.array([INFECTED, SUSCEPTIBLE, SUSCEPTIBLE, SUSCEPTIBLE])
    ss, si, ii = count_pairs(g, states)
    assert si == 3
    assert ss == 6  # three S-S links, both orientations
    assert ii == 0
    assert (ss, si, ii) == brute_force_pair_counts(g, states)


def test_count_pairs_matches_brute_force_random_states(small_graph):
    rng = np.random.default_rng(5)
    for _ in range(5):
        states = rng.integers(0, 3, size=small_graph.num_nodes)
        assert count_pairs(small_graph, states) == brute_force_pair_counts(
            small_graph, states
        )


def test_ordered_pair_sum_identity(small_graph):
    # [SS] + 2[SI] + [II] + (pairs touching R) = N*n for any assignment.
    rng = np.random.default_rng(17)
    N, n = small_graph.num_nodes, small_graph.degree
    for _ in range(5):
        states = rng.integers(0, 3, size=N)
        ss, si, ii = count_pairs(small_graph, states)
        u, v = small_graph.edges[:, 0], small_graph.edges[:, 1]
        touching_r = 2 * int(
            np.count_nonzero((states[u] == RECOVERED) | (states[v] == RECOVERED))
        )
        assert ss + 2 * si + ii + touching_r == N * n


def test_count_pairs_size_mismatch(small_graph):
    with pytest.raises(ValueError):
        count_pairs(small_graph, np.zeros(3))


def test_edge_list_round_trip(tmp_path, small_graph):
    path = tmp_path / "edges.txt"
    nm.save_edge_list(small_graph, path)
    text = path.read_text().splitlines()
    assert text[0] == f"# {small_graph.num_nodes} {small_graph.degree} {small_graph.seed}"
    loaded = nm.load_edge_list(path)
    loaded.validate()
    np.testing.assert_array_equal(loaded.edges, small_graph.edges)
    assert loaded.seed == small_graph.seed


def test_edge_list_with_repeated_edge_rejected(tmp_path):
    # Each node has two entries in its list, but only one distinct neighbour.
    path = tmp_path / "multi.txt"
    path.write_text("# 4 2 -1\n0 1\n0 1\n2 3\n2 3\n")
    with pytest.raises(ValueError, match="more than once"):
        nm.load_edge_list(path)


def test_edge_list_non_regular_rejected(tmp_path):
    path = tmp_path / "path.txt"
    path.write_text("# 4 2 -1\n0 1\n1 2\n2 3\n")
    with pytest.raises(ValueError, match="regular"):
        nm.load_edge_list(path)


@pytest.mark.parametrize(
    "line,match", [("0 1 2", "two node ids"), ("1 0", "0 <= i < j"), ("0 4", "0 <= i < j")]
)
def test_edge_list_bad_line_rejected(tmp_path, line, match):
    path = tmp_path / "bad.txt"
    path.write_text(f"# 4 1 -1\n{line}\n2 3\n")
    with pytest.raises(ValueError, match=match):
        nm.load_edge_list(path)


@pytest.mark.parametrize(
    "header, match",
    [("0 1", "must start with"), ("# 4 1", "malformed edge-list header"),
     ("# 4 1 -1 7", "malformed edge-list header")],
)
def test_edge_list_bad_header_rejected(tmp_path, header, match):
    path = tmp_path / "bad.txt"
    path.write_text(f"{header}\n0 1\n2 3\n")
    with pytest.raises(ValueError, match=match):
        nm.load_edge_list(path)


def test_generation_gives_up_after_the_restart_cap(monkeypatch):
    monkeypatch.setattr(network, "_MAX_RESTARTS", 0)
    with pytest.raises(RuntimeError, match="after 0 restarts"):
        nm.generate_regular(10, 3, 1)
