"""Property tests: the vectorised graph generator and simulator reproduce the
plain-Python reference implementations bit for bit, and every simulator run
keeps the invariants of an SIR epidemic on its graph."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import nmsir as nm  # noqa: E402

from conftest import ALL_DISTS, assert_matches_reference  # noqa: E402
from oracles import INFECTED, SUSCEPTIBLE, count_pairs, reference_regular_graph  # noqa: E402


@st.composite
def _graph_args(draw):
    num_nodes = draw(st.integers(2, 80))
    degree = draw(st.integers(0, min(num_nodes - 1, 9)))
    if num_nodes * degree % 2:
        degree -= 1
    return num_nodes, degree, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80)
@given(_graph_args())
def test_generate_regular_matches_reference(args):
    try:
        expected = reference_regular_graph(*args)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            nm.generate_regular(*args)
        return
    np.testing.assert_array_equal(nm.generate_regular(*args).edges, expected)


@st.composite
def _run_args(draw):
    num_nodes, degree, graph_seed = draw(_graph_args())
    try:
        graph = nm.generate_regular(num_nodes, degree, graph_seed)
    except RuntimeError:  # near-complete graphs rarely pair up
        assume(False)
    i0 = draw(st.integers(0, num_nodes))
    params = nm.EpidemicParams(
        tau=draw(st.floats(0.05, 5.0)),
        dist=ALL_DISTS[draw(st.sampled_from(sorted(ALL_DISTS)))],
        initial_infected=i0,
        t_end=draw(st.floats(0.5, 15.0)),
    )
    pinned = draw(st.one_of(
        st.none(), st.lists(st.integers(0, num_nodes - 1), max_size=i0, unique=True)
    ))
    dt_out = draw(st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.5]))
    return graph, params, draw(st.integers(0, 2**32 - 1)), dt_out, pinned


@settings(max_examples=150)
@given(_run_args())
def test_run_single_matches_reference(args):
    graph, params, seed, dt_out, pinned = args
    traj = assert_matches_reference(*args)
    N = graph.num_nodes
    np.testing.assert_array_equal(traj.S + traj.I + traj.R, np.full(len(traj.t), N))
    assert np.all(np.diff(traj.S) <= 0)
    assert np.all(np.diff(traj.R) >= 0)
    assert all(np.all(traj.series(name) >= 0) for name in ("S", "I", "R", "SI", "SS"))
    # t = 0 shows the seed state: the pinned nodes, or the first draw.
    if pinned is None:
        pinned = np.random.default_rng(seed).choice(
            N, size=params.initial_infected, replace=False
        ) if params.initial_infected else []
    states = np.full(N, SUSCEPTIBLE)
    states[np.asarray(pinned, dtype=int)] = INFECTED
    ss, si, _ = count_pairs(graph, states)
    assert (traj.S[0], traj.I[0], traj.R[0]) == (N - len(pinned), len(pinned), 0)
    assert (traj.SS[0], traj.SI[0]) == (ss, si)
    # The meta counts the infections that the series show, and no others.
    assert traj.meta["total_infections"] == N - traj.S[-1] >= len(pinned)
