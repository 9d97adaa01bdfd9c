"""Property tests: the vectorised graph generator and event loop reproduce the
plain-Python reference implementations bit for bit."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import nmsir as nm  # noqa: E402

from conftest import ALL_DISTS, assert_matches_reference  # noqa: E402
from oracles import reference_regular_graph  # noqa: E402


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
    g = nm.generate_regular(*args)
    assert g.neighbors == expected[0]
    np.testing.assert_array_equal(g.edges, expected[1])


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
    assert_matches_reference(*args)
