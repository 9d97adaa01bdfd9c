"""Shared fixtures and the acceptance-summary terminal hook."""

from __future__ import annotations

import numpy as np
import pytest

import nmsir as nm

from oracles import reference_percolation_run

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    # Fixed examples on every run, and no per-example deadline: tier-1 runs on
    # small shared machines whose timing is noisy.
    settings.register_profile("tier1", derandomize=True, deadline=None)
    settings.load_profile("tier1")

# One human-readable line per acceptance criterion, printed after the run.
ACCEPTANCE_LOG: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LOG:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LOG:
            terminalreporter.write_line(line)


FIG1_DISTS = {
    "exp": nm.Exponential(2.0 / 3.0),
    "gamma": nm.GammaErlang(3, 2.0 / 3.0),
    "uniform": nm.UniformInterval(1.0, 2.0),
}
ALL_DISTS = dict(FIG1_DISTS, fixed=nm.FixedDuration(1.5))


@pytest.fixture(scope="session")
def fig1_dists():
    return dict(FIG1_DISTS)


@pytest.fixture(scope="session")
def all_dists():
    return dict(ALL_DISTS)


@pytest.fixture(scope="session")
def small_graph():
    g = nm.generate_regular(200, 8, seed=3)
    g.validate()
    return g


def rel_sup_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Sup-norm of the difference, normalised by the sup of the reference."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def assert_matches_reference(graph, params, seed, dt_out=0.1, initial_nodes=None):
    """Series and meta equal those of the plain-Python percolation run."""
    traj = nm.run_single(graph, params, seed, dt_out, initial_nodes)
    series, meta = reference_percolation_run(graph, params, seed, dt_out, initial_nodes)
    for name, expected in series.items():
        np.testing.assert_array_equal(traj.series(name), expected, err_msg=name)
    assert traj.meta == meta
    return traj
