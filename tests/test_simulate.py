"""Simulator: conservation, determinism, exactness sanity."""

import math
import multiprocessing
import os

import numpy as np
import pytest
from scipy import stats

import nmsir as nm
from nmsir import simulate
from nmsir.network import RegularGraph
from nmsir.trajectory import SERIES_NAMES

from conftest import ALL_DISTS, assert_matches_reference
from oracles import (
    INFECTED,
    count_pairs,
    gillespie_final_size,
    percolation_final_size,
    reference_percolation_run,
    reference_run_single,
)

# Erlang with K >= 8 stages sums them in np.sum's pairwise order.
REFERENCE_DISTS = dict(ALL_DISTS, gamma9=nm.GammaErlang(9, 2.0 / 3.0))


def _params(dist, i0=5, t_end=25.0, tau=0.35):
    return nm.EpidemicParams(tau=tau, dist=dist, initial_infected=i0, t_end=t_end)


def _star():
    return RegularGraph(num_nodes=4, degree=3, edges=[[0, 1], [0, 2], [0, 3]])


def test_no_initial_infecteds_constant_trajectory(small_graph):
    traj = nm.run_single(small_graph, _params(nm.Exponential(1.0), i0=0), seed=0)
    N = small_graph.num_nodes
    assert np.all(traj.S == N)
    assert np.all(traj.I == 0)
    assert np.all(traj.SI == 0)
    assert np.all(traj.SS == N * small_graph.degree)


def test_conservation_and_monotonicity(small_graph):
    for dist in (nm.Exponential(2 / 3), nm.UniformInterval(1, 2)):
        traj = nm.run_single(small_graph, _params(dist), seed=4)
        N = small_graph.num_nodes
        np.testing.assert_array_equal(traj.S + traj.I + traj.R, np.full(len(traj.t), N))
        assert np.all(np.diff(traj.S) <= 0)
        assert np.all(np.diff(traj.R) >= 0)
        assert all(np.all(traj.series(k) >= 0) for k in ("S", "I", "R", "SI", "SS"))


def test_initial_pair_counts_match_counter(small_graph):
    traj = nm.run_single(small_graph, _params(nm.FixedDuration(1.5)), seed=8)
    # t=0 grid point reflects the seeded state; cross-check with count_pairs.
    rng = np.random.default_rng(8)
    seeds = rng.choice(small_graph.num_nodes, size=5, replace=False)
    states = np.zeros(small_graph.num_nodes, dtype=int)
    states[seeds] = INFECTED
    ss, si, _ = count_pairs(small_graph, states)
    assert traj.SS[0] == ss
    assert traj.SI[0] == si


def test_deterministic_given_seed(small_graph):
    a = nm.run_single(small_graph, _params(nm.GammaErlang(3, 2 / 3)), seed=99)
    b = nm.run_single(small_graph, _params(nm.GammaErlang(3, 2 / 3)), seed=99)
    for name in ("S", "I", "R", "SI", "SS"):
        np.testing.assert_array_equal(a.series(name), b.series(name))


def test_ensemble_deterministic_and_single_run_identity(small_graph):
    p = _params(nm.Exponential(2 / 3))
    # small_graph is the graph of seed 3.
    common = dict(num_nodes=200, degree=8, runs=1, base_seed=5, graph_seed=3,
                  fresh_graph_per_run=False)
    m1, s1 = nm.run_ensembles([p], **common)[0]
    m2, s2 = nm.run_ensembles([p], **common)[0]
    for name in ("S", "I", "R", "SI", "SS"):
        np.testing.assert_array_equal(m1.series(name), m2.series(name))
        np.testing.assert_array_equal(s1.series(name), np.zeros(len(s1.t)))
    single = nm.run_single(
        small_graph, p, np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0])
    )
    np.testing.assert_array_equal(m1.I, single.I)


@pytest.mark.parametrize("law", sorted(REFERENCE_DISTS))
def test_runs_on_one_generator_match_reference_runs(small_graph, law):
    # A caller's generator advances by exactly the documented draws, so
    # successive runs on one generator match successive reference runs.
    for p, pinned in ((_params(REFERENCE_DISTS[law], tau=1.0), None),
                      (_params(REFERENCE_DISTS[law], i0=2), [4, 9]),
                      (_params(REFERENCE_DISTS[law], i0=0), None)):
        rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
        for _ in range(3):
            traj = nm.run_single(small_graph, p, rng, initial_nodes=pinned)
            series, meta = reference_percolation_run(small_graph, p, ref_rng, initial_nodes=pinned)
            for name, expected in series.items():
                np.testing.assert_array_equal(traj.series(name), expected, err_msg=name)
            assert traj.meta == meta
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# Fig-1 ensemble runs k: graph 12 + 7919 k under stream k of SeedSequence(11).
EXP, GAMMA, UNIFORM = "exp:rate=0.6667", "gamma:shape=3,rate=2", "uniform:a=1,b=2"
FIG1_RUNS = [(spec, k) for spec in (EXP, GAMMA, UNIFORM) for k in (0, 1, 50, 99)]


@pytest.mark.parametrize("spec, k", sorted(FIG1_RUNS))
def test_fig1_runs_are_stable(spec, k):
    # A fig-1 run is the reference percolation run of its stream, and comes
    # out the same from a Generator on that stream.
    p = nm.EpidemicParams(0.35, nm.parse_distribution(spec), initial_infected=5, t_end=25.0)
    graph = nm.generate_regular(1000, 15, 12 + 7919 * k)
    stream = np.random.SeedSequence(11).spawn(100)[k]
    traj = assert_matches_reference(graph, p, stream, 0.1)
    again = nm.run_single(graph, p, np.random.default_rng(stream), 0.1)
    for name in SERIES_NAMES:
        np.testing.assert_array_equal(again.series(name), traj.series(name), err_msg=name)
    assert again.meta == traj.meta and again.extra == traj.extra
    diag = traj.extra["diag"]
    assert diag["infections"] > 100 and 1 <= diag["sweeps"]


def test_events_on_grid_points_count_at_that_point(small_graph):
    # The seeds recover at exactly t=1.5, which both grids hit exactly, and
    # nothing else can recover by then.
    p = _params(nm.FixedDuration(1.5), i0=5, tau=0.2)
    for dt_out in (0.5, 0.25):
        traj = nm.run_single(small_graph, p, 11, dt_out)
        at = int(round(1.5 / dt_out))
        assert traj.t[at] == 1.5
        assert traj.R[at - 1] == 0.0
        assert traj.R[at] == 5.0


def test_meta_counts_only_what_the_grid_shows():
    # t_end = 3.05 puts the last grid point at 3.0; infections in (3.0, 3.05]
    # appear in no series, so the meta must not count them either.
    graph = nm.generate_regular(1000, 15, 21)
    p = nm.EpidemicParams(0.35, nm.parse_distribution(EXP), initial_infected=5, t_end=3.05)
    traj = assert_matches_reference(graph, p, 0, 0.1)
    assert traj.t[-1] < 3.05
    assert traj.meta["total_infections"] == traj.meta["final_size"] == 1000 - traj.S[-1]
    assert traj.meta["last_infection_time"] <= traj.t[-1]


def test_diagnostics_account_for_every_event(small_graph):
    for law, dist in ALL_DISTS.items():
        for i0, pinned in ((5, None), (3, [4, 9, 1])):
            p = _params(dist, i0=i0, tau=1.0)
            traj = nm.run_single(small_graph, p, 2, initial_nodes=pinned)
            diag = traj.extra["diag"]
            assert diag["infections"] == traj.meta["total_infections"], law
            assert 0 < diag["kept_edges"] <= small_graph.num_nodes * small_graph.degree, law
            assert 1 <= diag["sweeps"], law
            assert "diag" not in traj.meta


def _ring(num_nodes):
    nodes = np.arange(num_nodes)
    edges = np.sort(np.column_stack((nodes, (nodes + 1) % num_nodes)), axis=1)
    return RegularGraph(num_nodes=num_nodes, degree=2, edges=edges)


def test_deep_graphs_match_the_reference():
    # A ring seeded at one node is infected hop by hop, so the relaxation
    # needs hundreds of sweeps; a random 2-regular graph is a union of
    # cycles, most of its nodes on long ones.  Times must still be those
    # of the reference Dijkstra, bit for bit.
    p = nm.EpidemicParams(tau=20.0, dist=nm.FixedDuration(1.5), initial_infected=1, t_end=100.0)
    ring = assert_matches_reference(_ring(400), p, 3, 0.5)
    assert ring.extra["diag"]["sweeps"] > 64
    graph = nm.generate_regular(2000, 2, 1)
    p = nm.EpidemicParams(tau=5.0, dist=nm.FixedDuration(1.5), initial_infected=5, t_end=400.0)
    for seed in range(3):
        assert assert_matches_reference(graph, p, seed, 1.0).extra["diag"]["sweeps"] > 64


def test_meta_i0_counts_pinned_seeds(small_graph):
    # Pinned seeds override initial_infected; the meta records what ran.
    p = _params(nm.Exponential(1.0), i0=5)
    traj = nm.run_single(small_graph, p, 0, initial_nodes=[0, 1, 2])
    assert traj.I[0] == traj.meta["I0"] == 3
    assert nm.run_single(small_graph, p, 0).meta["I0"] == 5


def test_repeated_initial_node_rejected(small_graph):
    with pytest.raises(ValueError, match="distinct"):
        nm.run_single(small_graph, _params(nm.Exponential(1.0), i0=2), 0, initial_nodes=[3, 3])


def test_initial_nodes_outside_the_graph_rejected():
    graph = nm.generate_regular(20, 4, seed=1)
    p = _params(nm.Exponential(1.0), i0=2)
    for nodes in ([-1, 19], [25], [0, 20]):
        with pytest.raises(ValueError, match="initial_nodes"):
            nm.run_single(graph, p, 0, initial_nodes=nodes)


def _assert_equal_ensembles(together, alone):
    for (mean, std), (mean_1, std_1) in zip(together, alone, strict=True):
        for name in SERIES_NAMES:
            assert np.array_equal(mean.series(name), mean_1.series(name)), name
            assert np.array_equal(std.series(name), std_1.series(name)), name
        assert mean.meta == mean_1.meta and std.meta == std_1.meta
        runs, runs_1 = mean.extra["runs"], mean_1.extra["runs"]
        assert len(runs) == len(runs_1)
        for run, run_1 in zip(runs, runs_1):
            assert np.array_equal(run.t, run_1.t)
            for name in SERIES_NAMES:
                assert np.array_equal(run.series(name), run_1.series(name)), name
            assert run.meta == run_1.meta and run.extra == run_1.extra


def _assert_same_ensemble(together, alone):
    _assert_equal_ensembles(together, alone)
    for mean, std in together:
        runs = mean.extra["runs"]
        # The runs are rows of one stack per series, on one shared grid, and
        # the mean and std are those of the stacked rows.
        assert all(run.t is mean.t for run in runs)
        for name in SERIES_NAMES:
            stack = np.vstack([run.series(name) for run in runs])
            assert all(run.series(name).base is runs[0].series(name).base for run in runs)
            assert runs[0].series(name).base.shape == stack.shape
            assert np.array_equal(mean.series(name), np.mean(stack, axis=0))
            assert np.array_equal(std.series(name), np.std(stack, axis=0))


@pytest.mark.parametrize("fresh", [True, False])
def test_ensembles_run_together_match_ensembles_run_alone(all_dists, fresh):
    laws = [_params(dist, t_end=12.0) for dist in all_dists.values()]
    common = dict(num_nodes=200, degree=8, runs=5, base_seed=9, graph_seed=4,
                  fresh_graph_per_run=fresh, dt_out=0.25)
    together = nm.run_ensembles(laws, **common)
    alone = [nm.run_ensembles([p], **common)[0] for p in laws]
    _assert_same_ensemble(together, alone)
    # Run k of every law is graph k under stream k of the base seed.
    streams = np.random.SeedSequence(9).spawn(5)
    for k in range(5):
        graph = nm.generate_regular(200, 8, 4 + 7919 * k if fresh else 4)
        for p, (mean, _) in zip(laws, together):
            single = nm.run_single(graph, p, np.random.default_rng(streams[k]), 0.25)
            for name in SERIES_NAMES:
                assert np.array_equal(mean.extra["runs"][k].series(name), single.series(name))
    # One shared graph of another shape and seed.
    common.update(num_nodes=150, degree=6, graph_seed=2, fresh_graph_per_run=False)
    _assert_same_ensemble(
        nm.run_ensembles(laws, **common), [nm.run_ensembles([p], **common)[0] for p in laws]
    )


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _counting_workers(monkeypatch):
    """Record the worker count that each run_ensembles call chooses."""
    counts, choose = [], simulate._worker_count

    def count(runs):
        counts.append(choose(runs))
        return counts[-1]

    monkeypatch.setattr(simulate, "_worker_count", count)
    return counts


@pytest.mark.parametrize("cpus, runs, one_graph", [(2, 5, False), (2, 4, True), (2, 1, False),
                                                   (4, 3, False), (4, 2, True)])
def test_output_does_not_depend_on_the_worker_count(monkeypatch, cpus, runs, one_graph):
    # With one graph, the parent builds it and hands it to the workers.
    laws = [_params(dist, t_end=10.0)
            for dist in (nm.Exponential(2 / 3), nm.UniformInterval(1, 2))]
    common = dict(num_nodes=150, degree=6, runs=runs, base_seed=3, graph_seed=8, dt_out=0.25,
                  fresh_graph_per_run=not one_graph)
    counts = _counting_workers(monkeypatch)
    _usable_cpus(monkeypatch, 1)
    serial = nm.run_ensembles(laws, **common)
    _usable_cpus(monkeypatch, cpus)
    pooled = nm.run_ensembles(laws, **common)
    assert counts == [1, min(cpus, runs)]
    assert multiprocessing.active_children() == []
    # Series, meta and extra (the diag counters) of every run, and the stacks.
    _assert_same_ensemble(pooled, serial)


class _FailingLaw(nm.Exponential):
    """An exponential law whose draws fail, naming the process they ran in."""

    def sample(self, rng, size=None):
        raise ZeroDivisionError(f"no periods in process {os.getpid()}")


@pytest.mark.parametrize("cpus", [1, 2])
def test_an_error_in_a_run_reaches_the_caller(monkeypatch, cpus):
    _usable_cpus(monkeypatch, cpus)
    laws = [_params(nm.Exponential(2 / 3), t_end=5.0), _params(_FailingLaw(2 / 3), t_end=5.0)]
    with pytest.raises(ZeroDivisionError, match=r"^no periods in process \d+$") as raised:
        nm.run_ensembles(laws, num_nodes=100, degree=4, runs=6, base_seed=1)
    pid = int(str(raised.value).rsplit(" ", 1)[1])
    assert (pid == os.getpid()) == (cpus == 1)
    assert multiprocessing.active_children() == []


def _ensembles_in_a_worker(laws, common):
    return nm.run_ensembles(laws, **common)


def test_ensembles_inside_a_pool_worker_run_in_that_worker(monkeypatch):
    # A daemonic pool worker may not fork workers of its own.
    _usable_cpus(monkeypatch, 2)
    laws = [_params(nm.GammaErlang(3, 2.0), t_end=6.0)]
    common = dict(num_nodes=120, degree=6, runs=4, base_seed=7, graph_seed=2, dt_out=0.5)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inside = pool.apply_async(_ensembles_in_a_worker, (laws, common)).get(timeout=120)
    _assert_equal_ensembles(inside, nm.run_ensembles(laws, **common))
    assert multiprocessing.active_children() == []


def test_star_graph_instant_transmission_infects_all_leaves():
    star = _star()
    p = nm.EpidemicParams(
        tau=1e6, dist=nm.FixedDuration(1.5), initial_infected=1, t_end=5.0
    )
    for seed in range(1000):
        traj = nm.run_single(star, p, seed=seed, initial_nodes=[0])
        assert traj.final_size(4) == 4.0  # P(an Exp(1e6) clock beats sigma) ~ 1


def test_epidemic_dies_out_with_bounded_support(small_graph):
    p = _params(nm.UniformInterval(1, 2), t_end=100.0)
    traj = nm.run_single(small_graph, p, seed=21)
    assert traj.I[-1] == 0.0
    last_inf = traj.meta["last_infection_time"]
    last_rec = traj.meta["last_recovery_time"]
    assert np.isfinite(last_rec)
    assert last_rec <= last_inf + 2.0 + 1e-9


def test_event_sim_matches_gillespie_oracle_quick(small_graph):
    # Reduced-size version of the exactness cross-check (full battery lives
    # in the acceptance suite): two-sample KS on final sizes at the 1% level.
    tau, gamma, runs = 0.5, 1.0, 150
    p = nm.EpidemicParams(
        tau=tau, dist=nm.Exponential(gamma), initial_infected=3, t_end=80.0
    )
    event_sizes = [
        nm.run_single(small_graph, p, seed=1000 + k, dt_out=80.0).final_size(
            small_graph.num_nodes
        )
        for k in range(runs)
    ]
    rng = np.random.default_rng(77)
    oracle_sizes = [
        gillespie_final_size(small_graph, tau, gamma, 3, rng) for _ in range(runs)
    ]
    result = stats.ks_2samp(event_sizes, oracle_sizes)
    assert result.pvalue > 0.01


# Power target for the percolation check: a two-sided Welch test at
# alpha = 0.01 / 4 (four laws) detects a 0.25-SD shift in mean final size with
# power 0.9 given 2 (z_{1 - alpha/2} + z_{0.9})^2 / 0.25^2 runs per side,
# 594 after rounding up.
PERCOLATION_ALPHA = 0.01 / 4
PERCOLATION_RUNS = math.ceil(
    2 * (stats.norm.ppf(1 - PERCOLATION_ALPHA / 2) + stats.norm.ppf(0.9)) ** 2 / 0.25**2
)


@pytest.mark.parametrize("law", sorted(ALL_DISTS))
def test_final_sizes_match_percolation_oracle(law):
    # A sub-saturated epidemic (minor and major outbreaks) on a small graph,
    # with a horizon that every run ends well before.
    dist, tau, i0, t_end = ALL_DISTS[law], 0.5, 3, 200.0
    graph = nm.generate_regular(300, 4, seed=2007)
    p = nm.EpidemicParams(tau=tau, dist=dist, initial_infected=i0, t_end=t_end)
    runs = [nm.run_single(graph, p, stream, dt_out=t_end)
            for stream in np.random.SeedSequence(2007).spawn(PERCOLATION_RUNS)]
    assert max(run.meta["last_recovery_time"] for run in runs) < t_end / 2
    sizes = [run.meta["total_infections"] for run in runs]
    rng = np.random.default_rng(36113)
    oracle = [percolation_final_size(graph, tau, dist, i0, rng) for _ in range(PERCOLATION_RUNS)]
    assert 0.1 * graph.num_nodes < np.mean(sizes) < 0.95 * graph.num_nodes
    welch = stats.ttest_ind(sizes, oracle, equal_var=False)
    assert welch.pvalue > PERCOLATION_ALPHA, (law, np.mean(sizes), np.mean(oracle))


# Power target for the check against the reference event loop: five
# statistics per law (final size, I(t) at three times before the peak, and
# the peak time) and five laws make 25 comparisons, so each two-sided Welch
# test runs at alpha = 0.01 / 25.  It detects a 0.35-SD shift in a mean with
# power 0.9 given 2 (z_{1 - alpha/2} + z_{0.9})^2 / 0.35^2 runs per side.
REFERENCE_ALPHA = 0.01 / 25
REFERENCE_RUNS = math.ceil(
    2 * (stats.norm.ppf(1 - REFERENCE_ALPHA / 2) + stats.norm.ppf(0.9)) ** 2 / 0.35**2
)
REFERENCE_TIMES = (1.0, 2.0, 3.0)


def _reference_statistics(runs_i, final_sizes, dt_out):
    """Columns: final size, I at each of REFERENCE_TIMES, peak time."""
    runs_i = np.asarray(runs_i)
    at = [int(round(t / dt_out)) for t in REFERENCE_TIMES]
    return np.column_stack([final_sizes, runs_i[:, at], runs_i.argmax(axis=1) * dt_out])


@pytest.mark.parametrize("law", sorted(REFERENCE_DISTS))
def test_run_matches_reference_event_loop(law):
    # A sub-saturated epidemic (minor and major outbreaks) on a small graph:
    # the percolation construction and the event loop with recovery events
    # in its heap, which share no code, must agree in distribution.
    dist, dt_out = REFERENCE_DISTS[law], 0.25
    graph = nm.generate_regular(200, 4, seed=2007)
    p = nm.EpidemicParams(tau=0.5, dist=dist, initial_infected=3, t_end=40.0)
    ours = [nm.run_single(graph, p, stream, dt_out)
            for stream in np.random.SeedSequence(113).spawn(REFERENCE_RUNS)]
    theirs = [reference_run_single(graph, p, stream, dt_out)
              for stream in np.random.SeedSequence(36113).spawn(REFERENCE_RUNS)]
    ours = _reference_statistics(
        [run.I for run in ours], [run.meta["total_infections"] for run in ours], dt_out
    )
    theirs = _reference_statistics(
        [series["I"] for series, _ in theirs], [meta["total_infections"] for _, meta in theirs],
        dt_out,
    )
    mean_i = theirs[:, 1:4].mean(axis=0)
    assert 0.1 * graph.num_nodes < ours[:, 0].mean() < 0.95 * graph.num_nodes
    assert REFERENCE_TIMES[-1] < theirs[:, 4].mean() and np.all(np.diff(mean_i) > 0)
    for k, name in enumerate(["final size", *(f"I({t:g})" for t in REFERENCE_TIMES), "peak"]):
        welch = stats.ttest_ind(ours[:, k], theirs[:, k], equal_var=False)
        assert welch.pvalue > REFERENCE_ALPHA, (law, name, ours[:, k].mean(), theirs[:, k].mean())


def test_initial_infected_bounds(monkeypatch, small_graph):
    with pytest.raises(ValueError):
        nm.run_single(
            small_graph, _params(nm.Exponential(1.0), i0=10**6), seed=0
        )
    # run_ensembles checks its input before it starts any run or worker.
    counts = _counting_workers(monkeypatch)
    with pytest.raises(ValueError):
        nm.run_ensembles(
            [_params(nm.Exponential(1.0))], num_nodes=200, degree=8, runs=0, base_seed=1
        )
    with pytest.raises(ValueError, match="initial_infected exceeds"):
        nm.run_ensembles([_params(nm.Exponential(1.0), i0=201)],
                         num_nodes=200, degree=8, runs=4, base_seed=1)
    assert counts == []


def test_output_step_must_be_positive_and_finite(monkeypatch, small_graph):
    # The output grid needs a positive, finite step.
    counts = _counting_workers(monkeypatch)
    p = _params(nm.Exponential(1.0), t_end=5.0)
    for dt_out in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt_out"):
            nm.run_single(small_graph, p, seed=0, dt_out=dt_out)
        with pytest.raises(ValueError, match="dt_out"):
            nm.run_ensembles(
                [p], num_nodes=200, degree=8, runs=2, base_seed=1, dt_out=dt_out
            )
    assert counts == []
