"""Special-case reference solvers: degeneracies, branches, conserved ratio."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import nmsir as nm
from nmsir import reference
from nmsir.analysis import final_size_pairwise, reproduction_numbers
from nmsir.trajectory import SERIES_NAMES

from conftest import rel_sup_diff
from oracles import reference_march_delay_rk4

N, DEG = 1000, 15
TAU = 0.35


def _params(dist, i0=5, t_end=25.0):
    return nm.EpidemicParams(tau=TAU, dist=dist, initial_infected=i0, t_end=t_end)


def _no_recovery_oracle(t_eval):
    """Pairwise system without any recovery, integrated at tight tolerance."""
    link = TAU * (DEG - 1.0) / DEG

    def ode(t, u):
        S, SS, I, SI = u
        c = link * SI / S
        return [-TAU * SI, -2 * c * SS, TAU * SI, c * SS - c * SI - TAU * SI]

    S0, I0 = N - 5.0, 5.0
    u0 = [S0, DEG / N * S0 * S0, I0, DEG / N * S0 * I0]
    sol = solve_ivp(
        ode, (0.0, t_eval[-1]), u0, t_eval=t_eval, rtol=1e-11, atol=1e-11
    )
    return sol.y


def test_gamma_chain_with_one_stage_equals_markovian():
    p_gamma = _params(nm.GammaErlang(1, 2 / 3), t_end=20.0)
    p_exp = _params(nm.Exponential(2 / 3), t_end=20.0)
    chain = nm.solve_gamma_chain(p_gamma, num_nodes=N, degree=DEG, h=1e-2)
    markov = nm.solve_markovian_pairwise(p_exp, num_nodes=N, degree=DEG, h=1e-2)
    for name in ("S", "I", "SI", "SS"):
        np.testing.assert_allclose(
            chain.series(name), markov.series(name), rtol=1e-12, atol=1e-9
        )


def test_markovian_instant_recovery_limit():
    # gamma -> infinity (approximated by 1e3): nodes recover before they can
    # transmit, so the epidemic never takes off and the final size stays ~I0.
    p = _params(nm.Exponential(1000.0), t_end=5.0)
    traj = nm.solve_markovian_pairwise(p, num_nodes=N, degree=DEG, h=1e-3)
    assert traj.final_size(N) < 5.1
    assert traj.I[-1] < 1e-6


def test_fixed_delay_before_sigma_is_no_recovery_branch():
    p = _params(nm.FixedDuration(1.5), t_end=1.4)
    traj = nm.solve_fixed_delay_pairwise(p, num_nodes=N, degree=DEG, h=1e-2)
    oracle = _no_recovery_oracle(traj.t)
    assert np.max(np.abs(traj.S - oracle[0])) < 1e-6 * N
    assert np.max(np.abs(traj.I - oracle[2])) < 1e-6 * N


def test_uniform_before_lower_endpoint_is_no_recovery_branch():
    p = _params(nm.UniformInterval(1, 2), t_end=0.9)
    traj = nm.solve_uniform_delay_pairwise(p, num_nodes=N, degree=DEG, h=1e-2)
    oracle = _no_recovery_oracle(traj.t)
    assert np.max(np.abs(traj.I - oracle[2])) < 1e-6 * N


def test_sigma_off_grid_snapped_as_in_generic_solve():
    # sigma = 1.5 is not a multiple of h = 0.04: the reference moves it to
    # the nearest node and notes it, exactly as the generic solvers do.
    p = _params(nm.FixedDuration(1.5), t_end=5.0)
    generic = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.04))
    for solve in (nm.solve_fixed_delay_pairwise, nm.solve_fixed_delay_meanfield):
        traj = solve(p, num_nodes=N, degree=DEG, h=0.04)
        assert traj.meta["grid_snap"] == generic.meta["grid_snap"]
        assert traj.meta["grid_snap"].startswith("sigma:1.5->")
        assert traj.meta["dist"] == generic.meta["dist"] != "fixed:sigma=1.5"


def test_uniform_endpoints_off_grid_snapped_as_in_generic_solve():
    p = _params(nm.UniformInterval(1.03, 2.07), t_end=5.0)
    generic = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.05))
    traj = nm.solve_uniform_delay_pairwise(p, num_nodes=N, degree=DEG, h=0.05)
    assert traj.meta["grid_snap"] == generic.meta["grid_snap"]
    assert traj.meta["grid_snap"].startswith("a:1.03->1.05;b:2.07->2.05")
    assert traj.meta["dist"] == generic.meta["dist"]


def test_kind_mismatch_rejected():
    p = _params(nm.Exponential(1.0))
    with pytest.raises(ValueError):
        nm.solve_gamma_chain(p, num_nodes=N, degree=DEG, h=1e-2)
    with pytest.raises(ValueError):
        nm.solve_fixed_delay_pairwise(p, num_nodes=N, degree=DEG, h=1e-2)
    with pytest.raises(ValueError):
        nm.solve_uniform_delay_pairwise(p, num_nodes=N, degree=DEG, h=1e-2)
    with pytest.raises(ValueError):
        nm.solve_markovian_pairwise(
            _params(nm.GammaErlang(3, 2 / 3)), num_nodes=N, degree=DEG, h=1e-2
        )


@pytest.mark.parametrize(
    "dist,solver",
    [
        (nm.Exponential(2 / 3), nm.solve_markovian_pairwise),
        (nm.FixedDuration(1.5), nm.solve_fixed_delay_pairwise),
        (nm.GammaErlang(3, 2 / 3), nm.solve_gamma_chain),
        (nm.UniformInterval(1, 2), nm.solve_uniform_delay_pairwise),
    ],
    ids=["exp", "fixed", "gamma", "uniform"],
)
def test_first_integral_drift_below_1e5(dist, solver):
    p = _params(dist, t_end=25.0)
    traj = solver(p, num_nodes=N, degree=DEG, h=1e-3)
    u = traj.SS / traj.S ** (2.0 * (DEG - 1) / DEG)
    assert np.max(np.abs(u / u[0] - 1.0)) < 1e-5


@pytest.mark.parametrize(
    "dist,solver",
    [
        (nm.Exponential(2 / 3), nm.solve_markovian_pairwise),
        (nm.FixedDuration(1.5), nm.solve_fixed_delay_pairwise),
        (nm.UniformInterval(1, 2), nm.solve_uniform_delay_pairwise),
    ],
    ids=["exp", "fixed", "uniform"],
)
def test_final_size_satisfies_pairwise_relation(dist, solver):
    p = _params(dist, t_end=40.0)
    traj = solver(p, num_nodes=N, degree=DEG, h=2e-3)
    rep = reproduction_numbers(TAU, DEG, N, N - 5.0, dist)
    theorem = final_size_pairwise(rep.r0p, DEG)
    s_traj = traj.S[-1] / (N - 5.0)
    attack_traj = 1.0 - s_traj
    assert abs(attack_traj - theorem.attack_rate) / theorem.attack_rate < 0.02


def test_gamma_chain_aggregate_matches_survival_quadrature():
    # Sum of stage occupancies equals the convolution of incidence with the
    # Erlang survival function plus the newborn boundary term.
    dist = nm.GammaErlang(3, 2 / 3)
    p = _params(dist, t_end=20.0)
    h = 1e-3
    traj = nm.solve_gamma_chain(p, num_nodes=N, degree=DEG, h=h)
    m = len(traj.t) - 1
    xi = np.asarray(dist.survival(np.arange(m + 1) * h))
    incidence = TAU * traj.SI
    conv = np.convolve(incidence, xi)[: m + 1]
    ends = 0.5 * (incidence[0] * xi + incidence * xi[0])
    i_quad = h * (conv - ends) + 5.0 * xi
    assert rel_sup_diff(i_quad, traj.I) < 1e-3


def test_gamma_chain_stage_layout():
    p = _params(nm.GammaErlang(3, 2 / 3), t_end=5.0)
    traj = nm.solve_gamma_chain(p, num_nodes=N, degree=DEG, h=1e-2)
    stages = traj.extra["I_stages"]
    assert stages.shape == (3, len(traj.t))
    np.testing.assert_allclose(stages.sum(axis=0), traj.I, rtol=1e-12)
    # Newborn seeding: all initial infecteds start in stage one.
    assert stages[0, 0] == 5.0
    assert stages[1, 0] == stages[2, 0] == 0.0


_SOLVE_META_KEYS = ["source", "model", "N", "n", "tau", "dist", "I0", "S0", "h", "t_end"]


_SOLVE_CASES = [
    (nm.solve_pairwise, nm.FixedDuration(1.52), ["grid_snap"]),
    (nm.solve_meanfield, nm.GammaErlang(3, 2 / 3), []),
    (nm.solve_markovian_pairwise, nm.Exponential(2 / 3), []),
    (nm.solve_markovian_meanfield, nm.Exponential(2 / 3), []),
    (nm.solve_fixed_delay_pairwise, nm.FixedDuration(1.5), []),
    (nm.solve_fixed_delay_meanfield, nm.FixedDuration(1.5), []),
    (nm.solve_gamma_chain, nm.GammaErlang(3, 2 / 3), ["K"]),
    (nm.solve_uniform_delay_pairwise, nm.UniformInterval(1, 2), []),
]


def _solve(solver, params, h):
    if solver in (nm.solve_pairwise, nm.solve_meanfield):
        return solver(params, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=h))
    return solver(params, num_nodes=N, degree=DEG, h=h)


@pytest.mark.parametrize(
    "solver,dist,extra_keys", _SOLVE_CASES, ids=[case[0].__name__ for case in _SOLVE_CASES]
)
def test_deterministic_solves_share_setup(solver, dist, extra_keys):
    # Every deterministic solve lays the same grid, writes the same meta keys
    # in the same order and assembles R as N - S - I.
    h, t_end = 0.05, 5.0
    traj = _solve(solver, _params(dist, t_end=t_end), h)
    assert list(traj.meta) == _SOLVE_META_KEYS + extra_keys
    assert traj.meta["t_end"] == 100 * h
    assert np.array_equal(traj.t, np.arange(101) * h)
    assert np.array_equal(traj.R, N - traj.S - traj.I)


@pytest.mark.parametrize(
    "solver,dist", [case[:2] for case in _SOLVE_CASES], ids=[c[0].__name__ for c in _SOLVE_CASES]
)
def test_seeding_comes_from_params_and_is_checked_once(solver, dist):
    # I0 is params.initial_infected and S0 = N - I0.  Seeding more than N
    # nodes is rejected by every solve, seeding all N by every solve but the
    # generic mean-field one, which then keeps [S] = 0.
    traj = _solve(solver, _params(dist, i0=7, t_end=2.0), 0.05)
    assert (traj.meta["I0"], traj.meta["S0"]) == (7.0, N - 7.0)
    assert traj.S[0] == N - 7.0
    with pytest.raises(ValueError, match="no susceptible"):
        _solve(solver, _params(dist, i0=N + 1, t_end=2.0), 0.05)
    everyone = _params(dist, i0=N, t_end=2.0)
    if solver is nm.solve_meanfield:
        assert np.all(_solve(solver, everyone, 0.05).S == 0.0)
    else:
        with pytest.raises(ValueError, match="no susceptible"):
            _solve(solver, everyone, 0.05)


@pytest.mark.parametrize(
    "solver,dist", [case[:2] for case in _SOLVE_CASES[2:]],
    ids=[c[0].__name__ for c in _SOLVE_CASES[2:]],
)
def test_reference_rejects_step_that_is_not_positive_and_finite(solver, dist):
    # Rejected before the grid is laid, which would divide by h.
    p = _params(dist, t_end=5.0)
    for h in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="step size"):
            solver(p, num_nodes=N, degree=DEG, h=h)


def _numpy_march(rhs, u0, h, steps, jumps=None, lags=(), lag_terms=None):
    """Drive the float right-hand sides and jumps through the numpy oracle march.

    The oracle's own per-call ``lookup(max(0, t - d))`` feeds ``lag_terms``
    one delayed row per lag, so the lag tuple of every stage is rebuilt from
    the oracle's history, not from the fast march's blocks.
    """

    def lag(t, lookup):
        if not lags:
            return None
        return tuple(float(x) for x in lag_terms(*[lookup(max(0.0, t - d)) for d in lags]))

    def rhs_array(t, u, lookup, t0):
        return np.array(rhs(t, tuple(u.tolist()), lag(t, lookup), t0))

    def jump_array(jump):
        return lambda u: np.array(jump(tuple(u.tolist())))

    jumps = {node: jump_array(jump) for node, jump in (jumps or {}).items()}
    return reference_march_delay_rk4(rhs_array, u0, h, steps, jumps)


# (solver, law, tau, I0, t_end, h)
_ORACLE_CASES = {
    "markovian": (nm.solve_markovian_pairwise, nm.Exponential(2 / 3), TAU, 5, 25.0, 1e-2),
    "markovian-mf": (nm.solve_markovian_meanfield, nm.Exponential(2 / 3), TAU, 5, 25.0, 1e-2),
    "fixed": (nm.solve_fixed_delay_pairwise, nm.FixedDuration(1.5), TAU, 5, 25.0, 1e-2),
    "fixed-mf": (nm.solve_fixed_delay_meanfield, nm.FixedDuration(1.5), TAU, 5, 25.0, 1e-2),
    "gamma": (nm.solve_gamma_chain, nm.GammaErlang(3, 2 / 3), TAU, 5, 25.0, 1e-2),
    "uniform": (nm.solve_uniform_delay_pairwise, nm.UniformInterval(1, 2), TAU, 5, 25.0, 1e-2),
    "fixed-sigma-one-step": (
        nm.solve_fixed_delay_pairwise, nm.FixedDuration(0.05), TAU, 5, 5.0, 0.05
    ),
    "fixed-mf-sigma-one-step": (
        nm.solve_fixed_delay_meanfield, nm.FixedDuration(0.05), TAU, 5, 5.0, 0.05
    ),
    "fixed-sigma-beyond": (nm.solve_fixed_delay_pairwise, nm.FixedDuration(30.0), TAU, 5, 5.0, 1e-2),
    "uniform-a-beyond": (
        nm.solve_uniform_delay_pairwise, nm.UniformInterval(6, 8), TAU, 5, 5.0, 1e-2
    ),
    "uniform-b-beyond": (
        nm.solve_uniform_delay_pairwise, nm.UniformInterval(3, 8), TAU, 5, 5.0, 1e-2
    ),
    "gamma-K1": (nm.solve_gamma_chain, nm.GammaErlang(1, 2 / 3), TAU, 5, 10.0, 1e-2),
    "gamma-K8": (nm.solve_gamma_chain, nm.GammaErlang(8, 2 / 3), TAU, 5, 10.0, 1e-2),
    "fixed-I0-0": (nm.solve_fixed_delay_pairwise, nm.FixedDuration(1.5), TAU, 0, 5.0, 1e-2),
    "gamma-I0-0": (nm.solve_gamma_chain, nm.GammaErlang(3, 2 / 3), TAU, 0, 5.0, 1e-2),
    "uniform-I0-0": (nm.solve_uniform_delay_pairwise, nm.UniformInterval(1, 2), TAU, 0, 5.0, 1e-2),
    "uniform-coarse-phi-709": (
        nm.solve_uniform_delay_pairwise, nm.UniformInterval(1, 2), 1.0, 5, 800.0, 0.1
    ),
    # The fast march evaluates lags a block of steps at a time, a block being
    # no longer than the shortest lag: these cross block edges at one-step,
    # uneven and non-dividing lags.
    "uniform-a-one-step": (
        nm.solve_uniform_delay_pairwise, nm.UniformInterval(0.01, 0.5), TAU, 5, 5.0, 1e-2
    ),
    "uniform-uneven-lags": (
        nm.solve_uniform_delay_pairwise, nm.UniformInterval(0.03, 0.07), TAU, 5, 5.0, 1e-2
    ),
    "fixed-sigma-few-steps": (
        nm.solve_fixed_delay_pairwise, nm.FixedDuration(0.04), TAU, 5, 1.03, 1e-2
    ),
    "fixed-mf-sigma-few-steps": (
        nm.solve_fixed_delay_meanfield, nm.FixedDuration(0.04), TAU, 5, 1.03, 1e-2
    ),
    # Both lags longer than the longest block (reference._MAX_BLOCK steps).
    "uniform-lags-past-block-cap": (
        nm.solve_uniform_delay_pairwise, nm.UniformInterval(5.5, 7), TAU, 5, 20.0, 1e-2
    ),
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_reference_matches_numpy_oracle_march(monkeypatch, case):
    # The float march keeps every operation of the numpy one in order, so
    # each reference comes out identical on either march.
    solver, dist, tau, i0, t_end, h = _ORACLE_CASES[case]
    params = nm.EpidemicParams(tau=tau, dist=dist, initial_infected=i0, t_end=t_end)
    fast = solver(params, num_nodes=N, degree=DEG, h=h)
    monkeypatch.setattr(reference, "_march_delay_rk4", _numpy_march)
    slow = solver(params, num_nodes=N, degree=DEG, h=h)
    for name in SERIES_NAMES:
        assert np.array_equal(fast.series(name), slow.series(name)), name
    assert fast.extra.keys() == slow.extra.keys()
    for key, value in fast.extra.items():
        assert np.array_equal(value, slow.extra[key]), key
    assert fast.meta == slow.meta
    if case == "uniform-coarse-phi-709":
        assert fast.extra["Phi"][-1] > 709.0


_REFERENCES = [
    (nm.solve_markovian_pairwise, nm.Exponential(2 / 3)),
    (nm.solve_markovian_meanfield, nm.Exponential(2 / 3)),
    (nm.solve_fixed_delay_pairwise, nm.FixedDuration(1.5)),
    (nm.solve_fixed_delay_meanfield, nm.FixedDuration(1.5)),
    (nm.solve_gamma_chain, nm.GammaErlang(3, 2 / 3)),
    (nm.solve_uniform_delay_pairwise, nm.UniformInterval(1, 2)),
]


def test_references_end_finite_or_raise_solver_error():
    # Steps far too large for tau blow the RK4 march up or drive a count
    # negative; a reference must then raise SolverError naming the time,
    # never return NaN, inf or negative series or leak an OverflowError from
    # the scalar arithmetic.  Seeding every node is the one ValueError here.
    assert nm.SolverError is nm.solvers.SolverError is nm.trajectory.SolverError
    failures = negative = 0
    for solver, dist in _REFERENCES:
        for tau in (0.35, 1.0, 2.0, 5.0, 10.0, 50.0):
            for h in (0.01, 0.05, 0.1, 0.25, 0.5):
                for i0 in (1, 50, N):
                    params = nm.EpidemicParams(tau=tau, dist=dist, initial_infected=i0, t_end=10.0)
                    try:
                        traj = solver(params, num_nodes=N, degree=DEG, h=h)
                    except nm.SolverError as exc:
                        assert "t=" in str(exc)
                        failures += 1
                        negative += "below -1e-06 N" in str(exc)
                        continue
                    except ValueError:
                        assert i0 == N
                        continue
                    for name in SERIES_NAMES:
                        values = traj.series(name)
                        assert np.all(np.isfinite(values)), (solver, tau, h, i0)
                        assert values.min() >= -1e-6 * N, (solver, name, tau, h, i0)
    assert failures > negative > 0
    # At tau = 1 and h = 0.1 the fixed-delay mean-field [I] dips far below 0.
    params = nm.EpidemicParams(tau=1.0, dist=nm.FixedDuration(1.5), initial_infected=1,
                               t_end=10.0)
    with pytest.raises(nm.SolverError, match="reference I fell to"):
        nm.solve_fixed_delay_meanfield(params, num_nodes=N, degree=DEG, h=0.1)
