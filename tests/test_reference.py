"""Closed-form references of both models: degeneracies, branches, conserved ratio."""

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


def _pairwise_oracle(t_eval, gamma=0.0):
    """Markovian pairwise system with recovery rate ``gamma`` (none at 0), at tight tolerance."""
    link = TAU * (DEG - 1.0) / DEG

    def ode(t, u):
        S, SS, I, SI = u
        c = link * SI / S
        return [-TAU * SI, -2 * c * SS, TAU * SI - gamma * I,
                c * SS - c * SI - TAU * SI - gamma * SI]

    S0, I0 = N - 5.0, 5.0
    u0 = [S0, DEG / N * S0 * S0, I0, DEG / N * S0 * I0]
    sol = solve_ivp(
        ode, (0.0, t_eval[-1]), u0, t_eval=t_eval, rtol=1e-11, atol=1e-11
    )
    return sol.y


def test_exponential_references_match_classical_odes():
    # The exponential law is the one-stage chain: its pairwise reference is
    # the classical four-equation Markovian system and its mean-field one
    # the SIR ODE with rate tau n/N, each integrated here independently.
    gamma = 2 / 3
    p = _params(nm.Exponential(gamma), t_end=20.0)
    pw = nm.solve_reference_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-2))
    oracle = _pairwise_oracle(pw.t, gamma)
    for k, name in enumerate(("S", "SS", "I", "SI")):
        assert np.max(np.abs(pw.series(name) - oracle[k])) < 1e-6 * N, name

    coupling = TAU * DEG / N

    def sir(t, u):
        S, I = u
        return [-coupling * S * I, coupling * S * I - gamma * I]

    mf = nm.solve_reference_meanfield(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-2))
    sol = solve_ivp(sir, (0.0, mf.t[-1]), [N - 5.0, 5.0], t_eval=mf.t, rtol=1e-11, atol=1e-11)
    assert np.max(np.abs(mf.S - sol.y[0])) < 1e-6 * N
    assert np.max(np.abs(mf.I - sol.y[1])) < 1e-6 * N


def test_markovian_instant_recovery_limit():
    # gamma -> infinity (approximated by 1e3): nodes recover before they can
    # transmit, so the epidemic never takes off and the final size stays ~I0.
    p = _params(nm.Exponential(1000.0), t_end=5.0)
    traj = nm.solve_reference_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-3))
    assert traj.final_size(N) < 5.1
    assert traj.I[-1] < 1e-6


def test_fixed_delay_before_sigma_is_no_recovery_branch():
    p = _params(nm.FixedDuration(1.5), t_end=1.4)
    traj = nm.solve_reference_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-2))
    oracle = _pairwise_oracle(traj.t)
    assert np.max(np.abs(traj.S - oracle[0])) < 1e-6 * N
    assert np.max(np.abs(traj.I - oracle[2])) < 1e-6 * N


def test_uniform_before_lower_endpoint_is_no_recovery_branch():
    p = _params(nm.UniformInterval(1, 2), t_end=0.9)
    traj = nm.solve_reference_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-2))
    oracle = _pairwise_oracle(traj.t)
    assert np.max(np.abs(traj.I - oracle[2])) < 1e-6 * N


def test_sigma_off_grid_snapped_as_in_generic_solve():
    # sigma = 1.5 is not a multiple of h = 0.04: the reference moves it to
    # the nearest node and notes it, exactly as the generic solvers do.
    p = _params(nm.FixedDuration(1.5), t_end=5.0)
    generic = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.04))
    for solve in (nm.solve_reference_pairwise, nm.solve_reference_meanfield):
        traj = solve(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.04))
        assert traj.meta["grid_snap"] == generic.meta["grid_snap"]
        assert traj.meta["grid_snap"].startswith("sigma:1.5->")
        assert traj.meta["dist"] == generic.meta["dist"] != "fixed:sigma=1.5"


def test_uniform_endpoints_off_grid_snapped_as_in_generic_solve():
    p = _params(nm.UniformInterval(1.03, 2.07), t_end=5.0)
    generic = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.05))
    for solve in (nm.solve_reference_pairwise, nm.solve_reference_meanfield):
        traj = solve(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.05))
        assert traj.meta["grid_snap"] == generic.meta["grid_snap"]
        assert traj.meta["grid_snap"].startswith("a:1.03->1.05;b:2.07->2.05")
        assert traj.meta["dist"] == generic.meta["dist"]


def test_law_without_closed_form_rejected():
    class Unchained(nm.Exponential):
        def _stage_chain(self):
            return None

    p = _params(Unchained(2 / 3), t_end=1.0)
    for solve in (nm.solve_reference_pairwise, nm.solve_reference_meanfield):
        with pytest.raises(ValueError, match="no closed-form reference for a Unchained"):
            solve(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-2))


@pytest.mark.parametrize(
    "dist",
    [nm.Exponential(2 / 3), nm.FixedDuration(1.5), nm.GammaErlang(shape=3, rate=2.0),
     nm.UniformInterval(1, 2)],
    ids=["exp", "fixed", "gamma", "uniform"],
)
def test_first_integral_drift_below_1e5(dist):
    p = _params(dist, t_end=25.0)
    traj = nm.solve_reference_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-3))
    u = traj.SS / traj.S ** (2.0 * (DEG - 1) / DEG)
    assert np.max(np.abs(u / u[0] - 1.0)) < 1e-5


@pytest.mark.parametrize(
    "dist",
    [nm.Exponential(2 / 3), nm.FixedDuration(1.5), nm.UniformInterval(1, 2)],
    ids=["exp", "fixed", "uniform"],
)
def test_final_size_satisfies_pairwise_relation(dist):
    p = _params(dist, t_end=40.0)
    traj = nm.solve_reference_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=2e-3))
    rep = reproduction_numbers(TAU, DEG, N, N - 5.0, dist)
    theorem = final_size_pairwise(rep.r0p, DEG)
    s_traj = traj.S[-1] / (N - 5.0)
    attack_traj = 1.0 - s_traj
    assert abs(attack_traj - theorem.attack_rate) / theorem.attack_rate < 0.02


def test_gamma_chain_aggregate_matches_survival_quadrature():
    # Sum of stage occupancies equals the convolution of incidence with the
    # Erlang survival function plus the newborn boundary term.
    dist = nm.GammaErlang(shape=3, rate=2.0)
    p = _params(dist, t_end=20.0)
    h = 1e-3
    traj = nm.solve_reference_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=h))
    m = len(traj.t) - 1
    xi = np.asarray(dist.survival(np.arange(m + 1) * h))
    incidence = TAU * traj.SI
    conv = np.convolve(incidence, xi)[: m + 1]
    ends = 0.5 * (incidence[0] * xi + incidence * xi[0])
    i_quad = h * (conv - ends) + 5.0 * xi
    assert rel_sup_diff(i_quad, traj.I) < 1e-3


def test_gamma_chain_stage_layout():
    p = _params(nm.GammaErlang(shape=3, rate=2.0), t_end=5.0)
    traj = nm.solve_reference_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-2))
    stages = traj.extra["I_stages"]
    assert stages.shape == (3, len(traj.t))
    np.testing.assert_allclose(stages.sum(axis=0), traj.I, rtol=1e-12)
    # Newborn seeding: all initial infecteds start in stage one.
    assert stages[0, 0] == 5.0
    assert stages[1, 0] == stages[2, 0] == 0.0


_SOLVE_META_KEYS = ["source", "model", "N", "n", "tau", "dist", "I0", "S0", "h", "t_end"]


PW, MF = nm.solve_reference_pairwise, nm.solve_reference_meanfield
EXP, FIXED = nm.Exponential(2 / 3), nm.FixedDuration(1.5)
GAMMA, UNIFORM = nm.GammaErlang(shape=3, rate=2.0), nm.UniformInterval(1, 2)

# Both references for every law, each case named after the closed-form model
# it solves.
_REFERENCES = {
    "solve_markovian_pairwise": (PW, EXP),
    "solve_markovian_meanfield": (MF, EXP),
    "solve_fixed_delay_pairwise": (PW, FIXED),
    "solve_fixed_delay_meanfield": (MF, FIXED),
    "solve_gamma_chain": (PW, GAMMA),
    "solve_gamma_chain_meanfield": (MF, GAMMA),
    "solve_uniform_delay_pairwise": (PW, UNIFORM),
    "solve_uniform_delay_meanfield": (MF, UNIFORM),
}

_SOLVE_CASES = {
    "solve_pairwise": (nm.solve_pairwise, nm.FixedDuration(1.52), ["grid_snap"]),
    "solve_meanfield": (nm.solve_meanfield, GAMMA, []),
    **{name: (solver, dist, []) for name, (solver, dist) in _REFERENCES.items()},
}


def _solve(solver, params, h, degree=DEG):
    return solver(params, num_nodes=N, degree=degree, config=nm.SolverConfig(h=h))


@pytest.mark.parametrize("solver,dist,extra_keys", _SOLVE_CASES.values(), ids=list(_SOLVE_CASES))
def test_deterministic_solves_share_setup(solver, dist, extra_keys):
    # Every deterministic solve lays the same grid, writes the same meta keys
    # in the same order and assembles R as N - S - I.  Without a config,
    # each steps at the default of SolverConfig.
    h, t_end = 0.05, 5.0
    traj = _solve(solver, _params(dist, t_end=t_end), h)
    assert list(traj.meta) == _SOLVE_META_KEYS + extra_keys
    assert traj.meta["t_end"] == 100 * h
    assert np.array_equal(traj.t, np.arange(101) * h)
    assert np.array_equal(traj.R, N - traj.S - traj.I)
    default = solver(_params(dist, t_end=t_end), num_nodes=N, degree=DEG)
    h = nm.SolverConfig().h
    assert default.meta["h"] == h
    assert np.array_equal(default.t, np.arange(round(t_end / h) + 1) * h)


@pytest.mark.parametrize(
    "solver,dist", [case[:2] for case in _SOLVE_CASES.values()], ids=list(_SOLVE_CASES)
)
def test_seeding_comes_from_params_and_is_checked_once(solver, dist):
    # I0 is params.initial_infected and S0 = N - I0.  Seeding more than N
    # nodes is rejected by every solve.  The input rule is the model's, so
    # the generic solve and the reference of a model agree: seeding all N is
    # refused by a pairwise solve and kept at [S] = 0 by a mean-field one,
    # and a degree below 2 is refused by a pairwise solve only.
    traj = _solve(solver, _params(dist, i0=7, t_end=2.0), 0.05)
    assert (traj.meta["I0"], traj.meta["S0"]) == (7.0, N - 7.0)
    assert traj.S[0] == N - 7.0
    with pytest.raises(ValueError, match="no susceptible"):
        _solve(solver, _params(dist, i0=N + 1, t_end=2.0), 0.05)
    everyone = _params(dist, i0=N, t_end=2.0)
    pairwise = solver in (nm.solve_pairwise, PW)
    if pairwise:
        with pytest.raises(ValueError, match="no susceptible"):
            _solve(solver, everyone, 0.05)
    else:
        assert np.all(_solve(solver, everyone, 0.05).S == 0.0)
    for degree in (1, 1.5):
        if pairwise:
            with pytest.raises(ValueError, match="pairwise model needs degree >= 2"):
                _solve(solver, _params(dist, t_end=2.0), 0.05, degree)
        else:
            assert np.all(np.isfinite(_solve(solver, _params(dist, t_end=2.0), 0.05, degree).I))


@pytest.mark.parametrize("solver,dist", _REFERENCES.values(), ids=list(_REFERENCES))
def test_reference_rejects_step_that_is_not_positive_and_finite(solver, dist):
    # SolverConfig refuses the step before any grid is laid, which would
    # divide by h.
    p = _params(dist, t_end=5.0)
    for h in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="step size"):
            solver(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=h))


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
        return np.array(rhs(tuple(u.tolist()), lag(t, lookup), t0))

    def jump_array(jump):
        return lambda u: np.array(jump(tuple(u.tolist())))

    jumps = {node: jump_array(jump) for node, jump in (jumps or {}).items()}
    return reference_march_delay_rk4(rhs_array, u0, h, steps, jumps)


# (solver, law, tau, I0, t_end, h)
_ORACLE_CASES = {
    "markovian": (PW, EXP, TAU, 5, 25.0, 1e-2),
    "markovian-mf": (MF, EXP, TAU, 5, 25.0, 1e-2),
    "fixed": (PW, FIXED, TAU, 5, 25.0, 1e-2),
    "fixed-mf": (MF, FIXED, TAU, 5, 25.0, 1e-2),
    "gamma": (PW, GAMMA, TAU, 5, 25.0, 1e-2),
    "gamma-mf": (MF, GAMMA, TAU, 5, 25.0, 1e-2),
    "uniform": (PW, UNIFORM, TAU, 5, 25.0, 1e-2),
    "uniform-mf": (MF, UNIFORM, TAU, 5, 25.0, 1e-2),
    "fixed-sigma-one-step": (PW, nm.FixedDuration(0.05), TAU, 5, 5.0, 0.05),
    "fixed-mf-sigma-one-step": (MF, nm.FixedDuration(0.05), TAU, 5, 5.0, 0.05),
    "fixed-sigma-beyond": (PW, nm.FixedDuration(30.0), TAU, 5, 5.0, 1e-2),
    "uniform-a-beyond": (PW, nm.UniformInterval(6, 8), TAU, 5, 5.0, 1e-2),
    "uniform-b-beyond": (PW, nm.UniformInterval(3, 8), TAU, 5, 5.0, 1e-2),
    "gamma-K1": (PW, nm.GammaErlang(shape=1, rate=2 / 3), TAU, 5, 10.0, 1e-2),
    "gamma-K8": (PW, nm.GammaErlang(shape=8, rate=16 / 3), TAU, 5, 10.0, 1e-2),
    "fixed-I0-0": (PW, FIXED, TAU, 0, 5.0, 1e-2),
    "gamma-I0-0": (PW, GAMMA, TAU, 0, 5.0, 1e-2),
    "uniform-I0-0": (PW, UNIFORM, TAU, 0, 5.0, 1e-2),
    "uniform-coarse-phi-709": (PW, UNIFORM, 1.0, 5, 800.0, 0.1),
    # The fast march evaluates lags a block of steps at a time, a block being
    # no longer than the shortest lag: these cross block edges at one-step,
    # uneven and non-dividing lags.
    "uniform-a-one-step": (PW, nm.UniformInterval(0.01, 0.5), TAU, 5, 5.0, 1e-2),
    "uniform-uneven-lags": (PW, nm.UniformInterval(0.03, 0.07), TAU, 5, 5.0, 1e-2),
    "uniform-mf-uneven-lags": (MF, nm.UniformInterval(0.03, 0.07), TAU, 5, 5.0, 1e-2),
    "fixed-sigma-few-steps": (PW, nm.FixedDuration(0.04), TAU, 5, 1.03, 1e-2),
    "fixed-mf-sigma-few-steps": (MF, nm.FixedDuration(0.04), TAU, 5, 1.03, 1e-2),
    # Both lags longer than the longest block (reference._MAX_BLOCK steps).
    "uniform-lags-past-block-cap": (PW, nm.UniformInterval(5.5, 7), TAU, 5, 20.0, 1e-2),
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_reference_matches_numpy_oracle_march(monkeypatch, case):
    # The float march keeps every operation of the numpy one in order, so
    # each reference comes out identical on either march.
    solver, dist, tau, i0, t_end, h = _ORACLE_CASES[case]
    params = nm.EpidemicParams(tau=tau, dist=dist, initial_infected=i0, t_end=t_end)
    fast = solver(params, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=h))
    monkeypatch.setattr(reference, "_march_delay_rk4", _numpy_march)
    slow = solver(params, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=h))
    for name in SERIES_NAMES:
        assert np.array_equal(fast.series(name), slow.series(name)), name
    assert fast.extra.keys() == slow.extra.keys()
    for key, value in fast.extra.items():
        assert np.array_equal(value, slow.extra[key]), key
    assert fast.meta == slow.meta
    if case == "uniform-coarse-phi-709":
        assert fast.extra["Phi"][-1] > 709.0


def test_references_end_finite_or_raise_solver_error():
    # Steps far too large for tau blow the RK4 march up or drive a count
    # negative; a reference must then raise SolverError naming the time,
    # never return NaN, inf or negative series or leak an OverflowError from
    # the scalar arithmetic.  Seeding every node is the one ValueError here.
    assert nm.SolverError is nm.solvers.SolverError is nm.trajectory.SolverError
    failures = negative = 0
    for solver, dist in _REFERENCES.values():
        for tau in (0.35, 1.0, 2.0, 5.0, 10.0, 50.0):
            for h in (0.01, 0.05, 0.1, 0.25, 0.5):
                for i0 in (1, 50, N):
                    params = nm.EpidemicParams(tau=tau, dist=dist, initial_infected=i0, t_end=10.0)
                    try:
                        traj = solver(params, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=h))
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
        MF(params, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.1))
