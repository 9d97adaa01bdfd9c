"""Renewal-equation solvers vs closed-form references and generic-core checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nmsir as nm
from nmsir import solvers
from nmsir.solvers import StepContractionError, _march_renewal
from nmsir.trajectory import _SolveSetup

from conftest import FIG1_DISTS, rel_sup_diff

N, DEG = 1000, 15


def _params(dist, i0=5, t_end=25.0):
    return nm.EpidemicParams(tau=0.35, dist=dist, initial_infected=i0, t_end=t_end)


# -- trivial branches ---------------------------------------------------------


def test_zero_initial_infecteds_stay_constant():
    p = _params(nm.Exponential(2 / 3), i0=0, t_end=5.0)
    for solve in (nm.solve_pairwise, nm.solve_meanfield):
        traj = solve(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.01))
        assert np.allclose(traj.S, N, atol=1e-10)
        assert np.allclose(traj.I, 0.0, atol=1e-10)


# -- special-case oracles ------------------------------------------------------


def test_meanfield_exponential_matches_classical_ode():
    p = _params(nm.Exponential(2 / 3))
    mf = nm.solve_meanfield(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-3))
    ref = nm.solve_markovian_meanfield(p, num_nodes=N, degree=DEG, h=1e-3)
    assert rel_sup_diff(mf.I, ref.I) < 1e-4
    assert rel_sup_diff(mf.S, ref.S) < 1e-4


def test_meanfield_fixed_matches_delayed_ode():
    p = _params(nm.FixedDuration(1.5))
    mf = nm.solve_meanfield(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-3))
    ref = nm.solve_fixed_delay_meanfield(p, num_nodes=N, degree=DEG, h=1e-3)
    assert rel_sup_diff(mf.I, ref.I) < 1e-4


def test_pairwise_exponential_matches_markovian_ode():
    p = _params(nm.Exponential(2 / 3))
    pw = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-3))
    ref = nm.solve_markovian_pairwise(p, num_nodes=N, degree=DEG, h=1e-3)
    assert rel_sup_diff(pw.I, ref.I) < 1e-3
    assert rel_sup_diff(pw.SI, ref.SI) < 1e-3


def test_pairwise_gamma_matches_stage_chain_coarse():
    # Full-resolution equivalence is acceptance criterion 3; this guards the
    # wiring at a cheaper step size.
    p = _params(nm.GammaErlang(3, 2 / 3))
    pw = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=5e-3))
    ref = nm.solve_gamma_chain(p, num_nodes=N, degree=DEG, h=5e-3)
    assert rel_sup_diff(pw.I, ref.I) < 1e-2


# -- structural invariants ------------------------------------------------------


def test_first_integral_exact_by_construction():
    p = _params(nm.UniformInterval(1, 2))
    pw = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.01))
    u = pw.SS / pw.S ** (2.0 * (DEG - 1) / DEG)
    assert np.max(np.abs(u / u[0] - 1.0)) < 1e-12


def test_independent_ss_drift_shrinks_with_h():
    p = _params(nm.Exponential(2 / 3), t_end=20.0)
    drifts = []
    for h in (0.02, 0.01):
        pw = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=h))
        u = pw.extra["SS_independent"] / pw.S ** (2.0 * (DEG - 1) / DEG)
        drifts.append(np.max(np.abs(u / u[0] - 1.0)))
    assert drifts[1] < drifts[0]
    assert drifts[1] < 5e-3


def test_node_conservation_with_independent_recovered_quadrature():
    # S + I + R_indep = N where R_indep integrates incidence against the cdf
    # (piecewise trapezoid: a jump node carries the average of its one-sided
    # limits, as for any discontinuous integrand).
    for dist in (nm.Exponential(2 / 3), nm.FixedDuration(1.5), nm.UniformInterval(1, 2)):
        p = _params(dist)
        pw = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.01))
        h = 0.01
        m = len(pw.t) - 1
        ages = np.arange(m + 1) * h
        cdf = np.asarray(dist.cdf(ages))
        atom, loc = dist.has_point_mass()
        if atom:
            cdf[int(round(loc / h))] = 0.5
        incidence = 0.35 * pw.SI
        conv = np.convolve(incidence, cdf)[: m + 1]
        ends = 0.5 * (incidence[0] * cdf + incidence * cdf[0])
        r_indep = h * (conv - ends) + 5.0 * np.asarray(dist.cdf(ages))
        assert np.max(np.abs(pw.S + pw.I + r_indep - N)) < 1e-3 * N


def test_series_nonnegative_all_kinds(all_dists):
    for dist in all_dists.values():
        p = _params(dist, t_end=20.0)
        pw = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.01))
        for name in ("S", "I", "R", "SI", "SS"):
            assert pw.series(name).min() > -1e-9


def test_susceptibles_strictly_decreasing_while_si_positive():
    p = _params(nm.GammaErlang(3, 2 / 3), t_end=15.0)
    pw = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.01))
    active = pw.SI[:-1] > 1e-8
    assert np.all(np.diff(pw.S)[active] < 0.0)


# -- stepping machinery ----------------------------------------------------------


def test_contraction_failure_raises():
    p = _params(nm.Exponential(2 / 3), t_end=10.0)
    with pytest.raises(StepContractionError):
        nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.5))


def test_solves_raise_only_solver_errors(all_dists):
    # Diverging steps (S driven below zero, huge tau*h) must surface as the
    # documented solver errors, never as a TypeError or OverflowError from
    # the scalar arithmetic.
    for dist in all_dists.values():
        for tau in (0.5, 1.0, 2.0, 3.0, 5.0, 10.0):
            p = nm.EpidemicParams(tau=tau, dist=dist, initial_infected=5, t_end=10.0)
            for h in (0.01, 0.05, 0.1, 0.25, 0.5):
                for solve in (nm.solve_pairwise, nm.solve_meanfield):
                    try:
                        traj = solve(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=h))
                    except nm.SolverError:  # StepContractionError included
                        continue
                    for name in ("S", "I", "R", "SI", "SS"):
                        assert np.all(np.isfinite(traj.series(name))), (dist, tau, h, solve)


@st.composite
def _solve_args(draw):
    num_nodes = draw(st.integers(20, 3000))
    degree = draw(st.integers(2, min(num_nodes - 1, 30)))
    mean = draw(st.floats(0.1, 5.0))
    dist = draw(st.sampled_from([
        nm.Exponential(1.0 / mean),
        nm.FixedDuration(mean),
        nm.GammaErlang(draw(st.integers(1, 8)), 1.0 / mean),
        nm.UniformInterval(mean, mean + draw(st.floats(0.05, 3.0))),
    ]))
    params = nm.EpidemicParams(
        tau=math.exp(draw(st.floats(math.log(0.01), math.log(5.0)))),
        dist=dist,
        initial_infected=draw(st.integers(1, max(1, num_nodes // 10))),
        t_end=draw(st.floats(1.0, 20.0)),
    )
    h = draw(st.sampled_from([0.005, 0.01, 0.02, 0.05, 0.1]))
    return params, num_nodes, degree, h


@settings(max_examples=200)
@given(_solve_args())
@example((
    nm.EpidemicParams(
        tau=3.4079226779863747,
        dist=nm.UniformInterval(1.0799442282810656, 2.2951164162434905),
        initial_infected=13,
        t_end=18.445937580523843,
    ),
    403, 24, 0.1,
))
@example((
    nm.EpidemicParams(tau=1.0, dist=nm.FixedDuration(0.125), initial_infected=1, t_end=1.0),
    20, 2, 0.1,
))
def test_solves_end_in_valid_series_or_solver_errors(args):
    # Each solve either raises a documented error or returns finite series
    # that conserve N, never gain susceptibles and, for the pairwise model,
    # stay nonnegative.  Mean-field positivity is left out: its [R] dips
    # below zero before the first recovery for bounded-support laws.  The
    # first example overflows exp() in the corrector.  In the second, a
    # one-step infectious period, the corrector's tolerance (scaled by [S])
    # passes a slightly negative [SI] unless the sign of y is checked too.
    params, num_nodes, degree, h = args
    for solve in (nm.solve_pairwise, nm.solve_meanfield):
        try:
            traj = solve(params, num_nodes=num_nodes, degree=degree, config=nm.SolverConfig(h=h))
        except (nm.SolverError, ValueError):
            continue
        series = {name: traj.series(name) for name in ("S", "I", "R", "SI", "SS")}
        assert all(np.all(np.isfinite(v)) for v in series.values())
        assert np.max(np.abs(traj.S + traj.I + traj.R - num_nodes)) <= 1e-9 * num_nodes
        assert np.max(np.diff(traj.S)) <= 1e-9 * num_nodes
        if solve is nm.solve_pairwise:
            assert all(v.min() >= -1e-9 for v in series.values())


CONVOLUTION_LAWS = {
    "exp": nm.Exponential(2 / 3),
    "erlang3": nm.GammaErlang(3, 2 / 3),
    "erlang20": nm.GammaErlang(20, 2 / 3),
    "fixed": nm.FixedDuration(1.5),
    "uniform": nm.UniformInterval(1, 2),
}


@pytest.mark.parametrize("law", list(CONVOLUTION_LAWS))
@pytest.mark.parametrize("h", [1e-2, 1e-3])
def test_infected_convolution_matches_direct(monkeypatch, law, h):
    # Pairwise [I] sums the incidence against the quadrature kernel by one
    # FFT convolution.  It must agree with np.convolve over the solve, and
    # up to the incidence peak, where an FFT length short enough to wrap
    # around adds the largest late terms to the early sums; and its
    # absolute rounding must not take [I] measurably below zero (measured at
    # most 7.8e-16, and a minimum of -1.7e-13).
    inputs = []
    fft_infected = solvers._infected_from_incidence

    def recorded(incidence, xi_quad, boundary, h):
        inputs.append((incidence, xi_quad, boundary))
        return fft_infected(incidence, xi_quad, boundary, h)

    monkeypatch.setattr(solvers, "_infected_from_incidence", recorded)
    dist = CONVOLUTION_LAWS[law]
    traj = nm.solve_pairwise(_params(dist), num_nodes=N, degree=DEG, config=nm.SolverConfig(h=h))
    [(incidence, xi_quad, boundary)] = inputs
    m = len(incidence)
    assert len(xi_quad) == m
    for cut in (m, int(np.argmax(incidence)) + 1):
        inc, xi, b = incidence[:cut], xi_quad[:cut], boundary[:cut]
        direct = h * (np.convolve(inc, xi)[:cut] - 0.5 * (inc[0] * xi + inc * xi[0])) + b
        fft = traj.I if cut == m else fft_infected(inc, xi, b, h)
        assert rel_sup_diff(fft, direct) < 1e-12, cut
    assert traj.I.min() >= -1e-12 * N


@pytest.mark.parametrize(
    "dist", [nm.FixedDuration(1.5), nm.UniformInterval(1, 2)], ids=["fixed", "uniform"]
)
def test_meanfield_pre_recovery_dip_is_third_order_in_h(dist):
    # Before the first recovery mean-field R = N - S - I is zero in exact
    # arithmetic; the corrector's stopping tolerance leaves a small negative
    # dip near t = 1 that shrinks about 8x per halving of h.
    dips = []
    for h in (0.01, 0.005, 0.0025):
        traj = nm.solve_meanfield(
            _params(dist, t_end=2.0), num_nodes=N, degree=DEG, config=nm.SolverConfig(h=h)
        )
        dips.append(-float(traj.R.min()))
    assert 0.0 < dips[0] < 1e-3
    assert dips[0] >= 6.0 * dips[1] and dips[1] >= 6.0 * dips[2]


def test_long_horizon_pairwise_stays_finite():
    # Phi passes 800 here; the stored history weights are rescaled instead of
    # overflowing exp(Phi), and the rescale leaves the march over the first
    # 60 days (Phi below 300) bit-identical to a short solve.  [I] and [R]
    # come from an FFT whose length follows the horizon, so they agree to
    # rounding only (measured 3.4e-16).
    dist = nm.UniformInterval(1, 2)
    cfg = nm.SolverConfig(h=0.01)
    full = nm.solve_pairwise(
        nm.EpidemicParams(tau=1.0, dist=dist, initial_infected=5, t_end=800.0),
        num_nodes=N, degree=DEG, config=cfg,
    )
    short = nm.solve_pairwise(
        nm.EpidemicParams(tau=1.0, dist=dist, initial_infected=5, t_end=60.0),
        num_nodes=N, degree=DEG, config=cfg,
    )
    assert full.extra["Phi"][-1] > 709.0
    for name in ("S", "I", "R", "SI", "SS"):
        assert np.all(np.isfinite(full.series(name)))
    for name in ("S", "SI", "SS"):
        assert np.array_equal(full.series(name)[:6001], short.series(name))
    for name in ("I", "R"):
        assert rel_sup_diff(full.series(name)[:6001], short.series(name)) < 1e-13
    assert np.array_equal(full.extra["Phi"][:6001], short.extra["Phi"])


def test_fast_epidemic_converges_at_default_step():
    # tau >= 1.5 needs more than the two corrector sweeps every step runs on
    # the first steps; the iteration contracts, so the solve must go through
    # and agree with a ten times finer step.
    dist = nm.GammaErlang(3, 2 / 3)
    for tau in (1.5, 2.0):
        p = nm.EpidemicParams(tau=tau, dist=dist, initial_infected=5, t_end=10.0)
        for solve in (nm.solve_pairwise, nm.solve_meanfield):
            coarse = solve(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.01))
            fine = solve(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-3))
            for name in ("S", "I", "SI"):
                assert rel_sup_diff(coarse.series(name), fine.series(name)[::10]) < 2e-2


def test_fig1_steps_stop_after_two_sweeps(monkeypatch):
    # The stop test first runs after the second sweep, the first that has a
    # contraction ratio to go on; at the fig-1 settings it passes there on
    # every step.  deriv_x runs once per step for the predictor and once per
    # sweep, so it counts the sweeps.
    counts = {"tests": 0, "derivs": 0}
    converged, march = solvers._corrector_converged, solvers._march_renewal

    def counted_test(*args):
        counts["tests"] += 1
        return converged(*args)

    def counted_march(*, deriv_x, **kwargs):
        def counted_deriv(*args):
            counts["derivs"] += 1
            return deriv_x(*args)

        return march(deriv_x=counted_deriv, **kwargs)

    monkeypatch.setattr(solvers, "_corrector_converged", counted_test)
    monkeypatch.setattr(solvers, "_march_renewal", counted_march)
    for dist in FIG1_DISTS.values():
        for solve in (nm.solve_pairwise, nm.solve_meanfield):
            counts.update(tests=0, derivs=0)
            solve(_params(dist), num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-2))
            steps = 2500
            assert counts == {"tests": steps, "derivs": steps + 2 * steps}, (dist, solve)


def test_early_ratio_above_one_does_not_stop_the_corrector():
    # On the step to t = 1.4 the second sweep moves further than the first
    # (ratio about 1.15), because the first move is measured from the
    # predictor; the sweeps after it contract at about 0.08.  Only the stop
    # test decides, so the solve goes through and agrees with a finer step.
    p = nm.EpidemicParams(tau=0.35, dist=nm.FixedDuration(1.5), initial_infected=7, t_end=2.0)
    coarse = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.05))
    fine = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.005))
    for name in ("S", "I", "SI"):
        assert rel_sup_diff(coarse.series(name), fine.series(name)[::10]) < 2e-2


def test_negative_count_iterate_is_not_accepted():
    # Mean-field [S] falls towards zero at tau = 5.  With h = 0.02 the error
    # of the [S] iterate changes sign from sweep to sweep and is still larger
    # than [S] after the second one; the step keeps sweeping until [S] is
    # nonnegative and the stop test passes.
    for i0 in (1, 5, 50):
        p = nm.EpidemicParams(
            tau=5.0, dist=nm.Exponential(2 / 3), initial_infected=i0, t_end=10.0
        )
        traj = nm.solve_meanfield(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.02))
        assert traj.S.min() >= 0.0
        assert np.all(np.isfinite(traj.I))


@pytest.mark.parametrize("delta, delta_prev", [(1.0, 0.5), (1.0, 1.0), (1.0, 0.999)])
def test_corrector_never_accepts_a_step_that_does_not_contract(delta, delta_prev):
    # With q = delta/delta_prev >= 1 the geometric error estimate
    # delta q/(1 - q) is negative (or undefined) and would pass any tolerance.
    assert not solvers._corrector_converged(delta, delta_prev, 0.0, 0.0)


@pytest.mark.parametrize(
    "solve, degree, t_end, match",
    [(nm.solve_pairwise, 1, 5.0, "degree >= 2"),
     (nm.solve_pairwise, 1.5, 5.0, "degree >= 2"),
     (nm.solve_pairwise, DEG, 0.004, "at least one step"),
     (nm.solve_meanfield, DEG, 0.004, "at least one step")],
)
def test_solve_setup_rejections(solve, degree, t_end, match):
    # t_end = 0.004 is below half of h = 0.01, so the grid has no step.
    p = _params(nm.Exponential(2 / 3), t_end=t_end)
    with pytest.raises(ValueError, match=match):
        solve(p, num_nodes=N, degree=degree, config=nm.SolverConfig(h=0.01))


def test_grid_snap_warning_recorded():
    p = _params(nm.FixedDuration(1.5037), t_end=5.0)
    pw = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.01))
    assert "grid_snap" in pw.meta
    assert pw.meta["dist"] == "fixed:sigma=1.5"


def test_support_below_half_step_rejected():
    p = _params(nm.FixedDuration(0.004), t_end=5.0)
    with pytest.raises(ValueError):
        nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.01))


# -- stepping core ------------------------------------------------------------------


def test_march_renewal_linear_renewal_closed_form():
    # y(t) = int_0^t y(u) xi(t-u) du + xi(t) with the Erlang-2 survival
    # xi(a) = (1 + 2a) e^{-2a} has the Laplace-inverted solution
    # y(t) = 4/3 - e^{-3t}/3; a constant damping rate g multiplies it by
    # e^{-gt}.  The sup error must fall at second order, with the history
    # stored in full or kept as two stage sums of rate 2.
    for kind in ("full", "stage"):
        for g in (None, 0.5):
            errs = []
            for h in (0.02, 0.01, 0.005):
                steps = int(round(5.0 / h))
                ages = np.arange(steps + 1) * h
                xi = (1.0 + 2.0 * ages) * np.exp(-2.0 * ages)
                _, y, _, _ = _march_renewal(
                    deriv_x=lambda x, y: 0.0,
                    state_factor=lambda x, y: y,
                    exponent_rate=None if g is None else (lambda x, y: g),
                    xi_quad=xi,
                    boundary=xi,
                    x0=0.0,
                    h=h,
                    steps=steps,
                    history=(
                        solvers._weight_history(xi, h, steps, None)
                        if kind == "full"
                        else solvers._stage_history(2, 2.0, h)
                    ),
                )
                exact = (4.0 / 3.0 - np.exp(-3.0 * ages) / 3.0) * np.exp(-(g or 0.0) * ages)
                errs.append(float(np.max(np.abs(y - exact))))
            for coarse, fine in zip(errs, errs[1:]):
                assert 3.5 < coarse / fine < 4.5, kind  # order 2 halving
            assert errs[-1] < 1e-5, kind


# -- history kinds ------------------------------------------------------------------

STAGE_LAWS = {
    "exp": nm.Exponential(2 / 3),
    "erlang2": nm.GammaErlang(2, 2 / 3),
    "erlang3": nm.GammaErlang(3, 2 / 3),
    "erlang_max": nm.GammaErlang(solvers._MAX_STAGES, 2 / 3),
}
KIND_SERIES = ("S", "I", "R", "SI", "SS")


def _stage_vs_full(monkeypatch, solve, params, h):
    """Worst sup-relative gap between a stage-kind solve and the full-kind one.

    The full kind is forced by switching the law's private stage hook off.
    """
    chain = params.dist._stage_chain()
    assert chain is not None and chain[0] <= solvers._MAX_STAGES
    cfg = nm.SolverConfig(h=h)
    staged = solve(params, num_nodes=N, degree=DEG, config=cfg)
    with monkeypatch.context() as m:
        m.setattr(type(params.dist), "_stage_chain", lambda self: None)
        full = solve(params, num_nodes=N, degree=DEG, config=cfg)
    pairs = [(staged.series(k), full.series(k)) for k in KIND_SERIES]
    pairs += [(staged.extra[k], full.extra[k]) for k in full.extra]
    assert not all(np.array_equal(a, b) for a, b in pairs)
    assert all(np.all(np.isfinite(a)) for a, _ in pairs)
    return max(rel_sup_diff(a, b) for a, b in pairs), staged


@pytest.mark.parametrize("solve", [nm.solve_pairwise, nm.solve_meanfield], ids=["pw", "mf"])
@pytest.mark.parametrize("law", list(STAGE_LAWS))
@pytest.mark.parametrize(
    "tau, t_end, h", [(0.35, 25.0, 1e-2), (0.1, 60.0, 1e-3)], ids=["fig1", "tau0.1"]
)
def test_stage_kind_matches_full_kind(monkeypatch, solve, law, tau, t_end, h):
    # Measured: at most 4.5e-15 at fig-1 (h = 1e-2) and 8.6e-14 at
    # tau = 0.1 (h = 1e-3) over the five series, Phi and SS_independent.
    params = nm.EpidemicParams(tau=tau, dist=STAGE_LAWS[law], initial_infected=5, t_end=t_end)
    worst, _ = _stage_vs_full(monkeypatch, solve, params, h)
    assert worst < 1e-12


def test_stage_kind_long_horizon_rescales(monkeypatch):
    # Phi passes 800, so the stage sums are rescaled at least twice; the
    # solve stays finite and within rounding of the full kind (measured
    # 1.2e-15).
    params = nm.EpidemicParams(
        tau=1.0, dist=nm.GammaErlang(3, 2 / 3), initial_infected=5, t_end=800.0
    )
    worst, staged = _stage_vs_full(monkeypatch, nm.solve_pairwise, params, 1e-2)
    assert staged.extra["Phi"][-1] > 2 * solvers._PHI_RESCALE
    assert worst < 1e-12


WINDOW_LAWS = {
    "fixed": nm.FixedDuration(1.5),
    "uniform": nm.UniformInterval(1, 2),
    "fixed-1step": nm.FixedDuration(1e-2),
    "uniform-2step": nm.UniformInterval(1e-2, 2e-2),
}


@pytest.mark.parametrize("solve", [nm.solve_pairwise, nm.solve_meanfield], ids=["pw", "mf"])
@pytest.mark.parametrize("law", list(WINDOW_LAWS))
def test_windowed_kind_matches_full_kind(monkeypatch, solve, law):
    # The windowed kind sums only the weights inside the support, so node
    # 0's half weight must leave its sum on the step its age passes the
    # support, down to a support of one step.  The full kind is forced by
    # reporting an unbounded support (measured at most 3.6e-16).
    dist = WINDOW_LAWS[law]
    params = _params(dist)
    cfg = nm.SolverConfig(h=1e-2)
    assert _SolveSetup("pairwise", params, num_nodes=N, degree=DEG, h=1e-2).window is not None
    windowed = solve(params, num_nodes=N, degree=DEG, config=cfg)
    with monkeypatch.context() as m:
        m.setattr(type(dist), "support_upper", lambda self: math.inf)
        full = solve(params, num_nodes=N, degree=DEG, config=cfg)
    pairs = [(windowed.series(k), full.series(k)) for k in KIND_SERIES]
    pairs += [(windowed.extra[k], full.extra[k]) for k in full.extra]
    assert max(rel_sup_diff(a, b) for a, b in pairs) < 1e-12
