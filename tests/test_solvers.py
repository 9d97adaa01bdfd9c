"""Renewal-equation solvers vs closed-form references and generic-core checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nmsir as nm
from nmsir import solvers
from nmsir.solvers import StepContractionError, _march_renewal
from nmsir.trajectory import _SolveSetup

import oracles
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


@pytest.mark.parametrize("tau", [0.35, 0.1], ids=["fig1", "tau0.1"])
@pytest.mark.parametrize(
    "dist",
    [nm.Exponential(2 / 3), nm.FixedDuration(1.5), nm.GammaErlang(3, 2 / 3),
     nm.UniformInterval(1, 2)],
    ids=["exp", "fixed", "gamma", "uniform"],
)
def test_meanfield_matches_reference_meanfield(dist, tau):
    # Tighter than acceptance criterion 3's 1e-3 (exp, fixed) and 1e-2
    # (gamma, uniform); the gaps are below 1e-5 for every law at both tau.
    p = nm.EpidemicParams(tau=tau, dist=dist, initial_infected=5, t_end=25.0)
    mf = nm.solve_meanfield(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-3))
    ref = nm.solve_reference_meanfield(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-3))
    assert rel_sup_diff(mf.I, ref.I) < 1e-4
    assert rel_sup_diff(mf.S, ref.S) < 1e-4


def test_pairwise_exponential_matches_markovian_ode():
    p = _params(nm.Exponential(2 / 3))
    pw = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-3))
    ref = nm.solve_reference_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-3))
    assert rel_sup_diff(pw.I, ref.I) < 1e-3
    assert rel_sup_diff(pw.SI, ref.SI) < 1e-3


def test_pairwise_gamma_matches_stage_chain_coarse():
    # Full-resolution equivalence is acceptance criterion 3; this guards the
    # wiring at a cheaper step size.
    p = _params(nm.GammaErlang(3, 2 / 3))
    pw = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=5e-3))
    ref = nm.solve_reference_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=5e-3))
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
    # F = 1 - xi (piecewise trapezoid: a jump node carries the average of its
    # one-sided limits, as for any discontinuous integrand).
    for dist in (nm.Exponential(2 / 3), nm.FixedDuration(1.5), nm.UniformInterval(1, 2)):
        p = _params(dist)
        pw = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.01))
        h = 0.01
        m = len(pw.t) - 1
        ages = np.arange(m + 1) * h
        F = 1.0 - dist.survival(ages)
        cdf = F.copy()
        atom, loc = dist.has_point_mass()
        if atom:
            cdf[int(round(loc / h))] = 0.5
        incidence = 0.35 * pw.SI
        conv = np.convolve(incidence, cdf)[: m + 1]
        ends = 0.5 * (incidence[0] * cdf + incidence * cdf[0])
        r_indep = h * (conv - ends) + 5.0 * F
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
    # that conserve N, never gain susceptibles and stay nonnegative, for
    # both models: the mean-field step is solved in closed form, so its [R]
    # no longer dips below zero before the first recovery.  In the first
    # example no nonnegative [SI] solves the first pairwise step (its
    # denominator is negative at h = 0.1).  The second, a one-step
    # infectious period, keeps [SI] nonnegative because each step solves it
    # exactly, from a positive denominator, not to the corrector's tolerance.
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
    "dist, first",
    [(nm.FixedDuration(1.5), 1.5), (nm.UniformInterval(1, 2), 1.0)],
    ids=["fixed", "uniform"],
)
def test_meanfield_conserves_n_before_first_recovery(dist, first):
    # Before the first recovery (t < first) S + I = N holds exactly in the
    # trapezoid equations, and each step is solved in closed form, so the
    # solve keeps it to rounding at every step size (measured at most
    # 1.7e-15 N; a fixed-point corrector stopped at a 1e-5 tolerance leaves
    # up to 1.9e-6 N at h = 0.01).
    for h in (0.01, 0.005, 0.0025):
        traj = nm.solve_meanfield(
            _params(dist, t_end=2.0), num_nodes=N, degree=DEG, config=nm.SolverConfig(h=h)
        )
        before = traj.t < first
        assert np.max(np.abs(traj.S + traj.I - N)[before]) <= 1e-9 * N, h


def test_long_horizon_pairwise_stays_finite():
    # Phi passes 800 here, so exp(Phi) would overflow; the links are damped
    # by ([S](t)/[S](u))^((n-1)/n) e^(-tau (t-u)) <= 1 instead, and the march
    # over the first 60 days is bit-identical to a short solve.  [I] and [R]
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
    # At h = 0.01 a fifth to a quarter of the pairwise steps need more than
    # one corrector sweep: 764, 777 and 797 of 1000 steps take one at
    # tau = 1.5, 2 and 3, and early steps take up to 4, 5 and 7 (three or
    # more from t = 0.23, 0.17 and 0.06).  The iteration contracts, so the
    # solve must go through and agree with a ten times finer step (measured
    # 1.8e-2 pairwise and 1.77e-2 mean-field at tau = 3).
    dist = nm.GammaErlang(3, 2 / 3)
    for tau in (1.5, 2.0, 3.0):
        p = nm.EpidemicParams(tau=tau, dist=dist, initial_infected=5, t_end=10.0)
        for solve in (nm.solve_pairwise, nm.solve_meanfield):
            coarse = solve(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.01))
            fine = solve(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-3))
            for name in ("S", "I", "SI"):
                assert rel_sup_diff(coarse.series(name), fine.series(name)[::10]) < 2e-2


def test_fig1_pairwise_steps_solve_their_trapezoid_equations():
    # The pairwise twin of the mean-field test below.  Each step commits
    # S_{k+1} = S_k - h tau (SI_k + SI_{k+1})/2 as computed (measured 0), and
    # SI_{k+1} from its renewal equation at the corrector's last iterate, one
    # correction away from S_{k+1}: against the equation rebuilt at the
    # committed S, SI = S^beta (h trapezoid of W = tau kappa SI S^(-1/n)
    # against xi(a) e^(-tau a), plus S0^(-beta) e^(-tau t) b) with the
    # boundary b = (n/N) S0 I0 xi, it is off by about beta times the
    # corrector's 1e-5 tolerance (measured at most 9.3e-6 relative).
    h = 1e-2
    beta = (DEG - 1.0) / DEG
    for dist in FIG1_DISTS.values():
        p = _params(dist)
        pw = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=h))
        S, SI, S0 = pw.S, pw.SI, pw.S[0]
        s_rhs = S[:-1] - 0.5 * h * p.tau * (SI[:-1] + SI[1:])
        assert np.all(np.abs(S[1:] - s_rhs) <= 1e-12 * S[:-1]), dist
        kappa = (DEG - 1.0) / N * S0 ** (2.0 / DEG)
        w = p.tau * kappa * SI / S ** (1.0 / DEG)
        decay = np.exp(-p.tau * pw.t)
        kernel = dist.survival(pw.t) * decay
        hist = h * (np.convolve(w, kernel)[: len(w)] - 0.5 * (w[0] * kernel + w * kernel[0]))
        boundary = DEG / N * S0 * p.initial_infected * dist.survival(pw.t)
        si_rhs = S**beta * (hist + S0**-beta * decay * boundary)
        assert np.all(np.abs(SI - si_rhs) <= 1e-5 * SI), dist


def test_pairwise_step_is_within_tolerance_of_its_exact_root():
    # F(S) = S - T(S), T(S) = S_k - h tau (SI_k + Y(S))/2 with
    # Y(S) = S^beta A / (1 - c S^alpha), rises with slope >= 1, so a sweep's
    # correction bounds its error, and every step that returns is within
    # the tolerance of the exact root S* (found here by bisection of F to
    # adjacent doubles).  Random states over three tau, three h and S_k from
    # 1e-8 to 995; the steps that fail (a sweep finds no [S] >= 0, or the
    # sweeps do not converge) are skipped.  Measured at most 0.49 of the
    # tolerance.
    rng = np.random.default_rng(29)
    alpha, beta = (DEG - 2.0) / DEG, (DEG - 1.0) / DEG
    S0, xi0, count = 995.0, 1.0, 2000
    for tau in (0.35, 1.0, 3.0):
        for h in (0.01, 0.05, 0.1):
            step, _ = solvers._pairwise_step(tau, DEG, N, S0, xi0, h)
            c = 0.5 * h * xi0 * tau * (DEG - 1.0) / N * S0 ** (2.0 / DEG)
            xk = 10.0 ** rng.uniform(-8.0, math.log10(S0), count)
            yk = xk * DEG * rng.uniform(0.0, 1.0, count)
            y_prev = yk * rng.uniform(0.5, 1.5, count)
            A = yk / xk**beta * 10.0 ** rng.uniform(-1.0, 1.0, count)
            returned = []
            for i, state in enumerate(zip(xk.tolist(), yk.tolist(), y_prev.tolist(), A.tolist())):
                try:
                    x, _, _, _ = step(0, *state, 0.0)
                except StepContractionError:
                    continue
                returned.append((i, x))
            assert len(returned) > count // 10, (tau, h)
            idx = np.array([i for i, _ in returned])
            x = np.array([x for _, x in returned])
            t0 = xk[idx] - 0.5 * h * tau * yk[idx]

            def residual(s):
                den = 1.0 - c * s**alpha
                y = np.where(den > 0.0, s**beta * A[idx] / np.where(den > 0.0, den, 1.0), np.inf)
                return s - (xk[idx] - 0.5 * h * tau * (yk[idx] + y))

            lo, hi = np.zeros_like(t0), t0.copy()
            while True:
                mid = 0.5 * (lo + hi)
                inside = (mid > lo) & (mid < hi)
                if not inside.any():
                    break
                above = residual(mid) > 0.0
                hi = np.where(inside & above, mid, hi)
                lo = np.where(inside & ~above, mid, lo)
            exact = 0.5 * (lo + hi)
            err = np.abs(x - exact) / np.maximum(1.0, exact)
            assert err.max() <= 1e-5, (tau, h, err.max())


def test_fig1_meanfield_steps_solve_both_trapezoid_equations():
    # The mean-field step is solved in closed form, not swept, so every
    # committed step satisfies its [S] and [I] trapezoid equations to
    # rounding: S_{k+1} = S_k - h (w_k + w_{k+1})/2 with w = tau (n/N) S I,
    # and I_{k+1} the trapezoid sum of w against the survival plus I0 xi.
    # The fig-1 laws have no jump, so the history is the plain convolution.
    # Measured at most 2.2e-16 for [S] and 6.9e-14 for [I] (stage sums
    # against the convolution); a corrector stopped at a 1e-5 tolerance
    # leaves 7.5e-7 and 3.4e-5.
    h = 1e-2
    for dist in FIG1_DISTS.values():
        p = _params(dist)
        mf = nm.solve_meanfield(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=h))
        w = p.tau * DEG / N * mf.S * mf.I
        s_rhs = mf.S[:-1] - 0.5 * h * (w[:-1] + w[1:])
        assert np.all(np.abs(mf.S[1:] - s_rhs) <= 1e-12 * mf.S[:-1]), dist
        xi = dist.survival(mf.t)
        i_rhs = h * (np.convolve(w, xi)[: len(w)] - 0.5 * (w[0] * xi + w * xi[0])) + 5.0 * xi
        assert np.all(np.abs(mf.I - i_rhs) <= 1e-12 * mf.I), dist


def test_coarse_step_sweeps_until_its_correction_is_within_tolerance():
    # A step stops only on its own correction.  Here, at h = 0.05, the sweeps
    # over [S] contract at 0.07-0.12 (the slope of the step map, since [SI]
    # is solved exactly given [S]); no step stops after one sweep, and the 23
    # from t = 0.9 on run three to five.  The solve goes through and agrees
    # with a finer step.
    p = nm.EpidemicParams(tau=0.35, dist=nm.FixedDuration(1.5), initial_infected=7, t_end=2.0)
    coarse = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.05))
    fine = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.005))
    for name in ("S", "I", "SI"):
        assert rel_sup_diff(coarse.series(name), fine.series(name)[::10]) < 2e-2


def test_negative_count_iterate_is_not_accepted():
    # Mean-field [S] falls towards zero at tau = 5.  With h = 0.02 each
    # step's closed-form root stays nonnegative, so every solve goes through
    # with [S] >= 0 and a finite [I].
    for i0 in (1, 5, 50):
        p = nm.EpidemicParams(
            tau=5.0, dist=nm.Exponential(2 / 3), initial_infected=i0, t_end=10.0
        )
        traj = nm.solve_meanfield(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=0.02))
        assert traj.S.min() >= 0.0
        assert np.all(np.isfinite(traj.I))


@pytest.mark.parametrize(
    "solve, degree, t_end, match",
    [(nm.solve_pairwise, 1, 5.0, "degree >= 2"),
     (nm.solve_pairwise, 1.5, 5.0, "degree >= 2"),
     (nm.solve_pairwise, DEG, 0.004, "at least one step"),
     (nm.solve_meanfield, DEG, 0.004, "at least one step"),
     (nm.solve_pairwise, DEG, 10000.01, "limit of 1000000 steps"),
     (nm.solve_reference_meanfield, DEG, 10000.01, "limit of 1000000 steps")],
)
def test_solve_setup_rejections(solve, degree, t_end, match):
    # t_end = 0.004 is below half of h = 0.01, so the grid has no step;
    # t_end = 10000.01 is one step past the limit.
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
    # y(t) = 4/3 - e^{-3t}/3; damping every term at a constant rate g, the
    # kernel by e^{-ga} and the boundary by e^{-gt}, multiplies it by e^{-gt}.
    # The step is linear in y, so it is solved directly.  The sup error must
    # fall at second order, with the history stored in full or kept as two
    # stage sums of rate 2.
    for kind in ("full", "stage"):
        for g in (0.0, 0.5):
            errs = []
            for h in (0.02, 0.01, 0.005):
                steps = int(round(5.0 / h))
                ages = np.arange(steps + 1) * h
                xi = (1.0 + 2.0 * ages) * np.exp(-2.0 * ages)
                damping = np.exp(-g * ages)

                def linear_step(k, xk, yk, y_prev, hist, b_left):
                    y = (hist + b_left) / (1.0 - 0.5 * h * xi[0])
                    return 0.0, y, 1.0, y

                _, y, _ = _march_renewal(
                    step=linear_step,
                    weight=lambda x, y: y,
                    boundary=xi * damping,
                    x0=0.0,
                    h=h,
                    advance=(
                        solvers._weight_history(xi * damping, h, steps, None)
                        if kind == "full"
                        else solvers._stage_history(2, 2.0, g, h)
                    ),
                )
                exact = (4.0 / 3.0 - np.exp(-3.0 * ages) / 3.0) * damping
                errs.append(float(np.max(np.abs(y - exact))))
            for coarse, fine in zip(errs, errs[1:]):
                assert 3.5 < coarse / fine < 4.5, kind  # order 2 halving
            assert errs[-1] < 1e-5, kind


ORACLE_LAWS = {
    "exp": nm.Exponential(2 / 3),
    "erlang3": nm.GammaErlang(3, 2 / 3),
    "erlang8": nm.GammaErlang(8, 2 / 3),  # past _MAX_STAGES: the full kind
    "fixed1.5": nm.FixedDuration(1.5),
    "fixed1.55": nm.FixedDuration(1.55),
    "fixed_snapped": nm.FixedDuration(1.553),  # snapped to 1.55
    "fixed_h": nm.FixedDuration(0.01),  # the jump at node 1
    "uniform": nm.UniformInterval(1, 2),  # the windowed kind
}


def _solve_on_oracle_march(monkeypatch, solve, *args, **kwargs):
    """``solve`` with the march, history kinds and step closures of tests/oracles.py."""
    with monkeypatch.context() as m:
        for name in ("_weight_history", "_stage_history", "_meanfield_step", "_pairwise_step"):
            m.setattr(solvers, name, getattr(oracles, name))
        m.setattr(
            solvers,
            "_march_renewal",
            lambda *, advance, **kw: oracles._march_renewal(history=advance, **kw),
        )
        return solve(*args, **kwargs)


@pytest.mark.parametrize("solve", [nm.solve_pairwise, nm.solve_meanfield],
                         ids=["pairwise", "meanfield"])
@pytest.mark.parametrize("tau", [0.35, 3.0])
@pytest.mark.parametrize("law", ORACLE_LAWS.values(), ids=ORACLE_LAWS.keys())
def test_march_is_bit_identical_to_the_four_call_oracle(monkeypatch, law, tau, solve):
    # Two calls per step (the step returns its own weight, the history
    # pushes and sums in one call) perform the same float operations in the
    # same order as four, so every series is the same array bit for bit.
    p = nm.EpidemicParams(tau=tau, dist=law, initial_infected=5, t_end=25.0)
    kwargs = dict(num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-2))
    got = solve(p, **kwargs)
    want = _solve_on_oracle_march(monkeypatch, solve, p, **kwargs)
    for name in ("S", "I", "R", "SI", "SS"):
        assert np.array_equal(got.series(name), want.series(name)), name
    assert got.extra.keys() == want.extra.keys()
    for key in got.extra:
        assert np.array_equal(got.extra[key], want.extra[key]), key


@pytest.mark.parametrize(
    "solve, tau, h",
    [(nm.solve_pairwise, 3.0, 0.02), (nm.solve_meanfield, 2.0, 0.1)],
    ids=["pairwise", "meanfield"],
)
def test_failing_coarse_step_reports_as_the_four_call_oracle(monkeypatch, solve, tau, h):
    # Measured: the pairwise solve fails at t = 0.52 (no [S] >= 0 with a
    # positive denominator), the mean-field one at t = 0.3 (no nonnegative
    # root).
    p = nm.EpidemicParams(tau=tau, dist=nm.GammaErlang(3, 2 / 3), initial_infected=5, t_end=10.0)
    kwargs = dict(num_nodes=N, degree=DEG, config=nm.SolverConfig(h=h))
    with pytest.raises(StepContractionError) as got:
        solve(p, **kwargs)
    with pytest.raises(StepContractionError) as want:
        _solve_on_oracle_march(monkeypatch, solve, p, **kwargs)
    assert str(got.value) == str(want.value)


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
    # Measured: at most 4.8e-15 at fig-1 (h = 1e-2) and 9.1e-14 at
    # tau = 0.1 (h = 1e-3) over the five series, Phi and SS_independent.
    params = nm.EpidemicParams(tau=tau, dist=STAGE_LAWS[law], initial_infected=5, t_end=t_end)
    worst, _ = _stage_vs_full(monkeypatch, solve, params, h)
    assert worst < 1e-12


def test_stage_kind_long_horizon_matches_full_kind(monkeypatch):
    # Phi passes 709, past which exp(Phi) overflows; the stage sums decay at
    # the kernel's rate plus tau, so the solve stays finite and within
    # rounding of the full kind (measured 5.4e-16).
    params = nm.EpidemicParams(
        tau=1.0, dist=nm.GammaErlang(3, 2 / 3), initial_infected=5, t_end=800.0
    )
    worst, staged = _stage_vs_full(monkeypatch, nm.solve_pairwise, params, 1e-2)
    assert staged.extra["Phi"][-1] > 709.0
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
    assert _SolveSetup("pairwise", params, num_nodes=N, degree=DEG, config=cfg).window is not None
    windowed = solve(params, num_nodes=N, degree=DEG, config=cfg)
    with monkeypatch.context() as m:
        m.setattr(type(dist), "support_upper", lambda self: math.inf)
        full = solve(params, num_nodes=N, degree=DEG, config=cfg)
    pairs = [(windowed.series(k), full.series(k)) for k in KIND_SERIES]
    pairs += [(windowed.extra[k], full.extra[k]) for k in full.extra]
    assert max(rel_sup_diff(a, b) for a, b in pairs) < 1e-12
