"""Acceptance battery: every headline claim checked at its stated tolerance.

One test per criterion; each appends a PASS/FAIL line to the summary that
conftest prints at the end of the run.  Stochastic criteria use fixed seeds,
so the whole battery is deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

import nmsir as nm

from conftest import ACCEPTANCE_LOG, rel_sup_diff
from oracles import edge_based_susceptibles, gillespie_final_size

N, DEG, TAU, I0 = 1000, 15, 0.35, 5
BASE_SEED, GRAPH_SEED = 11, 12  # fixed so every statistical check is reproducible

FIG1 = {
    "exp": nm.Exponential(2.0 / 3.0),
    "gamma": nm.GammaErlang(3, 2.0 / 3.0),
    "uniform": nm.UniformInterval(1.0, 2.0),
}
ALL4 = dict(FIG1, fixed=nm.FixedDuration(1.5))

REFERENCE_TOL = {"exp": 1e-3, "fixed": 1e-3, "gamma": 1e-2, "uniform": 1e-2}


def _params(dist, t_end=25.0, i0=I0):
    return nm.EpidemicParams(tau=TAU, dist=dist, initial_infected=i0, t_end=t_end)


def _log(num: int, name: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_LOG.append(
        f"criterion {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    )


@pytest.fixture(scope="module")
def fig1_runs():
    """100-run ensembles (mean, pairwise, mean-field, std) for the three headline laws."""
    out = {}
    laws = {name: _params(dist) for name, dist in FIG1.items()}
    ensembles = nm.run_ensembles(
        list(laws.values()),
        num_nodes=N,
        degree=DEG,
        runs=100,
        base_seed=BASE_SEED,
        graph_seed=GRAPH_SEED,
    )
    for (name, p), (mean, std) in zip(laws.items(), ensembles):
        pw = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-2))
        mf = nm.solve_meanfield(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-2))
        out[name] = (mean, pw, mf, std)
    return out


@pytest.fixture(scope="module")
def fine_pairwise_runs():
    """Generic pairwise solves at h = 1e-3 for all four laws, with timings."""
    out = {}
    for name, dist in ALL4.items():
        start = time.perf_counter()
        traj = nm.solve_pairwise(
            _params(dist), num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-3)
        )
        out[name] = (traj, time.perf_counter() - start)
    return out


def test_criterion_1_fig1_reproduction(fig1_runs):
    details = []
    ok = True
    for name, (mean, pw, mf, _) in fig1_runs.items():
        peak_rel = abs(pw.I.max() - mean.I.max()) / mean.I.max()
        fs_rel = abs(pw.final_size(N) - mean.final_size(N)) / mean.final_size(N)
        overshoot = mf.final_size(N) > mean.final_size(N)
        ok = ok and peak_rel < 0.10 and fs_rel < 0.05 and overshoot
        details.append(
            f"{name}: peak err {peak_rel:.2%}, final-size err {fs_rel:.3%}, "
            f"meanfield overshoot {overshoot}"
        )
    _log(1, "headline-figure reproduction", ok, "; ".join(details))
    for name, (mean, pw, mf, _) in fig1_runs.items():
        assert abs(pw.I.max() - mean.I.max()) / mean.I.max() < 0.10, name
        assert abs(pw.final_size(N) - mean.final_size(N)) / mean.final_size(N) < 0.05, name
        assert mf.final_size(N) > mean.final_size(N), name


def test_meanfield_peak_overshoots_the_ensemble(fig1_runs):
    # ROADMAP item 3(a).  The mean-field peak must exceed the ensemble-mean
    # peak by at least 3 standard errors of that mean at its peak time.
    margins = {}
    for name, (mean, _, mf, std) in fig1_runs.items():
        k = int(np.argmax(mean.I))
        se = std.I[k] / math.sqrt(len(mean.extra["runs"]))
        margins[name] = (mf.I.max() - mean.I[k]) / se
    ok = min(margins.values()) >= 3.0
    ACCEPTANCE_LOG.append(
        f"mean-field peak overshoot at fig-1 [{'PASS' if ok else 'FAIL'}]: "
        + ", ".join(f"{k} {z:.1f} SE" for k, z in margins.items()) + " (gate 3 SE each)"
    )
    assert ok, margins


def test_criterion_2_variance_ordering(fig1_runs):
    # Laplace transforms against adaptive quadrature of the survival form,
    # 1 - tau int xi(a) e^(-tau a) da, to 1e-6.
    quads = {}
    for name, dist in FIG1.items():
        upper = dist.support_upper()
        val, _ = quad(
            lambda a: dist.survival(a) * math.exp(-TAU * a),
            0.0,
            np.inf if math.isinf(upper) else upper,
            epsabs=1e-12,
            limit=200,
        )
        quads[name] = 1.0 - TAU * val
        assert abs(dist.laplace_pdf(TAU) - quads[name]) < 1e-6, name
    assert quads["uniform"] < quads["gamma"] < quads["exp"]
    assert quads["uniform"] == pytest.approx(0.5946, abs=1e-4)
    assert quads["gamma"] == pytest.approx(0.6164, abs=1e-4)
    assert quads["exp"] == pytest.approx(0.6557, abs=1e-4)

    # Attack rates from the final-size relation and from the solver.
    thm = {}
    solver = {}
    for name, dist in FIG1.items():
        rep = nm.reproduction_numbers(TAU, DEG, N, N - I0, dist)
        thm[name] = nm.final_size_pairwise(rep.r0p, DEG).attack_rate
        pw = fig1_runs[name][1]
        solver[name] = 1.0 - pw.S[-1] / (N - I0)
    ordered_thm = thm["uniform"] > thm["gamma"] > thm["exp"]
    ordered_solver = solver["uniform"] > solver["gamma"] > solver["exp"]
    _log(
        2,
        "variance ordering",
        ordered_thm and ordered_solver,
        f"theorem attack {thm['uniform']:.5f} > {thm['gamma']:.5f} > {thm['exp']:.5f}; "
        f"solver attack {solver['uniform']:.5f} > {solver['gamma']:.5f} > "
        f"{solver['exp']:.5f}; Laplace quadrature match < 1e-6",
    )
    assert ordered_thm
    assert ordered_solver


def test_criterion_3_special_case_equivalence(fine_pairwise_runs):
    details = []
    ok = True
    for name, dist in ALL4.items():
        tol = REFERENCE_TOL[name]
        generic, gen_time = fine_pairwise_runs[name]
        start = time.perf_counter()
        ref = nm.solve_reference_pairwise(
            _params(dist), num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-3)
        )
        ref_time = time.perf_counter() - start
        rel = rel_sup_diff(generic.I, ref.I)
        case_time = gen_time + ref_time
        ok = ok and rel < tol and case_time < 60.0
        details.append(f"{name}: rel sup {rel:.2e} (tol {tol:g}), {case_time:.1f}s")
        assert rel < tol, name
        assert case_time < 60.0, name
    _log(3, "generic solver vs special-case references", ok, "; ".join(details))


def _edge_based_gap(traj, dist, tau, t_end, h):
    """sup |[S]_pairwise - [S]_oracle| / N over the oracle's grid (step ``h``)."""
    t, S = edge_based_susceptibles(dist, tau, DEG, N, I0, t_end, h)
    stride = round(h / (traj.t[1] - traj.t[0]))
    assert np.allclose(traj.t[::stride], t)
    return float(np.max(np.abs(traj.S[::stride] - S))) / N


def test_pairwise_matches_edge_based_oracle_at_fig1(fine_pairwise_runs):
    # Measured: 2.3-2.8e-5 at oracle step 4e-3, 4.6-6.0e-6 at 2e-3 (4.6-5.0x
    # per halving), so the gap is the oracle's own discretisation error.
    for name, dist in ALL4.items():
        traj, _ = fine_pairwise_runs[name]
        coarse = _edge_based_gap(traj, dist, TAU, 25.0, 4e-3)
        fine = _edge_based_gap(traj, dist, TAU, 25.0, 2e-3)
        assert coarse < 5e-5, (name, coarse)
        assert fine < 1.2e-5, (name, fine)
        assert coarse > 3.0 * fine, (name, coarse, fine)


def test_pairwise_matches_edge_based_oracle_below_saturation():
    # tau = 0.1 leaves 16-20% of the nodes susceptible; measured 0.9-1.9e-6.
    for name, dist in ALL4.items():
        params = nm.EpidemicParams(tau=0.1, dist=dist, initial_infected=I0, t_end=60.0)
        traj = nm.solve_pairwise(params, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-3))
        gap = _edge_based_gap(traj, dist, 0.1, 60.0, 4e-3)
        assert gap < 4e-6, (name, gap)


def test_criterion_4_first_integral(fine_pairwise_runs):
    traj, _ = fine_pairwise_runs["exp"]
    expo = 2.0 * (DEG - 1.0) / DEG
    u_exact = traj.SS / traj.S**expo
    drift_exact = float(np.max(np.abs(u_exact / u_exact[0] - 1.0)))
    u_indep = traj.extra["SS_independent"] / traj.S**expo
    drift_indep = float(np.max(np.abs(u_indep / u_indep[0] - 1.0)))
    ok = drift_exact < 1e-12 and drift_indep < 1e-4
    _log(
        4,
        "first integral conservation",
        ok,
        f"constructed drift {drift_exact:.1e}, independently integrated "
        f"[SS] drift {drift_indep:.2e} (tol 1e-4)",
    )
    assert drift_exact < 1e-12
    assert drift_indep < 1e-4


def test_criterion_5_positivity_sweep():
    rng = np.random.default_rng(0)
    kinds = list(ALL4.values())
    i0_choices = [1, 5, 50]
    worst = 0.0
    for k in range(50):
        tau = float(rng.uniform(0.05, 1.0))
        dist = kinds[k % len(kinds)]
        i0 = i0_choices[k % len(i0_choices)]
        p = nm.EpidemicParams(tau=tau, dist=dist, initial_infected=i0, t_end=25.0)
        traj = nm.solve_pairwise(
            p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-2)
        )
        low = min(float(traj.series(n).min()) for n in ("S", "I", "R", "SI", "SS"))
        worst = min(worst, low)
    ok = worst >= -1e-9
    _log(
        5,
        "positivity across parameter sweep",
        ok,
        f"50 solves (tau in [0.05,1], all four laws, I0 in {{1,5,50}}), "
        f"lowest series value {worst:.2e} (floor -1e-9)",
    )
    assert worst >= -1e-9


def test_criterion_6_final_size_theorems():
    details = []
    ok = True
    for name, dist in ALL4.items():
        p = _params(dist, t_end=40.0)
        rep = nm.reproduction_numbers(TAU, DEG, N, N - I0, dist)
        pw = nm.solve_pairwise(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-2))
        attack_pw = 1.0 - pw.S[-1] / (N - I0)
        thm_pw = nm.final_size_pairwise(rep.r0p, DEG).attack_rate
        err_pw = abs(attack_pw - thm_pw) / thm_pw

        mf = nm.solve_meanfield(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-2))
        attack_mf = 1.0 - mf.S[-1] / (N - I0)
        thm_mf = nm.final_size_meanfield(rep.r0).attack_rate
        err_mf = abs(attack_mf - thm_mf) / thm_mf
        ok = ok and err_pw < 0.02 and err_mf < 0.02
        details.append(f"{name}: pairwise {err_pw:.3%}, meanfield {err_mf:.3%}")
        assert err_pw < 0.02, name
        assert err_mf < 0.02, name

    limit_err = max(
        abs(nm.final_size_pairwise(r, 1e6).s_inf - nm.final_size_meanfield(r).s_inf)
        for r in (1.5, 3.0, 7.875)
    )
    ok = ok and limit_err < 1e-4
    _log(
        6,
        "final-size relations vs trajectory limits",
        ok,
        "; ".join(details) + f"; classical-limit gap {limit_err:.1e} (tol 1e-4)",
    )
    assert limit_err < 1e-4


def test_criterion_7_gamma_stage_identity():
    dist = FIG1["gamma"]
    shape, stage_rate = 3, dist.rate
    h = 1e-3
    traj = nm.solve_reference_pairwise(
        _params(dist), num_nodes=N, degree=DEG, config=nm.SolverConfig(h=h)
    )
    m = len(traj.t) - 1
    ages = np.arange(m + 1) * h
    incidence = TAU * traj.SI
    worst = 0.0
    for j in range(1, shape + 1):
        kernel = (
            stage_rate ** (j - 1)
            * ages ** (j - 1)
            * np.exp(-stage_rate * ages)
            / math.factorial(j - 1)
        )
        conv = np.convolve(incidence, kernel)[: m + 1]
        ends = 0.5 * (incidence[0] * kernel + incidence * kernel[0])
        stage_quad = h * (conv - ends) + I0 * kernel
        rel = rel_sup_diff(stage_quad, traj.extra["I_stages"][j - 1])
        worst = max(worst, rel)
    ok = worst < 1e-3
    _log(
        7,
        "Erlang stage occupancies vs convolution identity",
        ok,
        f"max rel sup over stages j=1..3: {worst:.2e} (tol 1e-3)",
    )
    assert worst < 1e-3


def test_criterion_8_simulator_vs_gillespie():
    num_nodes, degree, tau, gamma, i0, runs = 500, 10, 0.4, 1.0, 3, 500
    graph = nm.generate_regular(num_nodes, degree, seed=4)
    p = nm.EpidemicParams(
        tau=tau, dist=nm.Exponential(gamma), initial_infected=i0, t_end=200.0
    )
    event_sizes = [
        nm.run_single(graph, p, seed=50_000 + k, dt_out=200.0).final_size(num_nodes)
        for k in range(runs)
    ]
    rng = np.random.default_rng(31)
    oracle_sizes = [
        gillespie_final_size(graph, tau, gamma, i0, rng) for _ in range(runs)
    ]
    result = stats.ks_2samp(event_sizes, oracle_sizes)
    ok = result.pvalue > 0.01
    _log(
        8,
        "percolation simulator vs Gillespie oracle",
        ok,
        f"two-sample KS on {runs}+{runs} final sizes: D={result.statistic:.4f}, "
        f"p={result.pvalue:.3f} (reject below 0.01)",
    )
    assert result.pvalue > 0.01


def test_criterion_9_convergence_order():
    # Self-convergence of the production stepper on the continuous survival
    # kernels; the fixed law's solution jumps, which costs it some order.
    h_ref = 0.00125
    step_sizes = [0.02, 0.01, 0.005]

    def solve(dist, h):
        return nm.solve_pairwise(
            _params(dist, t_end=10.0), num_nodes=N, degree=DEG,
            config=nm.SolverConfig(h=h),
        )

    slopes, details = {}, []
    for name, dist in FIG1.items():
        ref = solve(dist, h_ref)
        errors = []
        for h in step_sizes:
            traj = solve(dist, h)
            stride = int(round(h / h_ref))
            errors.append(max(
                float(np.max(np.abs(traj.series(s) - ref.series(s)[::stride])))
                for s in ("S", "I", "SI")
            ))
        slopes[name] = float(np.polyfit(np.log(step_sizes), np.log(errors), 1)[0])
        details.append(
            f"{name} sup errors {['%.2e' % e for e in errors]} slope {slopes[name]:.3f}"
        )
    ok = all(1.7 <= slope <= 2.3 for slope in slopes.values())
    _log(
        9,
        "pairwise stepper self-convergence order",
        ok,
        "; ".join(details) + f" over h={step_sizes} (target 2 +/- 0.3)",
    )
    assert ok, slopes


def test_headline_claims_below_saturation():
    # ROADMAP item 3(b) and 3(c).  At fig-1 (tau = 0.35) final sizes saturate
    # and the laws' ensembles differ by about 1 SE; at tau = 0.1 they do not.
    # Major outbreaks (final size >= 0.1 N) only.  Each gap must exceed 3 of
    # its standard errors (one-sided alpha about 0.0013).  The run count is
    # fixed from a power target: with the measured 200-run gaps (uniform -
    # gamma 11 nodes, per-run SDs about 22 and 21) a 3 SE gate passes with
    # probability 0.99 once SE_gap <= 11 / (3 + 2.33), i.e. >= 224 majors per
    # law; about 97% of runs are major, so 240 runs.  fixed vs uniform is
    # left untested: their gap is about 1.7 SE at 200 runs.
    runs, tau, t_end = 240, 0.1, 60.0
    laws = {
        name: nm.EpidemicParams(tau=tau, dist=dist, initial_infected=I0, t_end=t_end)
        for name, dist in FIG1.items()
    }
    ensembles = nm.run_ensembles(
        list(laws.values()), num_nodes=N, degree=DEG, runs=runs,
        base_seed=7717, graph_seed=7718, dt_out=t_end,
    )
    stats_by_law = {}
    for name, (mean, _) in zip(laws, ensembles):
        sizes = np.array([run.final_size(N) for run in mean.extra["runs"]])
        major = sizes[sizes >= 0.1 * N]
        stats_by_law[name] = (major.mean(), major.std(ddof=1) / math.sqrt(len(major)), len(major))

    def margin(low, high):
        (m_low, se_low, _), (m_high, se_high, _) = low, high
        return (m_high - m_low) / math.hypot(se_low, se_high)

    order = {
        pair: margin(stats_by_law[pair[0]], stats_by_law[pair[1]])
        for pair in (("exp", "gamma"), ("gamma", "uniform"))
    }
    overshoot = {}
    for name, p in laws.items():
        mf = nm.solve_meanfield(p, num_nodes=N, degree=DEG, config=nm.SolverConfig(h=1e-2))
        mean, se, _ = stats_by_law[name]
        overshoot[name] = (mf.final_size(N) - mean) / se
    ok = min(order.values()) > 3.0 and min(overshoot.values()) > 3.0
    sizes = ", ".join(
        f"{k} {m:.1f}+-{se:.1f} ({n} of {runs})" for k, (m, se, n) in stats_by_law.items()
    )
    ACCEPTANCE_LOG.append(
        f"headline claims at tau={tau} [{'PASS' if ok else 'FAIL'}]: major final sizes {sizes}; "
        "ordering margins " + ", ".join(f"{a}<{b} {z:.1f} SE" for (a, b), z in order.items())
        + "; mean-field overshoot " + ", ".join(f"{k} {z:.1f} SE" for k, z in overshoot.items())
        + " (gate 3 SE each)"
    )
    assert min(order.values()) > 3.0, order
    assert min(overshoot.values()) > 3.0, overshoot
