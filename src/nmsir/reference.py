"""Closed-form special-case solvers used as cross-checks and fast paths.

For particular recovery laws the general renewal systems collapse to ordinary
or delay differential equations:

* exponential       -> the classical Markovian pairwise / mean-field ODEs,
* fixed duration    -> DDEs with one discrete delay plus a state jump when
                       the initial (newborn) infecteds all recover at sigma,
* Erlang (gamma)    -> a linear chain of K exponential stages for both nodes
                       and links,
* uniform interval  -> distributed delays over a moving window, reduced here
                       to discrete-delay form through a damped cumulative
                       auxiliary variable (the windowed integrals telescope).

All solvers use fixed-step classical RK4 on the same grid, initial counts,
meta and snapped law as the generic solver (``trajectory._SolveSetup``): a
sigma, a or b off the step grid moves to the nearest node, noted in the
meta's ``grid_snap``, exactly as in the generic solves.  Every
exponential of the rate integral Phi enters as a difference
exp(-(Phi(t) - Phi(u))) <= 1, so no horizon overflows.  Branch switches and
state jumps are aligned to grid nodes, and each step evaluates the branch
chosen by its *starting* node so that every step integrates a smooth piece.

Every delay is a whole number of steps, at least one, so the delayed states
a step needs are known before it starts: the method of steps (Bellen &
Zennaro 2003, *Numerical Methods for Delay Differential Equations*).  The
march computes them in numpy for a block of steps at once, a block being no
longer than the shortest delay: the stored node rows at node stage times,
and the cubic Hermite interpolant of the stored history at mid-step times.
Each reference's ``lag_terms`` turns them into the terms of its right-hand
side that depend on delayed states only, so each RK4 stage computes only
the terms in its own state.  Otherwise the march runs on Python floats:
states and RK4 stages are tuples, and the node history is one flat
``array('d')`` of states and one of derivatives, viewed by numpy once per
block and wrapped as an ndarray at the end.  Every operation keeps the
order of the numpy march kept as an oracle in the tests, so the series are
bit-identical to it.  At h = 1e-3, t_end = 25 and the fig-1 parameters the
lag blocks took the uniform reference from 818 to 352 ms and the fixed one
from 480 to 316 ms (medians of 15 interleaved pairs of fresh processes;
2-core x86_64, Python 3.11.7, numpy 2.4.6).

A step that fails in arithmetic, a state that is not finite, or a count
below -1e-6 N (a step too coarse to resolve the epidemic, not rounding)
raises ``SolverError`` with the time it happened.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .recovery import Exponential, FixedDuration, GammaErlang, UniformInterval
from .trajectory import SERIES_NAMES, EpidemicParams, SolverError, Trajectory, _SolveSetup

__all__ = [
    "solve_markovian_pairwise",
    "solve_markovian_meanfield",
    "solve_fixed_delay_pairwise",
    "solve_fixed_delay_meanfield",
    "solve_gamma_chain",
    "solve_uniform_delay_pairwise",
]


# Counts may dip below zero by rounding only; this fraction of N is the floor.
_NEGATIVE_FLOOR = 1e-6
# Steps per lag block at most, so the lag tuples alive at one time stay near
# 200 kB whatever the delay; a longer block saves no measurable time.
_MAX_BLOCK = 512


def _trajectory(run: _SolveSetup, *series, extra=None) -> Trajectory:
    """``run.trajectory``, or ``SolverError`` if a count falls below the floor."""
    traj = run.trajectory(*series, extra=extra)
    for name in SERIES_NAMES:
        values = traj.series(name)
        low = np.flatnonzero(values < -_NEGATIVE_FLOOR * run.N)
        if low.size:
            raise SolverError(
                f"reference {name} fell to {values[low[0]]:.3g} at t={traj.t[low[0]]:.6g}, "
                f"below -{_NEGATIVE_FLOOR:g} N; reduce the step size h={run.h}"
            )
    return traj


def _setup(model: str, law: type, params: EpidemicParams, num_nodes, degree, h) -> _SolveSetup:
    """The grid, initial counts and meta of a reference solve for recovery ``law``."""
    if not isinstance(params.dist, law):
        raise ValueError(
            f"{model} reference requires a {law.__name__} recovery law, "
            f"got {type(params.dist).__name__}"
        )
    return _SolveSetup(model, params, num_nodes=num_nodes, degree=degree, h=h)


def _pair_rates(tau: float, link: float, S: float, SS: float, SI: float):
    """c = link [SI]/[S] and d[S], d[SS], d[I], d[SI] of the pairwise model without recovery."""
    c = link * SI / S
    return c, -tau * SI, -2.0 * c * SS, tau * SI, c * SS - c * SI - tau * SI


def _delayed(Uv, Dv, pre_jump: dict, tq, h: float):
    """The stored node history at times ``tq``, as the columns of an (m, len(tq)) array.

    A time within 1e-9 steps of a node reads that node's row; any other time
    takes the cubic Hermite interpolant of its panel, whose right end is the
    pre-jump state and left-limit derivative where a jump lands on it.
    """
    j = tq / h
    j0 = j.astype(np.intp)
    theta = j - j0
    rows = Uv[j0 + (theta > 1.0 - 1e-9)]
    inner = np.flatnonzero((theta >= 1e-9) & (theta <= 1.0 - 1e-9))
    if inner.size:
        theta, left = theta[inner], j0[inner]
        u_r, d_r = Uv[left + 1], Dv[left + 1]
        for node, (u_jump, d_jump) in pre_jump.items():
            at = left + 1 == node
            u_r[at], d_r[at] = u_jump, d_jump
        t2 = theta * theta
        t3 = t2 * theta
        c0 = (2 * t3 - 3 * t2 + 1)[:, None]
        c1 = ((t3 - 2 * t2 + theta) * h)[:, None]
        c2 = (-2 * t3 + 3 * t2)[:, None]
        c3 = ((t3 - t2) * h)[:, None]
        rows[inner] = c0 * Uv[left] + c1 * Dv[left] + c2 * u_r + c3 * d_r
    return rows.T


def _march_delay_rk4(
    rhs, u0, h: float, steps: int, jumps: dict | None = None, lags=(), lag_terms=None
):
    """Classical RK4 with node history, method-of-steps lag blocks, node jumps.

    ``rhs(t, u, lag, t0)`` receives the step's starting node time ``t0``
    for branch decisions; states and derivatives are sequences of floats.
    ``lags`` are delays on the step grid, each at least one step, and
    ``lag`` is the tuple of floats that ``lag_terms`` makes of the history
    at ``max(0, t - d)`` for each ``d`` in ``lags`` (``None`` without lags).
    ``lag_terms(*rows)`` gets one (m, n) array of delayed states per lag and
    returns its terms as n-vectors.  Those states are known before a step
    starts, so they are computed in numpy for a block of steps at a time: a
    block is no longer than the shortest lag, and begins once its first
    step's node derivative is stored, so each lagged time in it trails the
    stored nodes.  ``jumps`` maps node index -> fn(u) -> u, applied after
    the step landing on that node (nodes past ``steps`` are never reached);
    the pre-jump state and left-limit derivative stay available to
    interpolation of the preceding panel.  Returns the node states as a
    (steps+1, m) array; an ``ArithmeticError`` in a step or a block, or a
    non-finite state, raises ``SolverError``.
    """
    jumps = jumps or {}
    u = tuple(map(float, u0))
    m = len(u)
    U, D = array("d", u), array("d")  # flat rows: node states, node derivatives
    pre_jump: dict[int, tuple[tuple, tuple]] = {}
    half, sixth = 0.5 * h, h / 6.0
    block = min([int(round(d / h)) for d in lags] + [steps, _MAX_BLOCK])

    def lag_at(times):
        """The lag tuple at each of the stage ``times``."""
        if not lags:
            return [None] * len(times)
        Uv, Dv = np.frombuffer(U).reshape(-1, m), np.frombuffer(D).reshape(-1, m)
        # Overflow and NaN pass on silently, as in float arithmetic; a state
        # they reach is not finite and is caught below.
        with np.errstate(all="ignore"):
            rows = [_delayed(Uv, Dv, pre_jump, np.maximum(0.0, times - d), h) for d in lags]
            del Uv, Dv  # array.extend refuses a buffer that a view still holds
            return list(zip(*[term.tolist() for term in lag_terms(*rows)]))

    def lag_block(k0: int, nb: int):
        """The lag tuples at the mid-step and end-of-step times of steps k0..k0+nb-1."""
        t0 = np.arange(k0, k0 + nb) * h
        ready = lag_at(np.concatenate((t0 + half, t0 + h)))
        return ready[:nb], ready[nb:]

    k = 0
    try:
        lag = lag_at(np.zeros(1))[0]
        for k in range(steps):
            t0 = k * h
            k1 = rhs(t0, u, lag, t0)
            D.extend(k1)
            i = k % block
            if i == 0:
                mids = ends = None  # the last block's tuples go before the next is built
                mids, ends = lag_block(k, min(block, steps - k))
            mid, lag = mids[i], ends[i]
            k2 = rhs(t0 + half, tuple([x + half * d for x, d in zip(u, k1)]), mid, t0)
            k3 = rhs(t0 + half, tuple([x + half * d for x, d in zip(u, k2)]), mid, t0)
            k4 = rhs(t0 + h, tuple([x + h * d for x, d in zip(u, k3)]), lag, t0)
            u = tuple(
                [x + sixth * (a + 2.0 * b + 2.0 * c + d)
                 for x, a, b, c, d in zip(u, k1, k2, k3, k4)]
            )
            jump = jumps.get(k + 1)
            if jump is not None:
                pre_jump[k + 1] = (u, rhs((k + 1) * h, u, lag, t0))
                u = jump(u)
            U.extend(u)
    except ArithmeticError as exc:
        raise SolverError(
            f"reference march failed in the step to t={(k + 1) * h:.6g} "
            f"({type(exc).__name__}: {exc}); reduce the step size h={h}"
        ) from exc
    states = np.frombuffer(U).reshape(steps + 1, m)
    bad = np.flatnonzero(~np.isfinite(states).all(axis=1))
    if bad.size:
        raise SolverError(
            f"reference march reached a non-finite state at t={bad[0] * h:.6g}; "
            f"reduce the step size h={h}"
        )
    return states


def solve_markovian_pairwise(
    params: EpidemicParams,
    *,
    num_nodes: float,
    degree: float,
    h: float = 1e-3,
) -> Trajectory:
    """Classic four-equation Markovian pairwise SIR (exponential recovery)."""
    run = _setup("special:markovian", Exponential, params, num_nodes, degree, h)
    gamma = params.dist.rate
    tau, n = params.tau, run.n
    link = tau * (n - 1.0) / n

    def rhs(t, u, lag, t0):
        S, SS, I, SI = u
        _, dS, dSS, dI, dSI = _pair_rates(tau, link, S, SS, SI)
        return (dS, dSS, dI - gamma * I, dSI - gamma * SI)

    S, SS, I, SI = _march_delay_rk4(rhs, run.pair_state(), h, run.steps).T
    return _trajectory(run, S, I, SI, SS)


def solve_markovian_meanfield(
    params: EpidemicParams,
    *,
    num_nodes: float,
    degree: float,
    h: float = 1e-3,
) -> Trajectory:
    """Classical mean-field SIR ODE with rate tau*n/N (exponential recovery)."""
    run = _setup("special:markovian_meanfield", Exponential, params, num_nodes, degree, h)
    gamma = params.dist.rate
    coupling = params.tau * run.n / run.N

    def rhs(t, u, lag, t0):
        S, I = u
        return (-coupling * S * I, coupling * S * I - gamma * I)

    S, I = _march_delay_rk4(rhs, [run.S0, run.I0], h, run.steps).T
    return _trajectory(run, S, I)


def solve_fixed_delay_pairwise(
    params: EpidemicParams,
    *,
    num_nodes: float,
    degree: float,
    h: float = 1e-3,
) -> Trajectory:
    """Pairwise model with a fixed infectious period: method of steps.

    On [0, sigma) the system is the no-recovery pairwise ODE; at sigma the
    newborn initial infecteds recover in one jump ([I] -= I0 and [SI] loses
    its surviving initial links); past sigma the delayed removal terms are
    active, weighted by the accumulated exponential factor.
    """
    run = _setup("special:fixed", FixedDuration, params, num_nodes, degree, h)
    sigma = run.dist.sigma
    tau, n = params.tau, run.n
    link = tau * (n - 1.0) / n
    half = 0.5 * h
    u0 = run.pair_state() + [0.0]
    SI0 = u0[3]

    def lag_terms(delayed):
        Sd, SSd, Id, SId, phid = delayed
        return tau * SId, link * (SSd * SId / Sd), phid

    def rhs(t, u, lag, t0):
        S, SS, I, SI, phi = u
        c, dS, dSS, dI, dSI = _pair_rates(tau, link, S, SS, SI)
        dphi = c + tau
        if t0 > sigma - half:
            removal, link_removal, phid = lag
            dI -= removal
            dSI -= link_removal * math.exp(-(phi - phid))
        return (dS, dSS, dI, dSI, dphi)

    def recover_newborns(u):
        S, SS, I, SI, phi = u
        return (S, SS, I - run.I0, SI - SI0 * math.exp(-phi), phi)

    S, SS, I, SI, phi = _march_delay_rk4(
        rhs, u0, h, run.steps, {run.jump: recover_newborns}, [sigma], lag_terms
    ).T
    return _trajectory(run, S, I, SI, SS, extra={"Phi": phi})


def solve_fixed_delay_meanfield(
    params: EpidemicParams,
    *,
    num_nodes: float,
    degree: float,
    h: float = 1e-3,
) -> Trajectory:
    """Mean-field model with a fixed infectious period (delayed removal)."""
    run = _setup("special:fixed_meanfield", FixedDuration, params, num_nodes, degree, h)
    sigma = run.dist.sigma
    coupling = params.tau * run.n / run.N
    half = 0.5 * h

    def lag_terms(delayed):
        Sd, Id = delayed
        return (coupling * Sd * Id,)

    def rhs(t, u, lag, t0):
        S, I = u
        dI = coupling * S * I
        if t0 > sigma - half:
            dI -= lag[0]
        return (-coupling * S * I, dI)

    def recover_newborns(u):
        return (u[0], u[1] - run.I0)

    S, I = _march_delay_rk4(
        rhs, [run.S0, run.I0], h, run.steps, {run.jump: recover_newborns}, [sigma], lag_terms
    ).T
    return _trajectory(run, S, I)


def solve_gamma_chain(
    params: EpidemicParams,
    *,
    num_nodes: float,
    degree: float,
    h: float = 1e-3,
) -> Trajectory:
    """Multi-stage (Erlang) pairwise chain: K exponential stages of rate K*gamma.

    Nodes follow the standard stage chain; links carry the same stage
    structure with the pairwise loss terms applied per stage.  The aggregated
    [I] and [SI] series solve the general model with the Erlang kernel.
    Stage-resolved series are exposed in ``extra``.
    """
    run = _setup("special:gamma", GammaErlang, params, num_nodes, degree, h)
    K = params.dist.shape
    stage_rate = params.dist.rate  # K * gamma
    run.meta["K"] = K
    tau, n = params.tau, run.n
    link = tau * (n - 1.0) / n

    # State layout: [S, SS, I_1..I_K, SI_1..SI_K]
    def rhs(t, u, lag, t0):
        S, SS = u[0], u[1]
        SI = sum(u[2 + K :])
        c = link * SI / S
        loss = c + tau + stage_rate
        du = [-tau * SI, -2.0 * c * SS, tau * SI - stage_rate * u[2]]
        for j in range(3, 2 + K):
            du.append(stage_rate * (u[j - 1] - u[j]))
        du.append(c * SS - loss * u[2 + K])
        for j in range(3 + K, 2 + 2 * K):
            du.append(stage_rate * u[j - 1] - loss * u[j])
        return du

    S0, SS0, I0, SI0 = run.pair_state()
    u0 = (S0, SS0, I0, *[0.0] * (K - 1), SI0, *[0.0] * (K - 1))
    U = _march_delay_rk4(rhs, u0, h, run.steps)
    I_stages = U[:, 2 : 2 + K].T
    SI_stages = U[:, 2 + K :].T
    return _trajectory(
        run, U[:, 0], I_stages.sum(axis=0), SI_stages.sum(axis=0), U[:, 1],
        extra={"I_stages": I_stages, "SI_stages": SI_stages},
    )


def solve_uniform_delay_pairwise(
    params: EpidemicParams,
    *,
    num_nodes: float,
    degree: float,
    h: float = 1e-3,
) -> Trajectory:
    """Pairwise model with uniform recovery on [A, B]: distributed delays.

    The moving-window integrals telescope against cumulative quantities:
    the [I] window equals (S(t-B) - S(t-A))/(B-A), and the [SI] window is
    the difference of the running integral W of the link inflow
    c [SS] exp(Phi) at its two ends.  W itself overflows once Phi passes
    about 709, so the state carries V = exp(-Phi) W, with
    V' = c [SS] - (c + tau) V, and the window reads
    (exp(Phi_a - Phi) V_a - exp(Phi_b - Phi) V_b)/(B-A).  The newborn removal
    is the indicator-gated constant flux on [A, B], handled branch-wise (three
    regimes t < A, A <= t <= B, t > B with breakpoints on grid nodes).
    """
    run = _setup("special:uniform", UniformInterval, params, num_nodes, degree, h)
    A, B = run.dist.lower, run.dist.upper
    tau, n = params.tau, run.n
    link = tau * (n - 1.0) / n
    width = B - A
    half = 0.5 * h
    newborn_flux = run.I0 / width
    newborn_link_flux = (n / run.N) * run.S0 * newborn_flux

    # State layout: [S, SS, I, SI, Phi, V]
    def lag_terms(at_a, at_b):
        Sa, _, _, _, phia, Va = at_a
        Sb, _, _, _, phib, Vb = at_b
        return (Sb - Sa) / width, phia, Va, phib, Vb

    def rhs(t, u, lag, t0):
        S, SS, I, SI, phi, V = u
        c, dS, dSS, dI, dSI = _pair_rates(tau, link, S, SS, SI)
        dphi = c + tau
        dV = c * SS - dphi * V
        if t0 > A - half:
            removal, phia, Va, phib, Vb = lag
            dI -= removal
            dSI -= (math.exp(phia - phi) * Va - math.exp(phib - phi) * Vb) / width
            if t0 < B - half:
                dI -= newborn_flux
                dSI -= newborn_link_flux * math.exp(-phi)
        return (dS, dSS, dI, dSI, dphi, dV)

    U = _march_delay_rk4(rhs, run.pair_state() + [0.0, 0.0], h, run.steps, None, [A, B], lag_terms)
    S, SS, I, SI, phi, _ = U.T
    return _trajectory(run, S, I, SI, SS, extra={"Phi": phi})
