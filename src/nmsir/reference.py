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
exp(-(Phi(t) - Phi(u))) <= 1, so no horizon overflows.  Delayed evaluations
at RK4 stage times are served by cubic Hermite interpolation of the stored
node history; branch switches and state jumps are aligned to grid nodes, and
each step evaluates the branch chosen by its *starting* node so that every
step integrates a smooth piece.  The march runs on Python floats: states
and RK4 stages are tuples, and the node history is one flat ``array('d')``
of states and one of derivatives, read in place by the lookup and wrapped as
an ndarray only at the end.  Every operation keeps the order of the numpy
march kept as an oracle in the tests, so the series are bit-identical to it.
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


def _march_delay_rk4(rhs, u0, h: float, steps: int, jumps: dict | None = None):
    """Classical RK4 with node history, Hermite delayed lookup, node jumps.

    ``rhs(t, u, lookup, t0)`` receives the step's starting node time ``t0``
    for branch decisions; states, derivatives and lookups are sequences of
    floats.  ``jumps`` maps node index -> fn(u) -> u, applied after the step
    landing on that node (nodes past ``steps`` are never reached); the
    pre-jump state and left-limit derivative stay available to
    interpolation of the preceding panel.  Delayed arguments
    must trail the current time by at least one step.  Returns the node
    states as a (steps+1, m) array; an ``ArithmeticError`` in a step or a
    non-finite state raises ``SolverError``.
    """
    jumps = jumps or {}
    u = tuple(map(float, u0))
    m = len(u)
    U, D = array("d", u), array("d")  # flat rows: node states, node derivatives
    pre_jump: dict[int, tuple[tuple, tuple]] = {}
    between: dict[float, list] = {}  # the k2 and k3 stages look up the same times
    half, sixth = 0.5 * h, h / 6.0

    def lookup(tq: float):
        j = tq / h
        j0 = int(j)
        theta = j - j0
        b = j0 * m
        if theta < 1e-9:
            return U[b : b + m]
        if theta > 1.0 - 1e-9:
            return U[b + m : b + 2 * m]
        if tq in between:
            return between[tq]
        u_r, d_r = pre_jump.get(j0 + 1) or (U[b + m : b + 2 * m], D[b + m : b + 2 * m])
        t2 = theta * theta
        t3 = t2 * theta
        c0 = 2 * t3 - 3 * t2 + 1
        c1 = (t3 - 2 * t2 + theta) * h
        c2 = -2 * t3 + 3 * t2
        c3 = (t3 - t2) * h
        between[tq] = value = [
            c0 * U[b + i] + c1 * D[b + i] + c2 * u_r[i] + c3 * d_r[i] for i in range(m)
        ]
        return value

    try:
        for k in range(steps):
            t0 = k * h
            between.clear()
            k1 = rhs(t0, u, lookup, t0)
            D.extend(k1)
            k2 = rhs(t0 + half, tuple([x + half * d for x, d in zip(u, k1)]), lookup, t0)
            k3 = rhs(t0 + half, tuple([x + half * d for x, d in zip(u, k2)]), lookup, t0)
            k4 = rhs(t0 + h, tuple([x + h * d for x, d in zip(u, k3)]), lookup, t0)
            u = tuple(
                [x + sixth * (a + 2.0 * b + 2.0 * c + d)
                 for x, a, b, c, d in zip(u, k1, k2, k3, k4)]
            )
            jump = jumps.get(k + 1)
            if jump is not None:
                pre_jump[k + 1] = (u, rhs((k + 1) * h, u, lookup, t0))
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

    def rhs(t, u, lookup, t0):
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

    def rhs(t, u, lookup, t0):
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

    def rhs(t, u, lookup, t0):
        S, SS, I, SI, phi = u
        c, dS, dSS, dI, dSI = _pair_rates(tau, link, S, SS, SI)
        dphi = c + tau
        if t0 > sigma - half:
            Sd, SSd, Id, SId, phid = lookup(t - sigma)
            dI -= tau * SId
            dSI -= link * (SSd * SId / Sd) * math.exp(-(phi - phid))
        return (dS, dSS, dI, dSI, dphi)

    def recover_newborns(u):
        S, SS, I, SI, phi = u
        return (S, SS, I - run.I0, SI - SI0 * math.exp(-phi), phi)

    S, SS, I, SI, phi = _march_delay_rk4(rhs, u0, h, run.steps, {run.jump: recover_newborns}).T
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

    def rhs(t, u, lookup, t0):
        S, I = u
        dI = coupling * S * I
        if t0 > sigma - half:
            Sd, Id = lookup(t - sigma)
            dI -= coupling * Sd * Id
        return (-coupling * S * I, dI)

    def recover_newborns(u):
        return (u[0], u[1] - run.I0)

    S, I = _march_delay_rk4(rhs, [run.S0, run.I0], h, run.steps, {run.jump: recover_newborns}).T
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
    def rhs(t, u, lookup, t0):
        S, SS = u[0], u[1]
        I_st = u[2 : 2 + K]
        SI_st = u[2 + K :]
        SI = sum(SI_st)
        c = link * SI / S
        loss = c + tau + stage_rate
        return (
            -tau * SI,
            -2.0 * c * SS,
            tau * SI - stage_rate * I_st[0],
            *[stage_rate * (I_st[j - 1] - I_st[j]) for j in range(1, K)],
            c * SS - loss * SI_st[0],
            *[stage_rate * SI_st[j - 1] - loss * SI_st[j] for j in range(1, K)],
        )

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
    def rhs(t, u, lookup, t0):
        S, SS, I, SI, phi, V = u
        c, dS, dSS, dI, dSI = _pair_rates(tau, link, S, SS, SI)
        dphi = c + tau
        dV = c * SS - dphi * V
        if t0 > A - half:
            Sa, _, _, _, phia, Va = lookup(max(0.0, t - A))
            Sb, _, _, _, phib, Vb = lookup(max(0.0, t - B))
            dI -= (Sb - Sa) / width
            dSI -= (math.exp(phia - phi) * Va - math.exp(phib - phi) * Vb) / width
            if t0 < B - half:
                dI -= newborn_flux
                dSI -= newborn_link_flux * math.exp(-phi)
        return (dS, dSS, dI, dSI, dphi, dV)

    U = _march_delay_rk4(rhs, run.pair_state() + [0.0, 0.0], h, run.steps)
    S, SS, I, SI, phi, _ = U.T
    return _trajectory(run, S, I, SI, SS, extra={"Phi": phi})
