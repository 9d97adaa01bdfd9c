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

All solvers use fixed-step classical RK4 on the same grid, initial counts
and meta as the generic solver (``trajectory._SolveSetup``).  Every
exponential of the rate integral Phi enters as a difference
exp(-(Phi(t) - Phi(u))) <= 1, so no horizon overflows.  Delayed evaluations
at RK4 stage times are served by cubic Hermite interpolation of the stored
node history; branch switches and state jumps are aligned to grid nodes, and
each step evaluates the branch chosen by its *starting* node so that every
step integrates a smooth piece.
"""

from __future__ import annotations

import math

import numpy as np

from .recovery import Exponential, FixedDuration, GammaErlang, UniformInterval
from .trajectory import EpidemicParams, Trajectory, _SolveSetup

__all__ = [
    "solve_markovian_pairwise",
    "solve_markovian_meanfield",
    "solve_fixed_delay_pairwise",
    "solve_fixed_delay_meanfield",
    "solve_gamma_chain",
    "solve_uniform_delay_pairwise",
]


def _node_index(value: float, h: float, name: str) -> int:
    j = int(round(value / h))
    if j < 1:
        raise ValueError(f"{name}={value} must be at least one step h={h}")
    if abs(j * h - value) > 1e-9 * max(1.0, value):
        raise ValueError(f"h={h} must divide {name}={value} (snap it first)")
    return j


def _march_delay_rk4(rhs, u0, h: float, steps: int, jumps: dict | None = None):
    """Classical RK4 with node history, Hermite delayed lookup, node jumps.

    ``rhs(t, u, lookup, t0)`` receives the step's starting node time ``t0``
    for branch decisions.  ``jumps`` maps node index -> fn(u) -> u, applied
    after the step landing on that node; the pre-jump state and left-limit
    derivative stay available to interpolation of the preceding panel.
    Delayed arguments must trail the current time by at least one step.
    """
    jumps = jumps or {}
    u0 = np.asarray(u0, dtype=float)
    m = u0.size
    U = np.empty((steps + 1, m))
    D = np.zeros((steps + 1, m))
    U[0] = u0
    pre_jump: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def lookup(tq: float) -> np.ndarray:
        j = tq / h
        j0 = int(j)
        theta = j - j0
        if theta < 1e-9:
            return U[j0]
        if theta > 1.0 - 1e-9:
            return U[j0 + 1]
        right = pre_jump.get(j0 + 1)
        u_r, d_r = right if right is not None else (U[j0 + 1], D[j0 + 1])
        t2 = theta * theta
        t3 = t2 * theta
        return (
            (2 * t3 - 3 * t2 + 1) * U[j0]
            + ((t3 - 2 * t2 + theta) * h) * D[j0]
            + (-2 * t3 + 3 * t2) * u_r
            + ((t3 - t2) * h) * d_r
        )

    for k in range(steps):
        t0 = k * h
        uk = U[k]
        k1 = rhs(t0, uk, lookup, t0)
        D[k] = k1
        k2 = rhs(t0 + 0.5 * h, uk + 0.5 * h * k1, lookup, t0)
        k3 = rhs(t0 + 0.5 * h, uk + 0.5 * h * k2, lookup, t0)
        k4 = rhs(t0 + h, uk + h * k3, lookup, t0)
        u_new = uk + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) in jumps:
            d_pre = rhs((k + 1) * h, u_new, lookup, t0)
            pre_jump[k + 1] = (u_new.copy(), np.asarray(d_pre, dtype=float))
            u_new = jumps[k + 1](u_new)
        U[k + 1] = u_new
    D[steps] = rhs(steps * h, U[steps], lookup, (steps - 1) * h)
    return U


def solve_markovian_pairwise(
    params: EpidemicParams,
    *,
    num_nodes: float,
    degree: float,
    h: float = 1e-3,
) -> Trajectory:
    """Classic four-equation Markovian pairwise SIR (exponential recovery)."""
    if not isinstance(params.dist, Exponential):
        raise ValueError("markovian reference requires an exponential recovery law")
    gamma = params.dist.rate
    run = _SolveSetup("special:markovian", params, num_nodes=num_nodes, degree=degree, h=h)
    tau, n = params.tau, run.n
    link = tau * (n - 1.0) / n

    def rhs(t, u, lookup, t0):
        S, SS, I, SI = u
        c = link * SI / S
        return np.array(
            [
                -tau * SI,
                -2.0 * c * SS,
                tau * SI - gamma * I,
                c * SS - c * SI - tau * SI - gamma * SI,
            ]
        )

    S, SS, I, SI = _march_delay_rk4(rhs, run.pair_state(), h, run.steps).T
    return run.trajectory(S, I, SI, SS)


def solve_markovian_meanfield(
    params: EpidemicParams,
    *,
    num_nodes: float,
    degree: float,
    h: float = 1e-3,
) -> Trajectory:
    """Classical mean-field SIR ODE with rate tau*n/N (exponential recovery)."""
    if not isinstance(params.dist, Exponential):
        raise ValueError("markovian reference requires an exponential recovery law")
    gamma = params.dist.rate
    run = _SolveSetup(
        "special:markovian_meanfield", params, num_nodes=num_nodes, degree=degree, h=h
    )
    coupling = params.tau * run.n / run.N

    def rhs(t, u, lookup, t0):
        S, I = u
        return np.array([-coupling * S * I, coupling * S * I - gamma * I])

    S, I = _march_delay_rk4(rhs, [run.S0, run.I0], h, run.steps).T
    return run.trajectory(S, I)


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
    if not isinstance(params.dist, FixedDuration):
        raise ValueError("fixed-delay reference requires a fixed-duration recovery law")
    sigma = params.dist.sigma
    run = _SolveSetup("special:fixed", params, num_nodes=num_nodes, degree=degree, h=h)
    j_sigma = _node_index(sigma, h, "sigma")
    tau, n = params.tau, run.n
    link = tau * (n - 1.0) / n
    half = 0.5 * h
    u0 = run.pair_state() + [0.0]
    SI0 = u0[3]

    def rhs(t, u, lookup, t0):
        S, SS, I, SI, phi = u
        c = link * SI / S
        dS = -tau * SI
        dSS = -2.0 * c * SS
        dI = tau * SI
        dSI = c * SS - c * SI - tau * SI
        dphi = c + tau
        if t0 > sigma - half:
            Sd, SSd, Id, SId, phid = lookup(t - sigma)
            dI -= tau * SId
            dSI -= link * (SSd * SId / Sd) * math.exp(-(phi - phid))
        return np.array([dS, dSS, dI, dSI, dphi])

    def recover_newborns(u):
        u = u.copy()
        u[2] -= run.I0
        u[3] -= SI0 * math.exp(-u[4])
        return u

    jumps = {j_sigma: recover_newborns} if j_sigma <= run.steps else None
    S, SS, I, SI, phi = _march_delay_rk4(rhs, u0, h, run.steps, jumps).T
    return run.trajectory(S, I, SI, SS, extra={"Phi": phi})


def solve_fixed_delay_meanfield(
    params: EpidemicParams,
    *,
    num_nodes: float,
    degree: float,
    h: float = 1e-3,
) -> Trajectory:
    """Mean-field model with a fixed infectious period (delayed removal)."""
    if not isinstance(params.dist, FixedDuration):
        raise ValueError("fixed-delay reference requires a fixed-duration recovery law")
    sigma = params.dist.sigma
    run = _SolveSetup("special:fixed_meanfield", params, num_nodes=num_nodes, degree=degree, h=h)
    j_sigma = _node_index(sigma, h, "sigma")
    coupling = params.tau * run.n / run.N
    half = 0.5 * h

    def rhs(t, u, lookup, t0):
        S, I = u
        dI = coupling * S * I
        if t0 > sigma - half:
            Sd, Id = lookup(t - sigma)
            dI -= coupling * Sd * Id
        return np.array([-coupling * S * I, dI])

    def recover_newborns(u):
        u = u.copy()
        u[1] -= run.I0
        return u

    jumps = {j_sigma: recover_newborns} if j_sigma <= run.steps else None
    S, I = _march_delay_rk4(rhs, [run.S0, run.I0], h, run.steps, jumps).T
    return run.trajectory(S, I)


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
    if not isinstance(params.dist, GammaErlang):
        raise ValueError("gamma-chain reference requires an Erlang recovery law")
    K = params.dist.shape
    stage_rate = params.dist.rate  # K * gamma
    run = _SolveSetup("special:gamma", params, num_nodes=num_nodes, degree=degree, h=h)
    run.meta["K"] = K
    tau, n = params.tau, run.n
    link = tau * (n - 1.0) / n

    # State layout: [S, SS, I_1..I_K, SI_1..SI_K]
    def rhs(t, u, lookup, t0):
        S, SS = u[0], u[1]
        I_st = u[2 : 2 + K]
        SI_st = u[2 + K :]
        SI = SI_st.sum()
        c = link * SI / S
        du = np.empty_like(u)
        du[0] = -tau * SI
        du[1] = -2.0 * c * SS
        du[2] = tau * SI - stage_rate * I_st[0]
        for j in range(1, K):
            du[2 + j] = stage_rate * (I_st[j - 1] - I_st[j])
        loss = c + tau + stage_rate
        du[2 + K] = c * SS - loss * SI_st[0]
        for j in range(1, K):
            du[2 + K + j] = stage_rate * SI_st[j - 1] - loss * SI_st[j]
        return du

    u0 = np.zeros(2 + 2 * K)
    u0[[0, 1, 2, 2 + K]] = run.pair_state()
    U = _march_delay_rk4(rhs, u0, h, run.steps)
    I_stages = U[:, 2 : 2 + K].T
    SI_stages = U[:, 2 + K :].T
    return run.trajectory(
        U[:, 0], I_stages.sum(axis=0), SI_stages.sum(axis=0), U[:, 1],
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
    if not isinstance(params.dist, UniformInterval):
        raise ValueError("uniform-delay reference requires a uniform recovery law")
    A, B = params.dist.lower, params.dist.upper
    run = _SolveSetup("special:uniform", params, num_nodes=num_nodes, degree=degree, h=h)
    _node_index(A, h, "a")
    _node_index(B, h, "b")
    tau, n = params.tau, run.n
    link = tau * (n - 1.0) / n
    width = B - A
    half = 0.5 * h
    newborn_flux = run.I0 / width
    newborn_link_flux = (n / run.N) * run.S0 * newborn_flux

    # State layout: [S, SS, I, SI, Phi, V]
    def rhs(t, u, lookup, t0):
        S, SS, I, SI, phi, V = u
        c = link * SI / S
        dS = -tau * SI
        dSS = -2.0 * c * SS
        dI = tau * SI
        dSI = c * SS - c * SI - tau * SI
        dphi = c + tau
        dV = c * SS - dphi * V
        if t0 > A - half:
            Sa, _, _, _, phia, Va = lookup(max(0.0, t - A)).tolist()
            Sb, _, _, _, phib, Vb = lookup(max(0.0, t - B)).tolist()
            dI -= (Sb - Sa) / width
            dSI -= (math.exp(phia - phi) * Va - math.exp(phib - phi) * Vb) / width
            if t0 < B - half:
                dI -= newborn_flux
                dSI -= newborn_link_flux * math.exp(-phi)
        return np.array([dS, dSS, dI, dSI, dphi, dV])

    U = _march_delay_rk4(rhs, run.pair_state() + [0.0, 0.0], h, run.steps)
    S, SS, I, SI, phi, _ = U.T
    return run.trajectory(S, I, SI, SS, extra={"Phi": phi})
