"""Closed-form special-case references: one per model, generic over the recovery law.

For particular recovery laws the general renewal systems collapse to ordinary
or delay differential equations, which ``solve_reference_pairwise`` and
``solve_reference_meanfield`` build for the law they are given.  The model
gives the head of the state ([S], and [SS] if pairwise) and the incidence:
tau [SI] pairwise, where each S-S link breaks at rate c = tau (n-1)/n
[SI]/[S], and tau n/N [S] [I] mean-field.  Each law gives its node part
and, in the pairwise model, its link part:

* a chain of K exponential stages of rate r (Erlang; the exponential law is
  K = 1): nodes and links pass through the stages, and links also leave at
  rate c + tau (the linear chain trick; MacDonald 1978, *Time Lags in
  Biological Models*).  The node stages are in ``extra["I_stages"]``;
* a fixed period sigma: the incidence delayed by sigma leaves [I] and the
  link inflow delayed by sigma, damped by exp(-(Phi(t) - Phi(t - sigma)))
  with Phi' = c + tau, leaves [SI]; the newborn (initial) infecteds recover
  in one jump at sigma, with their surviving links;
* a uniform period on [A, B]: the windowed integrals telescope, so
  (S(t-B) - S(t-A))/(B-A) leaves [I], and the newborns leave as the constant
  flux I0/(B-A) on [A, B] (Hethcote & Tudor 1980, *J. Math. Biol.* 9:37).
  The [SI] window is the difference of the running integral W of the link
  inflow c [SS] exp(Phi) at its two ends.  W overflows once Phi passes
  about 709, so the state carries V = exp(-Phi) W, with
  V' = c [SS] - (c + tau) V, and the window reads
  (exp(Phi_a - Phi) V_a - exp(Phi_b - Phi) V_b)/(B-A).

Both references use fixed-step classical RK4 on the same grid, initial
counts and snapped law as the generic solver (``trajectory._SolveSetup``): a
sigma, a or b off the step grid moves to the nearest node, noted in the
meta's ``grid_snap``, exactly as in the generic solves.  Every exponential
of Phi enters as a difference exp(-(Phi(t) - Phi(u))) <= 1, so no horizon
overflows.  Branch switches and state jumps are aligned to grid nodes, and
each step evaluates the branch chosen by its *starting* node so that every
step integrates a smooth piece.

Every delay is a whole number of steps, at least one, so the delayed states
a step needs are known before it starts: the method of steps (Bellen &
Zennaro 2003, *Numerical Methods for Delay Differential Equations*).  The
march computes them in numpy for a block of steps at once, a block being no
longer than the shortest delay: the stored node rows at node stage times,
and the cubic Hermite interpolant of the stored history at mid-step times.
Each law's ``lag_terms`` turns them into the terms of its right-hand side
that depend on delayed states only, so each RK4 stage computes only the
terms in its own state.  Otherwise the march runs on Python floats: states
and RK4 stages are sequences of floats, and the node history is one flat
``array('d')`` of states and one of derivatives, viewed by numpy once per
block and wrapped as an ndarray at the end.  Every operation keeps the order of the
numpy march kept as an oracle in the tests, so the series are bit-identical
to it.

A law without a closed form here raises ``ValueError``.  A step that fails
in arithmetic, a state that is not finite, or a count below -1e-6 N (a step
too coarse to resolve the epidemic, not rounding) raises ``SolverError``
with the time it happened.
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, NamedTuple

import numpy as np

from .recovery import FixedDuration, UniformInterval
from .trajectory import SERIES_NAMES, EpidemicParams, SolverConfig, SolverError, Trajectory
from .trajectory import _SolveSetup

__all__ = ["solve_reference_pairwise", "solve_reference_meanfield"]


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

    ``rhs(u, lag, t0)`` receives the step's starting node time ``t0``
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
    pre_jump: dict[int, tuple] = {}
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
            k1 = rhs(u, lag, t0)
            D.extend(k1)
            i = k % block
            if i == 0:
                mids = ends = None  # the last block's tuples go before the next is built
                mids, ends = lag_block(k, min(block, steps - k))
            mid, lag = mids[i], ends[i]
            k2 = rhs([x + half * d for x, d in zip(u, k1)], mid, t0)
            k3 = rhs([x + half * d for x, d in zip(u, k2)], mid, t0)
            k4 = rhs([x + h * d for x, d in zip(u, k3)], lag, t0)
            u = [x + sixth * (a + 2.0 * b + 2.0 * c + d)
                 for x, a, b, c, d in zip(u, k1, k2, k3, k4)]
            jump = jumps.get(k + 1)
            if jump is not None:
                pre_jump[k + 1] = (u, rhs(u, lag, t0))
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


def solve_reference_pairwise(
    params: EpidemicParams, *, num_nodes: float, degree: float, config: SolverConfig | None = None
) -> Trajectory:
    """The pairwise model as the ODE or DDE of its recovery law (see the module docstring)."""
    return _solve(True, params, num_nodes, degree, config)


def solve_reference_meanfield(
    params: EpidemicParams, *, num_nodes: float, degree: float, config: SolverConfig | None = None
) -> Trajectory:
    """The mean-field model as the ODE or DDE of its recovery law (see the module docstring)."""
    return _solve(False, params, num_nodes, degree, config)


class _Model(NamedTuple):
    pairwise: bool
    tau: float
    link: float  # c = link [SI]/[S]
    coupling: float  # the mean-field incidence is coupling [S] [I]
    head: int  # states before the first node state: [S], and [SS] if pairwise


class _Law(NamedTuple):
    """A recovery law's part of a reference's right-hand side.

    The state ``u`` is the model's head, ``stages`` node states and, in the
    pairwise model, ``stages`` link states and the ``aux`` states.
    ``node(inc, u, lag, t0)`` gives the node derivatives from the incidence
    ``inc``, and ``link(c, SS, u, lag, t0)`` those of the link and aux
    states; ``lags``, ``lag_terms`` and ``jumps`` are as in
    ``_march_delay_rk4``.
    """

    stages: int
    aux: tuple
    node: Callable
    link: Callable
    lags: tuple = ()
    lag_terms: Callable | None = None
    jumps: dict | None = None


def _chain_law(model: _Model, K: int, r: float) -> _Law:
    """K exponential stages of rate r for nodes and links; newborns start in stage one."""
    tau, at = model.tau, model.head
    lo = at + K  # the first link stage
    later_nodes, later_links = range(at + 1, lo), range(lo + 1, lo + K)

    def node(inc, u, lag, t0):
        du = [inc - r * u[at]]
        for j in later_nodes:
            du.append(r * (u[j - 1] - u[j]))
        return du

    def link(c, SS, u, lag, t0):
        loss = c + tau + r
        du = [c * SS - loss * u[lo]]
        for j in later_links:
            du.append(r * u[j - 1] - loss * u[j])
        return du

    return _Law(K, (), node, link)


def _fixed_law(run: _SolveSetup, model: _Model) -> _Law:
    """Removal of the incidence delayed by sigma; the newborns recover in a jump at sigma."""
    sigma, I0, half, tau, at = run.dist.sigma, run.I0, 0.5 * run.h, model.tau, model.head
    SI0 = run.pair_state()[3]

    def node(inc, u, lag, t0):
        return (inc - lag[0],) if t0 > sigma - half else (inc,)

    def link(c, SS, u, lag, t0):
        _, _, _, SI, phi = u
        dSI = c * SS - c * SI - tau * SI
        if t0 > sigma - half:
            dSI -= lag[1] * math.exp(-(phi - lag[2]))
        return (dSI, c + tau)

    def lag_terms(d):
        if model.pairwise:  # rows of S, SS, I, SI, Phi
            return tau * d[3], model.link * (d[1] * d[3] / d[0]), d[4]
        return (model.coupling * d[0] * d[1],)

    def recover_newborns(u):
        u = list(u)
        u[at] -= I0
        if model.pairwise:
            u[at + 1] -= SI0 * math.exp(-u[at + 2])
        return u

    return _Law(1, (0.0,), node, link, (sigma,), lag_terms, {run.jump: recover_newborns})


def _uniform_law(run: _SolveSetup, model: _Model) -> _Law:
    """Windowed removal over [A, B]; the newborns leave as a constant flux on [A, B]."""
    A, B = run.dist.lower, run.dist.upper
    width, half, tau = B - A, 0.5 * run.h, model.tau
    newborn_flux = run.I0 / width
    newborn_link_flux = (run.n / run.N) * run.S0 * newborn_flux

    def node(inc, u, lag, t0):
        if t0 > A - half:
            inc -= lag[0]
            if t0 < B - half:
                inc -= newborn_flux
        return (inc,)

    def link(c, SS, u, lag, t0):
        _, _, _, SI, phi, V = u
        dSI, dphi = c * SS - c * SI - tau * SI, c + tau
        if t0 > A - half:
            _, phia, Va, phib, Vb = lag
            dSI -= (math.exp(phia - phi) * Va - math.exp(phib - phi) * Vb) / width
            if t0 < B - half:
                dSI -= newborn_link_flux * math.exp(-phi)
        return (dSI, dphi, c * SS - dphi * V)

    def lag_terms(at_a, at_b):  # pairwise rows: S, SS, I, SI, Phi, V
        links = (at_a[4], at_a[5], at_b[4], at_b[5]) if model.pairwise else ()
        return ((at_b[0] - at_a[0]) / width, *links)

    return _Law(1, (0.0, 0.0), node, link, (A, B), lag_terms)


def _solve(pairwise: bool, params: EpidemicParams, num_nodes, degree, config) -> Trajectory:
    """The reference of either model for the snapped law of ``params``."""
    model_name = "reference_pairwise" if pairwise else "reference_meanfield"
    run = _SolveSetup(model_name, params, num_nodes=num_nodes, degree=degree, config=config)
    tau, n, h = params.tau, run.n, run.h
    model = _Model(pairwise, tau, tau * (n - 1.0) / n, tau * n / run.N, 2 if pairwise else 1)
    chain = run.dist._stage_chain()
    if chain is not None:
        law = _chain_law(model, *chain)
    elif isinstance(run.dist, FixedDuration):
        law = _fixed_law(run, model)
    elif isinstance(run.dist, UniformInterval):
        law = _uniform_law(run, model)
    else:
        raise ValueError(f"no closed-form reference for a {type(run.dist).__name__} recovery law")
    K, node, link = law.stages, law.node, law.link
    S0, SS0, I0, SI0 = run.pair_state()
    rest = (0.0,) * (K - 1)  # newborns and their links start in stage one
    lo, hi = 2 + K, 2 + 2 * K  # the link stages of the pairwise state
    link_rate, coupling = model.link, model.coupling

    def pairwise_rhs(u, lag, t0):
        S, SS = u[0], u[1]
        SI = u[lo] if K == 1 else sum(u[lo:hi])  # one stage needs no sum()
        c = link_rate * SI / S
        inc = tau * SI
        return [-inc, -2.0 * c * SS, *node(inc, u, lag, t0), *link(c, SS, u, lag, t0)]

    def meanfield_rhs(u, lag, t0):
        inc = coupling * u[0] * (u[1] if K == 1 else sum(u[1:]))
        return [-inc, *node(inc, u, lag, t0)]

    if pairwise:
        rhs, u0 = pairwise_rhs, (S0, SS0, I0, *rest, SI0, *rest, *law.aux)
    else:
        rhs, u0 = meanfield_rhs, (S0, I0, *rest)
    U = _march_delay_rk4(rhs, u0, h, run.steps, law.jumps, law.lags, law.lag_terms)
    I_stages = U[:, model.head : model.head + K].T
    extra = {"I_stages": I_stages} if chain is not None else {}
    if not pairwise:
        return _trajectory(run, U[:, 0], I_stages.sum(axis=0), extra=extra)
    if chain is None:
        extra["Phi"] = U[:, hi]
    return _trajectory(
        run, U[:, 0], I_stages.sum(axis=0), U[:, lo:hi].T.sum(axis=0), U[:, 1], extra=extra
    )
