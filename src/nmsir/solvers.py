"""Renewal-equation solvers for the generalised mean-field and pairwise models.

Both epidemic models reduce to the same computational shape: one ordinary
differential equation advanced alongside a Volterra renewal equation whose
kernel is the survival function of the infectious period, optionally damped
by an exponential of a cumulative rate integral:

    x'(t) = f(x, y)
    y(t)  = int_0^t B(x(u), y(u)) exp(-(Phi(t) - Phi(u))) xi(t - u) du
            + exp(-Phi(t)) b(t)
    Phi(t) = int_0^t G(x(s), y(s)) ds

For the mean-field model x = [S], y = [I], B = tau (n/N) S I and G = 0; for
the pairwise model x = [S], y = [SI], B = tau kappa S^((n-2)/n) [SI] with
kappa = (n-1)/N [S]0^(2/n) (the [SS] series is eliminated through its first
integral) and G = tau (n-1)/n [SI]/[S] + tau.  Integrating these *renewal*
forms instead of the differentiated equations keeps the kernel bounded: the
survival function is a step for a fixed infectious period and kinked for a
uniform one, whereas the differentiated kernel would be a Dirac delta.

Discretisation: composite trapezoid over the history on the step grid, with
the implicit current-time value resolved by a fixed-point corrector (this is
the degree-1 collocation choice).  Phi is accumulated once per step and
differenced, never recomputed by nested quadrature.  Support breakpoints
(sigma, or the uniform endpoints) are snapped to the grid, by
``trajectory._SolveSetup`` for every deterministic solve, so the kernel's
kinks sit on quadrature nodes; values *at* a jump node follow one-sided or
midpoint conventions so every trapezoid panel sees a smooth integrand.
Observed self-convergence is clean second order for continuous survival
kernels and slightly below (about 1.7) for the fixed-duration law, whose
solution itself jumps when the newborn infecteds recover; at the default
step sizes both sit orders of magnitude inside the validation tolerances.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .recovery import RecoveryDistribution
from .trajectory import EpidemicParams, SolverConfig, SolverError, Trajectory, _SolveSetup

__all__ = [
    "SolverError",
    "StepContractionError",
    "solve_meanfield",
    "solve_pairwise",
]


class StepContractionError(SolverError):
    """A renewal step failed to converge or overflowed; the step size is too large."""


# Sweeps the corrector may run in all while it still contracts; a step that
# needs more is reported rather than marched on.
_MAX_CORRECTOR_SWEEPS = 50

# Estimated remaining fixed-point error per step, relative to max(1, |x|, |y|).
_CORRECTOR_TOL = 1e-5

# Phi(t) - Phi_ref at which the stored history weights are rescaled: exp()
# of it stays far below overflow (about 709) with room for one step's rise.
_PHI_RESCALE = 300.0


def _survival_grids(dist: RecoveryDistribution, h: float, steps: int, jump: int | None):
    """Survival samples on the age grid, quadrature and pointwise.

    The quadrature variant replaces the value at the point-mass node ``jump``
    by the midpoint of the one-sided limits, which makes the composite
    trapezoid act as a piecewise rule on the two smooth sides of the jump.
    For laws with continuous survival (``jump`` None) both variants agree.
    """
    ages = np.arange(steps + 1) * h
    xi_point = np.asarray(dist.survival(ages))
    xi_quad = xi_point.copy()
    if jump is not None and jump <= steps:
        xi_quad[jump] = 0.5
    return xi_quad, xi_point


def _corrector_converged(delta: float, delta_prev: float, xs: float, ys: float) -> bool:
    """Geometric estimate of the remaining fixed-point error vs ``_CORRECTOR_TOL``.

    Successive corrections shrink by the contraction factor q, so the error
    left after the final sweep is about delta * q / (1 - q).  A step whose
    iteration does not contract (q >= 1) always fails.
    """
    tol = _CORRECTOR_TOL * max(1.0, abs(xs), abs(ys))
    if delta <= tol:
        return True
    if not math.isfinite(delta_prev) or delta_prev <= 0.0:
        return False
    q = delta / delta_prev
    if q >= 0.99:
        return False
    return delta * q / (1.0 - q) <= tol


def _march_renewal(
    *,
    deriv_x,
    state_factor,
    exponent_rate,
    xi_quad: np.ndarray,
    boundary: np.ndarray,
    jump: int | None = None,
    x0: float,
    h: float,
    steps: int,
    window: int | None = None,
):
    """Advance the coupled ODE + renewal system on a uniform grid.

    Returns (x, y, phi, y_hist) arrays of length steps+1.  ``window``
    truncates the history dot product for kernels with bounded support.  The
    stored history weights are B_i * exp(Phi_i - Phi_ref), relative to a
    reference Phi_ref that starts at 0; the history is damped by
    exp(-(Phi(t) - Phi_ref)) once per step, so each corrector iteration costs
    O(1) after one O(k) history sum.  Once Phi(t) - Phi_ref exceeds
    ``_PHI_RESCALE`` the stored weights are rescaled and Phi_ref moves to
    Phi(t), so exp() never overflows however long the horizon; while Phi stays
    below that the arithmetic is the plain B_i * exp(Phi_i) scheme.  The
    boundary term keeps the absolute damping exp(-Phi(t)).

    Each step runs two corrector sweeps, the fewest that give
    :func:`_corrector_converged` a contraction ratio q, then keeps sweeping
    until that test passes with x and y (both counts) nonnegative, up to
    ``_MAX_CORRECTOR_SWEEPS``.  Only the test decides: a ratio q >= 1 on an
    early sweep may come from the predictor rather than the iteration, and
    the sign of an unconverged count alternates from sweep to sweep.  The
    tolerance scales with the larger unknown, so a small y could pass it
    negative, and x = [S] would then rise.  ``StepContractionError`` means a
    non-finite residual, that cap, or an ``ArithmeticError`` in the step.

    When the boundary term drops at node ``jump`` (newborn infecteds under a
    point-mass recovery law all leave at sigma, making y itself jump there),
    the step landing on the jump iterates on the left limit, which is the
    boundary one node earlier (a point mass survives with probability 1
    before its atom); the committed series carries the right limit and the
    history buffer their midpoint, mirroring the kernel treatment, so the
    trapezoid stays second order.
    """
    # Per-step work runs on Python floats and lists, because numpy scalar
    # arithmetic costs several times more per operation; numpy is kept for
    # the O(k) history dot product, over a contiguous reversed kernel.
    damped = exponent_rate is not None
    b = boundary.tolist()
    xi = xi_quad.tolist()
    xi_rev = xi_quad[::-1].copy()
    xi0 = xi[0]
    hist_weight = np.empty(steps + 1)

    xk, yk, phik = float(x0), b[0], 0.0
    y_prev = yk
    x, y, phi, y_hist = [xk], [yk], [phik], [yk]
    hist_weight[0] = w0 = state_factor(xk, yk)
    phi_ref, damp_ref = 0.0, 1.0

    try:
        for k in range(steps):
            lo = 0 if window is None else max(0, k + 1 - window)
            hist = h * float(np.dot(hist_weight[lo : k + 1], xi_rev[steps - k - 1 + lo : steps]))
            if lo == 0:
                hist -= 0.5 * h * w0 * xi[k + 1]

            at_jump = k + 1 == jump
            b_left = b[k] if at_jump else b[k + 1]
            fk = deriv_x(xk, yk)
            gk = exponent_rate(xk, yk) if damped else 0.0
            xs = xk + h * fk
            # Linear extrapolation predictor keeps the corrector well inside its
            # contraction budget; the bootstrap step has no history to
            # extrapolate from.
            ys = yk + (yk - y_prev) if k else yk
            phis = phik + h * gk
            scale_hist = scale_out = 1.0
            delta = delta_prev = math.inf
            sweeps = 0
            while True:
                if damped:
                    phis = phik + 0.5 * h * (gk + exponent_rate(xs, ys))
                    scale_hist = math.exp(phi_ref - phis)
                    scale_out = scale_hist * damp_ref
                mem = scale_hist * hist + 0.5 * h * state_factor(xs, ys) * xi0
                y_new = mem + scale_out * b_left
                x_new = xk + 0.5 * h * (fk + deriv_x(xs, y_new))
                delta_prev = delta
                delta = abs(y_new - ys) + abs(x_new - xs)
                xs, ys = x_new, y_new
                sweeps += 1
                if sweeps == 1:
                    continue
                if xs >= 0.0 and ys >= 0.0 and _corrector_converged(delta, delta_prev, xs, ys):
                    break
                if not math.isfinite(delta) or sweeps >= _MAX_CORRECTOR_SWEEPS:
                    q = delta / delta_prev if delta_prev > 0.0 else math.inf
                    raise StepContractionError(
                        f"corrector did not converge at t={(k + 1) * h:.6g}: residual "
                        f"{delta:.3e}, ratio q={q:.3g}, x={xs:.6g} after {sweeps} sweeps; "
                        f"reduce the step size h={h}"
                    )
            y_prev = yk
            xk, yk, phik = xs, ys + scale_out * (b[k + 1] - b_left), phis
            yh = ys + scale_out * (0.5 * (b_left + b[k + 1]) - b_left) if at_jump else yk
            x.append(xk)
            y.append(yk)
            phi.append(phik)
            y_hist.append(yh)
            if phis - phi_ref > _PHI_RESCALE:
                hist_weight[: k + 1] *= math.exp(phi_ref - phis)
                w0 = float(hist_weight[0])
                phi_ref, damp_ref = phis, math.exp(-phis)
            rise = math.exp(phis - phi_ref) if damped else 1.0
            hist_weight[k + 1] = state_factor(xs, yh) * rise
    except ArithmeticError as exc:
        raise StepContractionError(
            f"renewal march failed in the step to t={(k + 1) * h:.6g} "
            f"({type(exc).__name__}: {exc}); reduce the step size h={h}"
        ) from exc
    return np.array(x), np.array(y), np.array(phi), np.array(y_hist)


def _infected_from_incidence(
    incidence: np.ndarray,
    xi_quad: np.ndarray,
    boundary: np.ndarray,
    h: float,
    window: int | None = None,
) -> np.ndarray:
    """[I](t) = int_0^t incidence(u) xi(t-u) du + b(t) on the whole grid.

    ``window`` (``_SolveSetup.window``) drops the kernel's zero tail past
    a bounded support.  The sums then run over fewer exact zeros, so the
    result may move in the last bits.
    """
    m = len(incidence) - 1
    kernel = xi_quad if window is None else xi_quad[: window + 1]
    conv = np.convolve(incidence, kernel)[: m + 1]
    # Trapezoid endpoint correction: halve the i=0 and i=k terms of each sum.
    ends = 0.5 * (incidence[0] * xi_quad[: m + 1] + incidence * xi_quad[0])
    return h * (conv - ends) + boundary


class _Renewal(NamedTuple):
    """A marched model plus the grid pieces its post-processing needs."""

    x: np.ndarray
    y: np.ndarray
    phi: np.ndarray
    y_hist: np.ndarray
    xi_quad: np.ndarray
    b_infected: np.ndarray


def _solve_renewal(
    run: _SolveSetup,
    *,
    deriv_x,
    state_factor,
    exponent_rate,
    boundary_scale: float = 1.0,
) -> _Renewal:
    """Kernel and boundary set-up and the march of one model.

    ``boundary_scale`` converts the initial-infected profile into the units
    of the renewal variable y (1 for [I], the initial link density for [SI]).
    """
    h, steps = run.h, run.steps
    xi_quad, xi_point = _survival_grids(run.dist, h, steps, run.jump)
    # The initial infecteds are newborn: their profile is I0 xi(t).
    b_infected = run.I0 * xi_point

    x, y, phi, y_hist = _march_renewal(
        deriv_x=deriv_x,
        state_factor=state_factor,
        exponent_rate=exponent_rate,
        xi_quad=xi_quad,
        boundary=boundary_scale * b_infected,
        jump=run.jump,
        x0=run.S0,
        h=h,
        steps=steps,
        window=run.window,
    )
    return _Renewal(x, y, phi, y_hist, xi_quad, b_infected)


def solve_meanfield(
    params: EpidemicParams,
    *,
    num_nodes: float,
    degree: float,
    config: SolverConfig | None = None,
) -> Trajectory:
    """Solve the node-level model: S' = -tau (n/N) S I with renewal-form I.

    The trajectory's pair columns are the closure values [SI] = (n/N) S I and
    [SS] = (n/N) S^2.
    """
    config = config or SolverConfig()
    run = _SolveSetup(
        "meanfield", params, num_nodes=num_nodes, degree=degree, h=config.h,
        allow_no_susceptibles=True,
    )

    coupling = params.tau * run.n / run.N
    sol = _solve_renewal(
        run,
        deriv_x=lambda s, i: -coupling * s * i,
        state_factor=lambda s, i: coupling * s * i,
        exponent_rate=None,
    )
    return run.trajectory(sol.x, sol.y)


def solve_pairwise(
    params: EpidemicParams,
    *,
    num_nodes: float,
    degree: float,
    config: SolverConfig | None = None,
) -> Trajectory:
    """Solve the link-level model reduced to ([S], [SI]) by its first integral.

    [SS] is reconstructed exactly from the conserved ratio
    [SS] [S]^(-2(n-1)/n); [I] is recovered from the incidence history against
    the survival kernel.  ``extra`` carries the accumulated rate integral Phi
    and an independently integrated [SS] series for drift diagnostics.
    """
    config = config or SolverConfig()
    if degree < 2:
        raise ValueError("pairwise model needs degree >= 2")
    run = _SolveSetup("pairwise", params, num_nodes=num_nodes, degree=degree, h=config.h)
    S0 = run.S0

    tau, n, N = params.tau, run.n, run.N
    kappa = (n - 1.0) / N * S0 ** (2.0 / n)
    alpha = (n - 2.0) / n
    link_ratio = tau * (n - 1.0) / n

    # The march passes Python floats, which raise or turn complex where numpy
    # gave nan: an iterate with [S] <= 0 yields nan, and the corrector reports
    # the step as not contracting.
    sol = _solve_renewal(
        run,
        deriv_x=lambda s, si: -tau * si,
        state_factor=lambda s, si: tau * kappa * s**alpha * si if s >= 0.0 else math.nan,
        exponent_rate=lambda s, si: link_ratio * si / s + tau if s else math.nan,
        boundary_scale=(n / N) * S0,
    )
    S, SI, h = sol.x, sol.y, config.h
    SS = (n / N) * S0 ** (2.0 / n) * S ** (2.0 * (n - 1.0) / n)
    I = _infected_from_incidence(tau * sol.y_hist, sol.xi_quad, sol.b_infected, h, run.window)

    # Independent [SS] integration (trapezoid of its own rate equation) for
    # first-integral drift diagnostics; the update is linear-implicit exact.
    c = 2.0 * link_ratio * SI / S
    ratio = (1.0 - 0.5 * h * c[:-1]) / (1.0 + 0.5 * h * c[1:])
    ss_independent = (n / N) * S0**2 * np.concatenate(([1.0], np.cumprod(ratio)))
    return run.trajectory(
        S, I, SI, SS, extra={"Phi": sol.phi, "SS_independent": ss_independent}
    )
