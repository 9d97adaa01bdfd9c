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
differenced, never recomputed by nested quadrature.

The history is a plain weighted sum of three kinds.  The full kind stores
every weight and takes one numpy dot product per step, O(steps^2) in all;
the windowed kind sums only the last support-length weights of a bounded
law.  The stage kind serves the exponential and Erlang laws (chains of K
exponential stages) with K running stage sums updated by a positive
lower-triangular recursion (the linear chain trick; MacDonald 1978, Hurtado
and Kirosingh 2019), O(steps K^2) in all, up to ``_MAX_STAGES`` stages.
The pairwise [I] is one FFT convolution for every law, O(steps log steps).
One builder serves both models with their closures, and
``trajectory._SolveSetup`` checks its inputs by the model's rule.

Support breakpoints (sigma, or the uniform endpoints) are snapped to the
grid, by ``trajectory._SolveSetup`` for every deterministic solve, so the
kernel's kinks sit on quadrature nodes; values *at* a jump node follow
one-sided or midpoint conventions so every trapezoid panel sees a smooth
integrand.  Observed self-convergence is clean second order for continuous
survival kernels and slightly below (about 1.7) for the fixed-duration law,
whose solution itself jumps when the newborn infecteds recover; at the
default step sizes both sit orders of magnitude inside the validation
tolerances.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

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

# Largest stage count K of a chain law whose march history runs as K stage
# sums (:func:`_stage_history`).  The stage update costs O(K^2) Python float
# operations per step, the full kind's dot product O(k) numpy work at step
# k, so the crossover is in K.  Paired, interleaved mean-field solves of
# both kinds (tau = 0.35, Erlang K, h = 1e-2 over 1000, 2500 and 4000 steps
# and h = 1e-3 over 25000; 2-core x86_64, Python 3.11, numpy 2.4) put the
# stage kind's time at 0.69-0.87 of the full kind's for K = 3-5, 0.87-0.93
# for K = 6, 0.93-1.06 for K = 7 and 1.05-1.16 for K = 8 at h = 1e-2; over
# 25000 steps at 0.47-0.62 for K = 3-6 and 0.68-0.79 for K = 7-8.
_MAX_STAGES = 6


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


class _History(NamedTuple):
    """The renewal march's memory of its pushed weights w_0, w_1, ...

    ``next_sum()`` is h sum_i w_i xi_{k+1-i} over the k+1 weights pushed so
    far, the history sum for the step to node k+1 without its half term;
    ``push(w)`` appends the next weight; ``rescale(f)`` multiplies every
    pushed weight by f.  The march applies the trapezoid end rule: it
    pushes half of node 0's weight and adds the new node's half term.
    """

    next_sum: Callable[[], float]
    push: Callable[[float], None]
    rescale: Callable[[float], None]


def _weight_history(xi_quad: np.ndarray, h: float, steps: int, window: int | None) -> _History:
    """The full kind (``window`` None) and the windowed kind: every weight stored.

    ``next_sum`` is one numpy dot product over the stored weights and the
    reversed kernel, O(k) at step k and O(steps^2) in all; the windowed kind
    sums only the last ``window`` weights, for a kernel that is zero past
    node ``window``.
    """
    xi_rev = xi_quad[::-1].copy()
    weight = np.zeros(steps + 1)
    reach = steps if window is None else window
    count = 0

    def next_sum():
        lo = count - reach if count > reach else 0
        return h * float(np.dot(weight[lo:count], xi_rev[steps - count + lo : steps]))

    def push(w):
        nonlocal count
        weight[count] = w
        count += 1

    def rescale(factor):
        weight[:count] *= factor

    return _History(next_sum, push, rescale)


def _stage_history(stages: int, rate: float, h: float) -> _History:
    """The stage kind, for the survival xi(a) = e^{-ra} sum_{j<K} (ra)^j / j!.

    Keeps A_j = sum_i w_i e^{-r(t-t_i)} (r(t-t_i))^j / j! for j < K, whose
    sum over j is sum_i w_i xi(t - t_i) (the linear chain trick).  No weight
    is stored: a new weight enters A_0, a rescale multiplies every A_j, and
    a step moves them on in place, A_j <- sum_{l<=j} c_{j-l} A_l with
    c_m = e^{-rh} (rh)^m / m!, j running downwards so each A_l (l < j) is
    read before it is overwritten.  Every coefficient is positive, so
    nothing cancels.  O(K^2) Python float operations per step.
    """
    rh = rate * h
    c = [math.exp(-rh) * rh**m / math.factorial(m) for m in range(stages)]
    c0 = c[0]
    # (j, [(l, c_{j-l}) for l < j]) for j = K-1 .. 0.
    rows = [(j, list(zip(range(j), c[j:0:-1]))) for j in range(stages - 1, -1, -1)]
    sums = [0.0] * stages

    def next_sum():
        for j, row in rows:
            total = c0 * sums[j]
            for l, cl in row:
                total += cl * sums[l]
            sums[j] = total
        return h * sum(sums)

    def push(w):
        sums[0] += w

    def rescale(factor):
        for j in range(stages):
            sums[j] *= factor

    return _History(next_sum, push, rescale)


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
    history: _History,
):
    """Advance the coupled ODE + renewal system on a uniform grid.

    Returns (x, y, phi, y_hist) arrays of length steps+1.  ``history``
    holds the committed weights B_i * exp(Phi_i - Phi_ref), node 0's halved
    (the trapezoid end rule), relative to a reference Phi_ref that starts
    at 0, and gives one history sum per step: O(k) at step k for the full
    kind, O(window) for the windowed kind, O(K^2) for the stage kind of a
    K-stage chain law.  The history is damped by exp(-(Phi(t) - Phi_ref))
    once per step, so each corrector iteration costs O(1) after that one
    sum.  Once Phi(t) - Phi_ref exceeds ``_PHI_RESCALE`` the history is
    rescaled and Phi_ref moves to Phi(t), so exp() never overflows however
    long the horizon; while Phi stays below that the arithmetic is the
    plain B_i * exp(Phi_i) scheme.  The boundary term keeps the absolute
    damping exp(-Phi(t)).

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
    # arithmetic costs several times more per operation.
    damped = exponent_rate is not None
    b = boundary.tolist()
    xi0 = float(xi_quad[0])
    next_sum, push = history.next_sum, history.push

    xk, yk, phik = float(x0), b[0], 0.0
    y_prev = yk
    x, y, phi, y_hist = [xk], [yk], [phik], [yk]
    push(0.5 * state_factor(xk, yk))  # the trapezoid's half end weight
    phi_ref, damp_ref = 0.0, 1.0

    try:
        for k in range(steps):
            hist = next_sum()

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
                history.rescale(math.exp(phi_ref - phis))
                phi_ref, damp_ref = phis, math.exp(-phis)
            rise = math.exp(phis - phi_ref) if damped else 1.0
            push(state_factor(xs, yh) * rise)
    except ArithmeticError as exc:
        raise StepContractionError(
            f"renewal march failed in the step to t={(k + 1) * h:.6g} "
            f"({type(exc).__name__}: {exc}); reduce the step size h={h}"
        ) from exc
    return np.array(x), np.array(y), np.array(phi), np.array(y_hist)


def _infected_from_incidence(
    incidence: np.ndarray, xi_quad: np.ndarray, boundary: np.ndarray, h: float
) -> np.ndarray:
    """[I](t) = int_0^t incidence(u) xi(t-u) du + b(t) on the whole grid.

    One real FFT convolution for every law, O(m log m) (Hairer, Lubich and
    Schlichte 1985), at a power-of-two length >= 2m - 1 so nothing wraps
    around.  Its rounding is absolute, about 5e-16 of the largest sum: where
    [I] is tiny it reads about +-1e-13 and may be negative.
    """
    m = len(incidence)
    size = 1 << (2 * m - 2).bit_length()
    spectrum = np.fft.rfft(incidence, size)
    spectrum *= np.fft.rfft(xi_quad, size)
    conv = np.fft.irfft(spectrum, size)[:m]
    # Trapezoid endpoint correction: halve the i=0 and i=k terms of each sum.
    ends = 0.5 * (incidence[0] * xi_quad + incidence * xi_quad[0])
    return h * (conv - ends) + boundary


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
    return _solve(False, params, num_nodes, degree, config)


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
    return _solve(True, params, num_nodes, degree, config)


def _solve(pairwise: bool, params: EpidemicParams, num_nodes, degree, config) -> Trajectory:
    """The renewal solve of either model for the snapped law of ``params``.

    The history keeps stage sums for a chain law of at most ``_MAX_STAGES``
    stages, else every weight (windowed for a bounded support).
    """
    model = "pairwise" if pairwise else "meanfield"
    run = _SolveSetup(model, params, num_nodes=num_nodes, degree=degree, config=config)
    tau, n, N, S0, h, steps, jump = params.tau, run.n, run.N, run.S0, run.h, run.steps, run.jump
    # The initial infecteds are newborn: their profile is I0 xi(t).  The
    # quadrature copy of xi then takes the midpoint of the one-sided limits at
    # the point-mass node, which makes the composite trapezoid act as a
    # piecewise rule on the two smooth sides of the jump.
    xi_quad = np.array(run.dist.survival(np.arange(steps + 1) * h))
    b_infected = run.I0 * xi_quad
    if jump is not None and jump <= steps:
        xi_quad[jump] = 0.5
    chain = run.dist._stage_chain()
    if chain is not None and chain[0] <= _MAX_STAGES:
        history = _stage_history(*chain, h)
    else:
        history = _weight_history(xi_quad, h, steps, run.window)

    if pairwise:
        kappa = (n - 1.0) / N * S0 ** (2.0 / n)
        alpha = (n - 2.0) / n
        link_ratio = tau * (n - 1.0) / n
        # The march passes Python floats, which raise or turn complex where
        # numpy gave nan: an iterate with [S] <= 0 yields nan, and the
        # corrector reports the step as not contracting.
        closures = dict(
            deriv_x=lambda s, si: -tau * si,
            state_factor=lambda s, si: tau * kappa * s**alpha * si if s >= 0.0 else math.nan,
            exponent_rate=lambda s, si: link_ratio * si / s + tau if s else math.nan,
        )
        boundary_scale = (n / N) * S0  # y is [SI]: the newborns' links to [S]0
    else:
        coupling = tau * n / N
        closures = dict(
            deriv_x=lambda s, i: -coupling * s * i,
            state_factor=lambda s, i: coupling * s * i,
            exponent_rate=None,
        )
        boundary_scale = 1.0
    x, y, phi, y_hist = _march_renewal(
        **closures, xi_quad=xi_quad, boundary=boundary_scale * b_infected, jump=jump,
        x0=S0, h=h, steps=steps, history=history,
    )
    del history  # stored weights held past the march raise the peak RSS of long solves
    if not pairwise:
        return run.trajectory(x, y)

    S, SI = x, y
    SS = (n / N) * S0 ** (2.0 / n) * S ** (2.0 * (n - 1.0) / n)
    I = _infected_from_incidence(tau * y_hist, xi_quad, b_infected, h)
    # Independent [SS] integration (trapezoid of its own rate equation) for
    # first-integral drift diagnostics; the update is linear-implicit exact.
    c = 2.0 * link_ratio * SI / S
    ratio = (1.0 - 0.5 * h * c[:-1]) / (1.0 + 0.5 * h * c[1:])
    ss_independent = (n / N) * S0**2 * np.concatenate(([1.0], np.cumprod(ratio)))
    return run.trajectory(S, I, SI, SS, extra={"Phi": phi, "SS_independent": ss_independent})
