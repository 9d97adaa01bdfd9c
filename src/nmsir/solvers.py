"""Renewal-equation solvers for the generalised mean-field and pairwise models.

Both epidemic models reduce to the same computational shape: one ordinary
differential equation advanced alongside a Volterra renewal equation whose
kernel is the survival function of the infectious period:

    x'(t) = f(x, y)
    y(t)  = D(t) [int_0^t W(u) xi(t - u) e^(-d (t-u)) du + x(0)^(-beta) e^(-d t) b(t)]

For the mean-field model x = [S], y = [I], D = 1, beta = d = 0 and
W = tau (n/N) S I.  For the pairwise model x = [S], y = [SI] and every S-I
link is damped by exp(-int_u^t (tau + tau beta [SI]/[S]) ds), with
beta = (n-1)/n.  Since [S]' = -tau [SI], that damping is exactly
([S](t)/[S](u))^beta e^(-tau (t-u)), the first integral that also gives
[SS]; so D = [S]^beta, d = tau and W = tau kappa [S]^(-1/n) [SI], with
kappa = (n-1)/N [S]0^(2/n).  Integrating these *renewal* forms instead of
the differentiated equations keeps the kernel bounded: the survival
function is a step for a fixed infectious period and kinked for a uniform
one, whereas the differentiated kernel would be a Dirac delta.

Discretisation: composite trapezoid over the history on the step grid (the
degree-1 collocation choice).  The implicit current-time value is solved in
closed form for the mean-field model, a quadratic in the new incidence.  A
pairwise step is linear in [SI] given [S], so [SI] is solved exactly and a
fixed-point corrector sweeps [S] alone, stopping on its own correction: the
step equation's residual rises with slope at least 1 in [S], so a sweep's
correction bounds the error of its result (Brunner 2004).

The history is a plain weighted sum of three kinds, each an ``advance(w)``
that stores a weight and returns the next sum.  The stage kind serves the
exponential and Erlang laws (chains of K exponential stages) with K running
stage sums updated by a positive lower-triangular recursion (the linear
chain trick; MacDonald 1978, Hurtado and Kirosingh 2019), O(K^2) a step, up
to ``_MAX_STAGES`` stages.  The lagged kind serves the bounded laws by the
method of steps: O(1) Python work a step and one correlation a block.  The
full kind stores every weight and takes one dot product a step, O(steps^2)
in all.  The pairwise [I] is one FFT convolution, O(steps log steps).
One march serves both models, each giving it an incidence and a step solve
that returns its own history weight, so a step is two calls (the step and
``advance``); ``trajectory._SolveSetup`` checks inputs by the model's rule.

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
from array import array

import numpy as np

from .trajectory import EpidemicParams, SolverConfig, SolverError, Trajectory, _SolveSetup

__all__ = [
    "SolverError",
    "StepContractionError",
    "solve_meanfield",
    "solve_pairwise",
]


class StepContractionError(SolverError):
    """A renewal step had no nonnegative root, did not converge or overflowed: h is too large."""


# Sweeps the pairwise corrector may run in one step; a step that needs more
# is reported rather than marched on.
_MAX_CORRECTOR_SWEEPS = 50

# Pairwise corrector's remaining [S] error per step, relative to [S] on its
# first sweep and to max(1, [S]) on later ones.
_CORRECTOR_TOL = 1e-5

# Largest stage count K of a chain law whose history runs as K stage sums
# (:func:`_stage_history`): O(K^2) a step against the full kind's O(k), so
# where they cross moves with the step count.  Stage over full time at fig-1,
# best of 5 (2-core x86_64, Python 3.11, numpy 2.4), for K = 7: 1.14-1.16 at
# h = 1e-2 and 0.57-0.69 at h = 1e-3.  No one limit is the faster at both,
# and moving it would change the last bits of the solves it moves.
_MAX_STAGES = 6


def _weight_history(kernel: np.ndarray, h: float, steps: int):
    """The full kind: every weight stored, for a kernel of unbounded support.

    ``advance(w)`` stores w_k and returns h sum_{i<=k} w_i K_{k+1-i} for the
    model's kernel K, the sum for the step to node k+1 without its half term
    (the step adds it): one ``ndarray.dot`` over the stored weights and the
    reversed ``kernel``, O(steps^2) in all.
    """
    xi_rev = kernel[::-1].copy()
    weight = np.zeros(steps + 1)
    count = 0

    def advance(w):
        nonlocal count
        weight[count] = w
        count += 1
        return h * float(weight[:count].dot(xi_rev[steps - count : steps]))

    return advance


def _lagged_history(kernel: np.ndarray, h: float, steps: int, window: int, block: int):
    """The lagged kind, for a kernel K zero past node ``window`` and K_1^a at
    ages a <= ``block`` (where the survival is 1).

    ``advance(w)`` returns the sum of :func:`_weight_history` by the method
    of steps (Bellen and Zennaro 2003), ``block`` steps at a time: the
    weights stored since the block began sum as one float, near <- K_1
    (near + w), and one ``np.convolve`` of the last ``window`` older ones,
    all known when it begins, gives their part of the block's sums.  Every
    term is nonnegative and summed directly, so the rounding stays relative.
    The weights are an ``array('d')`` that numpy views once a block.
    """
    weights = array("d")
    c1 = float(kernel[1])

    def march():
        w = yield
        for s in range(0, steps, block):
            lag, nb = min(s, window), min(block, steps - s)
            # The older weights' part; numpy's view ends before array.append.
            far = np.convolve(np.frombuffer(weights)[s - lag :], kernel[2 : lag + nb + 1],
                              "valid").tolist() if lag else [0.0] * nb
            near = 0.0
            for f in far:
                near = c1 * (near + w)
                weights.append(w)
                w = yield h * (f + near)

    marching = march()
    next(marching)
    return marching.send


def _stage_history(stages: int, rate: float, decay: float, h: float):
    """The stage kind, for the kernel xi(a) e^{-da} with the survival
    xi(a) = e^{-ra} sum_{j<K} (ra)^j / j!.

    Keeps A_j = sum_i w_i e^{-(r+d)(t-t_i)} (r(t-t_i))^j / j! for j < K,
    whose sum over j is sum_i w_i xi(t - t_i) e^{-d(t-t_i)} (the linear
    chain trick).  No weight is stored: ``advance(w)`` adds the new weight
    to A_0, moves the sums on in place, A_j <- sum_{l<=j} c_{j-l} A_l with
    c_m = e^{-(r+d)h} (rh)^m / m!, j running downwards so each A_l (l < j)
    is read before it is overwritten, and returns h sum_j A_j, as
    :func:`_weight_history` does.  Every coefficient is positive, so
    nothing cancels.  O(K^2) Python float operations per step; one stage
    (the exponential law) is a single float.
    """
    rh = rate * h
    c = [math.exp(-(rate + decay) * h) * rh**m / math.factorial(m) for m in range(stages)]
    c0 = c[0]
    if stages == 1:
        total = 0.0

        def advance(w):
            nonlocal total
            total = c0 * (total + w)
            return h * total

        return advance
    # (j, [(l, c_{j-l}) for l < j]) for j = K-1 .. 0.
    rows = [(j, list(zip(range(j), c[j:0:-1]))) for j in range(stages - 1, -1, -1)]
    sums = [0.0] * stages

    def advance(w):
        sums[0] += w
        for j, row in rows:
            total = c0 * sums[j]
            for l, cl in row:
                total += cl * sums[l]
            sums[j] = total
        return h * sum(sums)

    return advance


def _march_renewal(*, step, weight, boundary: np.ndarray, jump: int | None = None, x0: float,
                   h: float, advance):
    """Advance the coupled ODE + renewal system on the grid of ``boundary``.

    Returns (x, y, y_hist) arrays of the boundary's length.  Per step the
    model's ``step(k, x_k, y_k, y_{k-1}, hist, b_left)`` returns the new
    (x, y, damp, w): y on the left of a jump, damp the factor the step put
    on its boundary value b_left, and w the history weight W(x, y).
    ``advance(w)``, a history kind, stores a weight, node 0's halved (the
    trapezoid end rule), and returns the sum for the next step.  ``weight(x,
    y)`` gives W at node 0 and at the jump node only.  An
    ``ArithmeticError`` in a step is reported as ``StepContractionError``.

    When the boundary term drops at node ``jump`` (newborn infecteds under a
    point-mass recovery law all leave at sigma, making y itself jump there),
    the step landing on the jump solves for the left limit, which is the
    boundary one node earlier (a point mass survives with probability 1
    before its atom); the committed series carries the right limit and the
    history (``y_hist``, else equal to y) their midpoint, mirroring the
    kernel treatment, so the trapezoid stays second order.
    """
    # Per-step work runs on Python floats and lists, because numpy scalar
    # arithmetic costs several times more per operation.
    b = boundary.tolist()
    xk, yk = float(x0), b[0]
    y_prev = yk  # so a linear predictor starts from y_0
    x, y, y_jump = [xk], [yk], None
    w = 0.5 * weight(xk, yk)  # the trapezoid's half end weight

    try:
        for k in range(len(b) - 1):
            if k + 1 != jump:
                xs, ys, _, w = step(k, xk, yk, y_prev, advance(w), b[k + 1])
                y_prev, xk, yk = yk, xs, ys
            else:
                b_left = b[k]
                xs, ys, damp, _ = step(k, xk, yk, y_prev, advance(w), b_left)
                y_prev, xk, yk = yk, xs, ys + damp * (b[k + 1] - b_left)
                y_jump = ys + damp * (0.5 * (b_left + b[k + 1]) - b_left)
                w = weight(xs, y_jump)
            x.append(xk)
            y.append(yk)
    except ArithmeticError as exc:
        raise StepContractionError(
            f"renewal march failed in the step to t={(k + 1) * h:.6g} "
            f"({type(exc).__name__}: {exc}); reduce the step size h={h}"
        ) from exc
    y = np.array(y)
    y_hist = y if y_jump is None else np.concatenate((y[:jump], [y_jump], y[jump + 1 :]))
    return np.array(x), y, y_hist


def _meanfield_step(coupling: float, xi0: float, h: float):
    """The mean-field (step, weight) pair: each step solved in closed form.

    With the new incidence w = c x y (c = tau n/N), C = x_k + h f_k/2 and
    A = hist + b_left, the trapezoid equations x = C - h w/2 and
    y = A + h xi0 w/2 turn w = c x y into a2 w^2 + a1 w - c C A = 0, with
    a2 = c h^2 xi0/4 and a1 = 1 - h c (C xi0 - A)/2.  Its nonnegative root is
    taken as 2 c C A / (a1 + sqrt(a1^2 + 4 a2 c C A)), which does not
    cancel.  No sweep leaves a residual, so S + I = N holds to rounding
    before the first recovery.  C < 0, A < 0 or a denominator <= 0 leave no
    nonnegative root, and the step fails.
    """
    half_h = 0.5 * h
    a2 = 0.25 * coupling * h * h * xi0

    def step(k, xk, yk, y_prev, hist, b_left):
        C = xk - half_h * (coupling * xk * yk)
        A = hist + b_left
        cca = coupling * C * A
        a1 = 1.0 - half_h * coupling * (C * xi0 - A)
        root = a1 + math.sqrt(a1 * a1 + 4.0 * a2 * cca) if C >= 0.0 and A >= 0.0 else math.nan
        if not root > 0.0:
            raise StepContractionError(
                f"mean-field step to t={(k + 1) * h:.6g} has no nonnegative solution "
                f"([S] part {C:.6g}, [I] part {A:.6g}); reduce the step size h={h}"
            )
        w = 2.0 * cca / root
        xs, ys = C - half_h * w, A + half_h * xi0 * w
        return xs, ys, 1.0, coupling * xs * ys

    return step, lambda s, i: coupling * s * i


def _pairwise_step(tau: float, n: float, N: float, S0: float, xi0: float, h: float):
    """The pairwise (step, weight) pair: [SI] solved exactly, a corrector on [S].

    The history holds W = tau kappa [S]^(-1/n) [SI] against xi(a) e^(-tau a),
    so with A = hist + [S]0^(-beta) e^(-tau t_{k+1}) b_left the step's
    renewal equation [SI] = [S]^beta A + h xi0 tau kappa [S]^alpha [SI]/2
    (alpha = (n-2)/n) is linear in [SI]: [SI] = [S]^beta A / (1 - h xi0 tau
    kappa [S]^alpha/2).  The jump's left limit b_left is damped at t_{k+1}
    too, like the rest of the step.  A fixed-point sweep then takes
    [S] <- T([S]) = [S]_k - h tau ([SI]_k + [SI])/2 from a predictor that
    extrapolates [SI] linearly.  [SI] rises with [S] (A >= 0), so the residual
    F = [S] - T([S]) has slope F' >= 1 and a sweep's correction
    |T(x) - x| bounds the error |T(x) - [S]*| of its result: the step is done
    when the correction is within ``_CORRECTOR_TOL`` times T(x) >= 0 on the
    first sweep, where the predictor may be far off relative to a [S] below
    one node, and times max(1, T(x)) on later sweeps.  An iterate [S] < 0, or
    one whose denominator is not positive (no [SI] >= 0 solves the step),
    gives nan and fails the step at once; so does needing more than
    ``_MAX_CORRECTOR_SWEEPS`` sweeps.
    """
    half_h_tau = 0.5 * h * tau
    tau_kappa = tau * ((n - 1.0) / N * S0 ** (2.0 / n))
    alpha, beta, inv_n = (n - 2.0) / n, (n - 1.0) / n, 1.0 / n
    implicit, boundary_scale = 0.5 * h * xi0 * tau_kappa, S0**-beta

    def step(k, xk, yk, y_prev, hist, b_left):
        damp_s0 = boundary_scale * math.exp(-tau * (k + 1) * h)
        A = hist + damp_s0 * b_left
        xs = xk - half_h_tau * (3.0 * yk - y_prev)
        for sweep in range(_MAX_CORRECTOR_SWEEPS):
            den = 1.0 - implicit * xs**alpha if xs >= 0.0 else math.nan
            if not den > 0.0:
                delta = math.nan
                break
            damp = xs**beta
            ys = damp * A / den
            x_new = xk - half_h_tau * (yk + ys)
            delta = abs(x_new - xs)
            scale = x_new if sweep == 0 else max(1.0, x_new)
            if x_new >= 0.0 and delta <= _CORRECTOR_TOL * scale:
                w = tau_kappa * ys / x_new**inv_n if x_new > 0.0 else 0.0  # weight(x_new, ys)
                return x_new, ys, damp * damp_s0, w
            xs = x_new
        if math.isnan(delta):
            why = "a sweep found no [S] >= 0 with a positive denominator (residual nan)"
        else:
            why = f"no convergence within {_MAX_CORRECTOR_SWEEPS} sweeps (residual {delta:.3e})"
        raise StepContractionError(
            f"pairwise step to t={(k + 1) * h:.6g} failed: {why}; reduce the step size h={h}"
        )

    return step, lambda s, si: tau_kappa * si / s**inv_n if s > 0.0 else 0.0


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
    [SS] [S]^(-2(n-1)/n), and the same integral damps each S-I link by
    ([S](t)/[S](u))^((n-1)/n) e^(-tau (t-u)); [I] is recovered from the
    incidence history against the survival kernel.  ``extra`` carries
    ``SS_independent``, an independently integrated [SS] series for
    first-integral drift diagnostics.
    """
    return _solve(True, params, num_nodes, degree, config)


def _solve(pairwise: bool, params: EpidemicParams, num_nodes, degree, config) -> Trajectory:
    """The renewal solve of either model for the snapped law of ``params``.

    The history keeps stage sums for a chain law of at most ``_MAX_STAGES``
    stages, lagged blocks for a bounded support, else every weight.
    """
    model = "pairwise" if pairwise else "meanfield"
    run = _SolveSetup(model, params, num_nodes=num_nodes, degree=degree, config=config)
    tau, n, N, S0, h, steps, jump = params.tau, run.n, run.N, run.S0, run.h, run.steps, run.jump
    # The initial infecteds are newborn: their profile is I0 xi(t).  The
    # quadrature copy of xi then takes the midpoint of the one-sided limits at
    # the point-mass node, which makes the composite trapezoid act as a
    # piecewise rule on the two smooth sides of the jump.
    ages = np.arange(steps + 1) * h
    xi_quad = np.array(run.dist.survival(ages))
    b_infected = run.I0 * xi_quad
    if jump is not None and jump <= steps:
        xi_quad[jump] = 0.5

    xi0 = float(xi_quad[0])
    if pairwise:
        step, weight = _pairwise_step(tau, n, N, S0, xi0, h)
        boundary = (n / N) * S0 * b_infected  # y is [SI]: the newborns' links to [S]0
        decay = tau  # a link's own loss rate damps its history kernel
    else:
        step, weight = _meanfield_step(tau * n / N, xi0, h)
        boundary, decay = b_infected, 0.0
    chain = run.dist._stage_chain()
    if chain is not None and chain[0] <= _MAX_STAGES:
        advance = _stage_history(*chain, decay, h)
    elif run.window is None:
        advance = _weight_history(xi_quad * np.exp(-decay * ages), h, steps)
    else:  # a block spans the ages past 0 at which the survival is still 1
        block = max(1, int(np.count_nonzero(xi_quad[1:] == 1.0)))
        advance = _lagged_history(xi_quad * np.exp(-decay * ages), h, steps, run.window, block)
    x, y, y_hist = _march_renewal(
        step=step, weight=weight, boundary=boundary, jump=jump, x0=S0, h=h, advance=advance
    )
    del advance  # stored weights held past the march raise the peak RSS of long solves
    if not pairwise:
        return run.trajectory(x, y)

    S, SI = x, y
    SS = (n / N) * S0 ** (2.0 / n) * S ** (2.0 * (n - 1.0) / n)
    I = _infected_from_incidence(tau * y_hist, xi_quad, b_infected, h)
    # An independent [SS] integration (trapezoid of its own rate equation),
    # for first-integral drift diagnostics; the update is linear-implicit exact.
    c = 2.0 * (tau * (n - 1.0) / n) * SI / S
    ratio = (1.0 - 0.5 * h * c[:-1]) / (1.0 + 0.5 * h * c[1:])
    ss_independent = (n / N) * S0**2 * np.concatenate(([1.0], np.cumprod(ratio)))
    return run.trajectory(S, I, SI, SS, extra={"SS_independent": ss_independent})
