"""Reproduction numbers and final epidemic size relations.

The mean-field reproduction number is the expected infectious period times
the node-level infection pressure, r0 = tau (n/N) S0 E(period).  The
pairwise reproduction number counts S-I links generated over an S-I link's
lifetime and involves the Laplace transform of the recovery density at tau:
r0p = (n-1)/N S0 (1 - L[f](tau)).

Final sizes solve the implicit relations

    mean-field:  ln(s) = r0 (s - 1)
    pairwise:    (n-1) (s^(1/n) - 1) = r0p (s^((n-1)/n) - 1)

for s = S_inf/S0 in (0, 1].  s = 1 is always a root; an interior (outbreak)
root exists exactly when the reproduction number exceeds one, detected from
the derivative at s = 1 rather than by scanning.  Roots are found by
bisection on a sign-verified bracket (robust even where the relation is
extremely flat) down to two adjacent doubles, with powers evaluated as
expm1(log(s) * exponent) so the n -> infinity limit degrades gracefully into
the classical relation.  A root below the smallest positive double is
reported as s = 0, and so is the pairwise root for r0p >= n - 1, where the
relation has no root in (0, 1) and s = 0 is the limit of the outbreak root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .recovery import RecoveryDistribution

__all__ = [
    "ReproductionReport",
    "FinalSizeResult",
    "reproduction_numbers",
    "final_size_meanfield",
    "final_size_pairwise",
]

_BRACKET_EPS = 1e-12
_TINY = math.ulp(0.0)  # the smallest positive double


@dataclass(frozen=True)
class ReproductionReport:
    """Both reproduction numbers and L[f](tau), the Laplace transform behind r0p."""

    r0: float
    r0p: float
    laplace_at_tau: float


@dataclass(frozen=True)
class FinalSizeResult:
    """Root of a final-size relation: s_inf = S_inf/S0 and its attack rate."""

    s_inf: float
    attack_rate: float
    branch: str  # "no-outbreak" or "outbreak"
    # |g(s_inf)| for the relation g = 0; 0.0 when the root lies below the
    # smallest positive double, where s_inf = 0.0 is the nearest double.
    residual: float


def reproduction_numbers(
    tau: float,
    degree: float,
    num_nodes: float,
    s0: float,
    dist: RecoveryDistribution,
) -> ReproductionReport:
    """Mean-field r0 and pairwise r0p for the given epidemic setup."""
    if not tau >= 0.0:
        raise ValueError("tau must be nonnegative")
    if degree < 2:
        raise ValueError("degree must be at least 2")
    if not (0.0 <= s0 <= num_nodes):
        raise ValueError("s0 must lie in [0, N]")
    laplace = dist.laplace_pdf(tau)
    r0 = tau * (degree / num_nodes) * s0 * dist.mean()
    r0p = ((degree - 1.0) / num_nodes) * s0 * (1.0 - laplace)
    return ReproductionReport(r0=r0, r0p=r0p, laplace_at_tau=laplace)


def _bisect(g, lo: float, hi: float) -> float:
    """Root of g in [lo, hi], given g(lo) < 0 <= g(hi), to adjacent doubles.

    Each step halves the bracket until no double lies strictly inside it, so
    the loop ends after at most about 1100 steps on (0, 1].
    """
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def _outbreak_root(g, lo: float) -> FinalSizeResult:
    """Interior root of a relation with g < 0 near 0, g > 0 below 1, g(1) = 0.

    ``lo`` is the preferred lower end of the bracket.  When it underflowed
    to 0 or g is not negative there, the bracket starts at the smallest
    double instead, and when g is not negative even there the root is
    below every positive double: s = 0.  When g is not positive at the
    preferred upper end, the root lies closer to 1 and the bracket ends at 1.
    """
    if not (lo > 0.0 and g(lo) < 0.0):
        lo = _TINY
        if not g(lo) < 0.0:
            return FinalSizeResult(0.0, 1.0, "outbreak", 0.0)
    hi = 1.0 - _BRACKET_EPS
    if not g(hi) > 0.0:
        lo, hi = hi, 1.0
    s = _bisect(g, lo, hi)
    return FinalSizeResult(s, 1.0 - s, "outbreak", abs(g(s)))


def final_size_meanfield(r0: float) -> FinalSizeResult:
    """Solve ln(s) = r0 (s - 1) for the surviving susceptible fraction."""
    if not r0 >= 0.0:
        raise ValueError("r0 must be nonnegative")
    if r0 <= 1.0:
        # s = 1 is the only root in (0, 1]; return it exactly.
        return FinalSizeResult(1.0, 0.0, "no-outbreak", 0.0)

    def g(s: float) -> float:
        return math.log(s) - r0 * (s - 1.0)

    # For large r0 the root sits near exp(-r0), below the default bracket.
    lo = min(_BRACKET_EPS, math.exp(-r0 - 1.0)) if r0 > 25.0 else _BRACKET_EPS
    return _outbreak_root(g, lo)


def final_size_pairwise(r0p: float, degree: float) -> FinalSizeResult:
    """Solve (n-1)(s^(1/n) - 1) = r0p (s^((n-1)/n) - 1) on (0, 1]."""
    if not r0p >= 0.0:
        raise ValueError("r0p must be nonnegative")
    n = float(degree)
    if n < 2:
        raise ValueError("degree must be at least 2")
    if r0p <= 1.0:
        # g'(1) = (n-1)/n (1 - r0p) >= 0: no interior root.
        return FinalSizeResult(1.0, 0.0, "no-outbreak", 0.0)
    if r0p >= n - 1.0:
        # g(0+) = r0p - (n-1) >= 0: no root in (0, 1), and the outbreak root
        # is s = 0, the limit as r0p rises to n - 1.  reproduction_numbers
        # gives r0p = n - 1 when L[f](tau) underflows with no initial
        # infected, and rounding alone can put it a bit above.
        return FinalSizeResult(0.0, 1.0, "outbreak", 0.0)

    def g(s: float) -> float:
        log_s = math.log(s)
        return (n - 1.0) * math.expm1(log_s / n) - r0p * math.expm1(
            log_s * (n - 1.0) / n
        )

    return _outbreak_root(g, 1e-300)
