"""Infectious-period (recovery-time) distributions.

The epidemic models in this package keep Markovian transmission but draw the
infectious period of each node from an arbitrary law.  Four families are
implemented:

* :class:`Exponential` -- rate ``gamma`` (the classical Markovian case),
* :class:`FixedDuration` -- every node is infectious for exactly ``sigma``,
* :class:`GammaErlang` -- integer shape ``K`` with per-stage rate ``K*gamma``
  (so the mean is ``1/gamma``, the sum of ``K`` exponential stages),
* :class:`UniformInterval` -- uniform on ``(a, b)`` with ``0 < a < b``.

Each distribution exposes what the models read: the survival function
``survival`` (probability the period exceeds an age, the renewal kernel), the
Laplace transform of the period's law, moments, and sampling from a
caller-owned :class:`numpy.random.Generator`.  :class:`RecoveryDistribution`
checks every age and transform argument once and writes every spec string
from the table that parses it; a law states only its formulas, on float
arrays of valid ages.

The fixed duration is a point mass; consumers branch through
:meth:`~RecoveryDistribution.has_point_mass` and treat the atom explicitly
(delayed terms, exact truncation of memory integrals).

Instances are immutable value objects and safe to share across threads;
sampling mutates only the generator passed in.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "RecoveryDistribution",
    "Exponential",
    "FixedDuration",
    "GammaErlang",
    "UniformInterval",
    "parse_distribution",
]


def _snap(value: float, name: str, h: float, notes: list[str]) -> float:
    """``value`` moved to the nearest multiple of ``h``; a move is noted."""
    j = int(round(value / h))
    if j == 0:
        raise ValueError(f"{name}={value} is below half a step; reduce h")
    snapped = j * h
    if abs(snapped - value) > 1e-9 * max(1.0, abs(value)):
        notes.append(f"{name}:{value!r}->{snapped!r}")
    return snapped


class RecoveryDistribution(abc.ABC):
    """Common interface of the infectious-period laws."""

    kind: ClassVar[str]

    @abc.abstractmethod
    def _survival(self, a: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _laplace(self, tau: float) -> float: ...

    def survival(self, a):
        """Survival xi(a) = P(period > a) at age ``a >= 0``; a float for a scalar age."""
        ages = np.asarray(a, dtype=float)
        if np.any(ages < 0.0):
            raise ValueError("age must be nonnegative")
        xi = self._survival(ages)
        return float(xi) if ages.ndim == 0 else xi

    def laplace_pdf(self, tau: float) -> float:
        """Laplace transform of the period's law, E[exp(-tau T)]; equal to
        ``1 - tau int_0^inf xi(a) exp(-tau a) da``, a point mass included."""
        tau = float(tau)
        if tau < 0.0:
            raise ValueError("transform argument tau must be nonnegative")
        return self._laplace(tau)

    @abc.abstractmethod
    def mean(self) -> float: ...

    @abc.abstractmethod
    def variance(self) -> float: ...

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size=None):
        """Draw infectious periods from a caller-owned generator."""

    def has_point_mass(self) -> tuple[bool, float | None]:
        """(True, location) when the law is a point mass, else (False, None)."""
        return (False, None)

    def support_upper(self) -> float:
        """Upper end of the support (``inf`` for unbounded laws).

        Memory integrals against the survival kernel can be truncated here.
        """
        return math.inf

    def spec_string(self) -> str:
        """Round-trippable text form, e.g. ``exp:rate=0.6667``, written from
        the ``_SPEC_FORMS`` row that parses it."""
        _, attrs = _SPEC_FORMS[self.kind]
        params = ",".join(f"{key}={getattr(self, attr)!r}" for key, attr in attrs.items())
        return f"{self.kind}:{params}"

    def _on_grid(self, h: float) -> tuple["RecoveryDistribution", list[str]]:
        """The law with its breakpoints on the step grid of ``h``, and notes
        of each breakpoint that moved; a law without breakpoints is unchanged."""
        return self, []

    def _stage_chain(self) -> tuple[int, float] | None:
        """(K, r) when the period is a chain of K exponential stages of rate r,
        so xi(a) = e^{-ra} sum_{j<K} (ra)^j / j!; else None."""
        return None


@dataclass(frozen=True)
class Exponential(RecoveryDistribution):
    """Exponentially distributed period with rate ``rate`` (mean 1/rate)."""

    rate: float
    kind: ClassVar[str] = "exp"

    def __post_init__(self):
        object.__setattr__(self, "rate", float(self.rate))
        if not 0.0 < self.rate < math.inf:
            raise ValueError("Exponential rate must be positive and finite")

    def _survival(self, a):
        return np.exp(-self.rate * a)

    def _laplace(self, tau):
        return self.rate / (self.rate + tau)

    def mean(self):
        return 1.0 / self.rate

    def variance(self):
        return 1.0 / self.rate**2

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size=size)

    def _stage_chain(self):
        return (1, self.rate)


@dataclass(frozen=True)
class FixedDuration(RecoveryDistribution):
    """Degenerate law: every infectious period lasts exactly ``sigma``.

    A point mass has no density, and no route reads one: its survival is a
    step at ``sigma`` and its transform ``exp(-tau sigma)``.
    """

    sigma: float
    kind: ClassVar[str] = "fixed"

    def __post_init__(self):
        object.__setattr__(self, "sigma", float(self.sigma))
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("FixedDuration sigma must be positive and finite")

    def _survival(self, a):
        return (a < self.sigma).astype(float)

    def _laplace(self, tau):
        return math.exp(-tau * self.sigma)

    def mean(self):
        return self.sigma

    def variance(self):
        return 0.0

    def sample(self, rng, size=None):
        if size is None:
            return self.sigma
        return np.full(size, self.sigma)

    def has_point_mass(self):
        return (True, self.sigma)

    def support_upper(self):
        return self.sigma

    def _on_grid(self, h):
        notes: list[str] = []
        return FixedDuration(_snap(self.sigma, "sigma", h, notes)), notes


@dataclass(frozen=True)
class GammaErlang(RecoveryDistribution):
    """Erlang-distributed period: shape ``K`` integer, per-stage rate ``K*gamma``.

    Equivalently the sum of ``K`` exponential stages of rate ``K*gamma``,
    giving mean ``1/gamma`` and variance ``1/(K*gamma**2)``.  Use
    :meth:`from_shape_rate` when holding the conventional (shape, rate) pair.
    """

    shape: int
    gamma: float
    kind: ClassVar[str] = "gamma"

    def __post_init__(self):
        if not (math.isfinite(self.shape) and int(self.shape) == self.shape >= 1):
            raise ValueError("GammaErlang shape must be a positive integer")
        object.__setattr__(self, "shape", int(self.shape))
        object.__setattr__(self, "gamma", float(self.gamma))
        if not 0.0 < self.gamma < math.inf:
            raise ValueError("GammaErlang gamma must be positive and finite")

    @classmethod
    def from_shape_rate(cls, shape: int, rate: float) -> "GammaErlang":
        # Checked before the division below; the constructor checks the rest.
        if not shape >= 1:
            raise ValueError("GammaErlang shape must be a positive integer")
        if not 0.0 < rate < math.inf:
            raise ValueError("GammaErlang rate must be positive and finite")
        return cls(shape=shape, gamma=rate / shape)

    @property
    def rate(self) -> float:
        return self.shape * self.gamma

    def _survival(self, a):
        x = self.rate * a
        term = np.ones_like(x)
        acc = np.ones_like(x)
        for k in range(1, self.shape):
            term = term * x / k
            acc = acc + term
        return np.exp(-x) * acc

    def _laplace(self, tau):
        return (self.rate / (self.rate + tau)) ** self.shape

    def mean(self):
        return 1.0 / self.gamma

    def variance(self):
        return 1.0 / (self.shape * self.gamma**2)

    def sample(self, rng, size=None):
        # Sum of K exponential stages; keeps the stage interpretation exact.
        if size is None:
            return float(rng.exponential(1.0 / self.rate, size=self.shape).sum())
        stage_shape = (self.shape,) + tuple(np.atleast_1d(size))
        return rng.exponential(1.0 / self.rate, size=stage_shape).sum(axis=0)

    def _stage_chain(self):
        return (self.shape, self.rate)


@dataclass(frozen=True)
class UniformInterval(RecoveryDistribution):
    """Uniformly distributed period on ``(lower, upper)``, 0 < lower < upper."""

    lower: float
    upper: float
    kind: ClassVar[str] = "uniform"

    # Below this transform argument the closed form hits 0/0; use the series.
    _SERIES_TAU: ClassVar[float] = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if not 0.0 < self.lower < self.upper < math.inf:
            raise ValueError("UniformInterval requires 0 < lower < upper < inf")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def _survival(self, a):
        return 1.0 - np.clip((a - self.lower) / self.width, 0.0, 1.0)

    def _laplace(self, tau):
        if tau < self._SERIES_TAU:
            return 1.0 - tau * (self.lower + self.upper) / 2.0
        return (math.exp(-tau * self.lower) - math.exp(-tau * self.upper)) / (
            tau * self.width
        )

    def mean(self):
        return (self.lower + self.upper) / 2.0

    def variance(self):
        return self.width**2 / 12.0

    def sample(self, rng, size=None):
        return rng.uniform(self.lower, self.upper, size=size)

    def support_upper(self):
        return self.upper

    def _on_grid(self, h):
        notes: list[str] = []
        lo, hi = _snap(self.lower, "a", h, notes), _snap(self.upper, "b", h, notes)
        if not lo < hi:
            raise ValueError("uniform interval collapsed after grid snapping")
        return UniformInterval(lo, hi), notes


# kind -> (constructor, {spec key: attribute} in its argument order); the one
# statement of each spec form, read by parse_distribution and spec_string.
_SPEC_FORMS = {
    Exponential.kind: (Exponential, {"rate": "rate"}),
    FixedDuration.kind: (FixedDuration, {"sigma": "sigma"}),
    GammaErlang.kind: (GammaErlang.from_shape_rate, {"shape": "shape", "rate": "rate"}),
    UniformInterval.kind: (UniformInterval, {"a": "lower", "b": "upper"}),
}


def parse_distribution(spec: str) -> RecoveryDistribution:
    """Parse a distribution spec string into a distribution instance.

    Accepted forms::

        exp:rate=0.6667
        fixed:sigma=1.5
        gamma:shape=3,rate=2
        uniform:a=1,b=2

    The gamma rate is the conventional rate (shape/mean); it is converted to
    the stage parameterisation internally.  Each parameter appears once.
    """
    text = spec.strip()
    if ":" not in text:
        raise ValueError(f"malformed distribution spec {spec!r}: expected kind:params")
    kind, _, body = text.partition(":")
    kind = kind.strip().lower()
    if kind not in _SPEC_FORMS:
        raise ValueError(f"unknown distribution kind {kind!r} in {spec!r}")
    make, attrs = _SPEC_FORMS[kind]
    expected = tuple(attrs)
    params: dict[str, float] = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip().lower()
        if not sep:
            raise ValueError(f"malformed distribution parameter {item!r} in {spec!r}")
        if key in params:
            raise ValueError(f"repeated parameter {key!r} in distribution spec {spec!r}")
        try:
            params[key] = float(value)
        except ValueError as exc:
            raise ValueError(f"non-numeric value in distribution spec {spec!r}") from exc
    missing = [k for k in expected if k not in params]
    extra = [k for k in params if k not in expected]
    if missing or extra:
        raise ValueError(
            f"distribution spec {spec!r} must define exactly {expected}; "
            f"missing={missing or None} unknown={extra or None}"
        )
    return make(*(params[k] for k in expected))
