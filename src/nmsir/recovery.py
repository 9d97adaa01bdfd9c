"""Infectious-period (recovery-time) distributions.

The epidemic models in this package keep Markovian transmission but draw the
infectious period of each node from an arbitrary law.  Four families are
implemented:

* :class:`Exponential` -- rate ``rate`` (the classical Markovian case),
* :class:`FixedDuration` -- every node is infectious for exactly ``sigma``,
* :class:`GammaErlang` -- the sum of integer ``shape`` exponential stages of
  rate ``rate`` each (so the mean is ``shape/rate``),
* :class:`UniformInterval` -- uniform on ``(a, b)`` with ``0 < a < b``.

Each distribution exposes what the models read: the survival function
``survival`` (probability the period exceeds an age, the renewal kernel), the
Laplace transform of the period's law, moments, and sampling from a
caller-owned :class:`numpy.random.Generator`.  A law is a frozen dataclass
whose fields are its spec keys: :class:`RecoveryDistribution` checks every
age and transform argument once and writes every spec string from those
fields, so a law states only its formulas, on float arrays of valid ages.

The fixed duration is a point mass; consumers branch through
:meth:`~RecoveryDistribution.has_point_mass` and treat the atom explicitly
(delayed terms, exact truncation of memory integrals).

Instances are immutable value objects and safe to share across threads;
sampling mutates only the generator passed in.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, fields
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
        """Round-trippable text form, e.g. ``exp:rate=0.6667``: the kind,
        then each dataclass field as a spec key."""
        params = ",".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
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


@dataclass(frozen=True, kw_only=True)
class GammaErlang(RecoveryDistribution):
    """Erlang-distributed period: the sum of ``shape`` (an integer) exponential
    stages of rate ``rate`` each; mean ``shape/rate``, variance ``shape/rate**2``.

    Keyword-only, as in its spec: ``GammaErlang(shape=3, rate=2.0)`` has mean 1.5.
    """

    shape: int
    rate: float
    kind: ClassVar[str] = "gamma"

    def __post_init__(self):
        if not (math.isfinite(self.shape) and int(self.shape) == self.shape >= 1):
            raise ValueError("GammaErlang shape must be a positive integer")
        object.__setattr__(self, "shape", int(self.shape))
        object.__setattr__(self, "rate", float(self.rate))
        if not 0.0 < self.rate < math.inf:
            raise ValueError("GammaErlang rate must be positive and finite")

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
        return self.shape / self.rate

    def variance(self):
        return self.shape / self.rate**2

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
    """Uniformly distributed period on ``(a, b)``, 0 < a < b."""

    a: float
    b: float
    kind: ClassVar[str] = "uniform"

    # Below this transform argument the closed form hits 0/0; use the series.
    _SERIES_TAU: ClassVar[float] = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not 0.0 < self.a < self.b < math.inf:
            raise ValueError("UniformInterval requires 0 < a < b < inf")

    @property
    def width(self) -> float:
        return self.b - self.a

    def _survival(self, a):
        return 1.0 - np.clip((a - self.a) / self.width, 0.0, 1.0)

    def _laplace(self, tau):
        if tau < self._SERIES_TAU:
            return 1.0 - tau * (self.a + self.b) / 2.0
        return (math.exp(-tau * self.a) - math.exp(-tau * self.b)) / (
            tau * self.width
        )

    def mean(self):
        return (self.a + self.b) / 2.0

    def variance(self):
        return self.width**2 / 12.0

    def sample(self, rng, size=None):
        return rng.uniform(self.a, self.b, size=size)

    def support_upper(self):
        return self.b

    def _on_grid(self, h):
        notes: list[str] = []
        lo, hi = _snap(self.a, "a", h, notes), _snap(self.b, "b", h, notes)
        if not lo < hi:
            raise ValueError("uniform interval collapsed after grid snapping")
        return UniformInterval(lo, hi), notes


# kind -> law class; parse_distribution alone reads it.
_KINDS = {law.kind: law for law in (Exponential, FixedDuration, GammaErlang, UniformInterval)}


def parse_distribution(spec: str) -> RecoveryDistribution:
    """Parse a distribution spec string into a distribution instance.

    Accepted forms::

        exp:rate=0.6667
        fixed:sigma=1.5
        gamma:shape=3,rate=2
        uniform:a=1,b=2

    The keys are the law's dataclass fields, each given once; the gamma rate
    is the rate of each of its ``shape`` stages (shape/mean).
    """
    text = spec.strip()
    if ":" not in text:
        raise ValueError(f"malformed distribution spec {spec!r}: expected kind:params")
    kind, _, body = text.partition(":")
    kind = kind.strip().lower()
    if kind not in _KINDS:
        raise ValueError(f"unknown distribution kind {kind!r} in {spec!r}")
    law = _KINDS[kind]
    expected = tuple(f.name for f in fields(law))
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
    return law(**params)
