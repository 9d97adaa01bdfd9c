"""Core value types shared by the simulator, the solvers and the CLI.

A :class:`Trajectory` is a uniform time grid carrying the node series [S],
[I], [R] and the ordered link series [SI], [SS], written with the header
``t,S,I,R,SI,SS``.  Every CSV file the package writes goes through
:func:`write_csv`: one ``# meta:`` line (:func:`format_meta`) echoing every
parameter needed to reproduce the run, the header, then the rows.  Numbers
are written as ``repr(float(x))``, the shortest round trip, so write -> read
-> write is byte-stable; text cells are quoted only when they hold a comma,
a double quote or a line break, as spec strings such as
``gamma:shape=3,rate=2.0`` do.  Every line ends in ``\n``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from urllib.parse import quote, unquote

import numpy as np

from .recovery import RecoveryDistribution

__all__ = [
    "SERIES_NAMES", "EpidemicParams", "SolverConfig", "SolverError", "Trajectory",
    "format_meta", "parse_meta", "write_csv",
]

SERIES_NAMES = ("S", "I", "R", "SI", "SS")
_META_TAG = "# meta:"

# Most steps t_end/h a deterministic solve takes: ten times the 1e4-1e5 range
# SolverConfig names.  A step orders of magnitude too small is refused at once
# rather than left to run for hours (the history costs O(steps^2) for most
# laws) or to exhaust memory (a solve peaks at about 150 bytes a step).
_MAX_STEPS = 1_000_000


class SolverError(RuntimeError):
    """Raised when a deterministic solve cannot be completed with the given configuration."""


@dataclass(frozen=True)
class EpidemicParams:
    """Transmission rate, recovery law, seeding and horizon of one epidemic."""

    tau: float
    dist: RecoveryDistribution
    initial_infected: int = 5
    t_end: float = 25.0

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if not float(self.initial_infected).is_integer():
            raise ValueError(f"initial_infected={self.initial_infected} is not a whole number")
        object.__setattr__(self, "initial_infected", int(self.initial_infected))
        if self.initial_infected < 0:
            raise ValueError("initial_infected must be nonnegative")
        if not 0.0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")


@dataclass(frozen=True)
class SolverConfig:
    """Step size for the renewal-equation solvers.

    The seeding and the horizon come from :class:`EpidemicParams`; the
    initial infecteds are newborn (age zero at t=0).  The march's memory
    term costs O(K^2) per step for the exponential and Erlang laws of
    K <= 6 stages, O(1) Python work a step plus one correlation a block
    for the bounded laws, and O(steps) per step, O(steps^2) overall, for
    Erlang laws of more stages, so there ``t_end/h`` should stay in the
    1e4-1e5 range; the pairwise [I] adds one O(steps log steps) FFT.  A
    solve refuses more than 1e6 steps.  h tau n < 2 (n the degree) is
    sufficient for the mean-field step, as [I] <= N; not for the pairwise.
    """

    h: float = 1e-2

    def __post_init__(self):
        if not 0.0 < self.h < math.inf:
            raise ValueError("step size h must be positive and finite")


def _format_value(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _escape(text: str) -> str:
    # Tokens are split on whitespace, so whitespace (and the escape character
    # itself) is percent-encoded; everything else stays readable.
    return "".join(quote(c) if c == "%" or c.isspace() else c for c in text)


def format_meta(meta: dict) -> str:
    """The meta comment line (no newline) recording ``meta`` as key=value tokens."""
    tokens = (f"{_escape(str(k))}={_escape(_format_value(v))}" for k, v in meta.items())
    return "# meta: " + " ".join(tokens)


def parse_meta(line: str) -> dict[str, str]:
    """Inverse of :func:`format_meta`; every value comes back as a string."""
    if not line.startswith(_META_TAG):
        raise ValueError(f"not a {_META_TAG!r} line: {line[:40]!r}")
    meta = {}
    for token in line[len(_META_TAG):].split():
        key, sep, value = token.partition("=")
        if sep:
            meta[unquote(key)] = unquote(value)
    return meta


def _cell(x) -> str:
    if not isinstance(x, str):
        return repr(float(x))
    if any(c in x for c in ',"\r\n'):
        return '"' + x.replace('"', '""') + '"'
    return x


def write_csv(path, meta: dict, header, rows) -> None:
    """The meta line (if ``meta`` is non-empty), the header, then ``rows`` of
    sequences; a ``str`` cell is written as text, any other as ``repr(float(x))``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if meta:
            fh.write(format_meta(meta) + "\n")
        fh.write(",".join(map(_cell, header)) + "\n")
        for row in rows:
            # All-number rows (every trajectory row) skip the per-cell type test.
            cells = map(_cell, row) if str in map(type, row) else map(repr, map(float, row))
            fh.write(",".join(cells) + "\n")


@dataclass
class Trajectory:
    """Uniformly gridded time series of node and ordered-link counts.

    ``extra`` carries diagnostic arrays (e.g. an independently integrated
    [SS] series) that are not part of the CSV contract.
    """

    t: np.ndarray
    S: np.ndarray
    I: np.ndarray
    R: np.ndarray
    SI: np.ndarray
    SS: np.ndarray
    meta: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        n = len(self.t)
        for name in SERIES_NAMES:
            if len(getattr(self, name)) != n:
                raise ValueError(f"series {name} length does not match the grid")

    def series(self, name: str) -> np.ndarray:
        if name not in SERIES_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def peak_infected(self) -> tuple[float, float]:
        """(time, value) of the prevalence maximum on the grid."""
        k = int(np.argmax(self.I))
        return float(self.t[k]), float(self.I[k])

    def final_size(self, num_nodes: float | None = None) -> float:
        """Nodes ever infected by the end of the grid, N - S(t_end); N defaults
        to S + I + R on the first row, which every trajectory conserves."""
        if num_nodes is None:
            num_nodes = self.S[0] + self.I[0] + self.R[0]
        return float(num_nodes) - float(self.S[-1])

    def to_csv(self, path, column_suffix: str = "") -> None:
        header = ["t"] + [name + column_suffix for name in SERIES_NAMES]
        cols = [self.t] + [getattr(self, name) for name in SERIES_NAMES]
        write_csv(path, self.meta, header, zip(*(c.tolist() for c in cols)))

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        meta: dict[str, str] = {}
        with open(path, "r", encoding="utf-8") as fh:
            line = fh.readline()
            if line.startswith(_META_TAG):
                meta = parse_meta(line)
                line = fh.readline()
            header = [h.strip() for h in line.strip().split(",")]
            with warnings.catch_warnings():  # an empty body is raised below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if not data.size:
            raise ValueError(f"{path}: no data rows")
        if data.shape[1] != len(header):
            raise ValueError(f"{path}: {data.shape[1]} columns, header has {len(header)}")
        by_name = {name: data[:, k] for k, name in enumerate(header)}
        if "t" not in by_name:
            raise ValueError(f"{path}: missing t column")

        def pick(name: str) -> np.ndarray:
            for candidate in (name, name + "_std"):
                if candidate in by_name:
                    return by_name[candidate]
            raise ValueError(f"{path}: missing column {name}")

        return cls(
            t=by_name["t"],
            S=pick("S"),
            I=pick("I"),
            R=pick("R"),
            SI=pick("SI"),
            SS=pick("SS"),
            meta=meta,
        )


class _SolveSetup:
    """What every deterministic solve shares: counts, step grid, law, meta, assembly.

    Everything comes from ``params`` and ``config`` (``SolverConfig()`` if
    None, which has already refused a bad step): I0 is
    ``params.initial_infected``, S0 = N - I0, and the grid is ``t = k h`` for
    ``k = 0..round(params.t_end/h)``, at most ``_MAX_STEPS`` steps.  The
    inputs are checked here for every solve, by the rule of its ``model``:
    I0 may not exceed N, and a pairwise model (a name ending in
    ``pairwise``) needs degree >= 2 and S0 > 0, where a mean-field one
    accepts S0 = 0.  Solvers may update or extend ``meta`` before
    :meth:`trajectory`.

    The law is put on the grid here for every solve: ``dist`` has its
    breakpoints on the nearest nodes (``meta["grid_snap"]`` notes any move),
    ``jump`` is the node of its point mass, if any (maybe past the grid), and
    ``window`` the last node of a bounded support, capped at ``steps``.
    """

    def __init__(self, model: str, params: EpidemicParams, *, num_nodes, degree, config):
        pairwise = model.endswith("pairwise")
        if pairwise and degree < 2:
            raise ValueError("pairwise model needs degree >= 2")
        if not (num_nodes > 0 and degree > 0):
            raise ValueError("degree and num_nodes must be positive")
        h = (config or SolverConfig()).h
        self.h = h
        self.N, self.n = float(num_nodes), float(degree)
        self.I0 = float(params.initial_infected)
        self.S0 = self.N - self.I0
        if self.S0 < 0.0 or (self.S0 == 0.0 and pairwise):
            raise ValueError(
                f"initial_infected={params.initial_infected} leaves no susceptible "
                f"among num_nodes={num_nodes}"
            )
        if params.t_end / h > _MAX_STEPS:
            raise ValueError(
                f"t_end/h = {params.t_end / h:.4g} steps exceeds the limit of {_MAX_STEPS} "
                "steps for a deterministic solve; increase the step size h"
            )
        self.steps = int(round(params.t_end / h))
        if self.steps < 1:
            raise ValueError("t_end must cover at least one step")
        self.dist, snap_notes = params.dist._on_grid(h)
        atom, location = self.dist.has_point_mass()
        self.jump = int(round(location / h)) if atom else None
        upper = self.dist.support_upper()
        self.window = min(self.steps, int(round(upper / h))) if math.isfinite(upper) else None
        self.meta = {
            "source": "solver",
            "model": model,
            "N": num_nodes,
            "n": degree,
            "tau": params.tau,
            "dist": self.dist.spec_string(),
            "I0": self.I0,
            "S0": self.S0,
            "h": h,
            "t_end": self.steps * h,
        }
        if snap_notes:
            self.meta["grid_snap"] = ";".join(snap_notes)

    def pair_state(self) -> list[float]:
        """[S, SS, I, SI] at t=0 with pairs at their mean-field values."""
        S0, I0, density = self.S0, self.I0, self.n / self.N
        return [S0, density * S0 * S0, I0, density * S0 * I0]

    def trajectory(self, S, I, SI=None, SS=None, extra=None) -> Trajectory:
        """R = N - S - I; absent pair series take the closure (n/N) S I, (n/N) S^2."""
        density = self.n / self.N
        if SI is None:
            SI, SS = density * S * I, density * S * S
        t = np.arange(self.steps + 1) * self.h
        return Trajectory(t, S, I, self.N - S - I, SI, SS, self.meta, extra or {})
