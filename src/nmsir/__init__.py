"""SIR epidemics on regular networks with arbitrary recovery-time laws.

Library layout:

* :mod:`nmsir.recovery`   -- infectious-period distributions
* :mod:`nmsir.network`    -- regular random graphs and edge-list I/O
* :mod:`nmsir.simulate`   -- exact stochastic simulation (first-passage percolation)
* :mod:`nmsir.solvers`    -- renewal-form mean-field and pairwise solvers
* :mod:`nmsir.reference`  -- closed-form special-case references, one per model (cross-checks)
* :mod:`nmsir.analysis`   -- reproduction numbers and final-size relations
* :mod:`nmsir.cli`        -- command-line harness (``nmsir`` entry point)
"""

from .analysis import (
    FinalSizeResult,
    ReproductionReport,
    final_size_meanfield,
    final_size_pairwise,
    reproduction_numbers,
)
from .network import (
    RegularGraph,
    generate_regular,
    load_edge_list,
    save_edge_list,
)
from .recovery import (
    Exponential,
    FixedDuration,
    GammaErlang,
    RecoveryDistribution,
    UniformInterval,
    parse_distribution,
)
from .reference import solve_reference_meanfield, solve_reference_pairwise
from .simulate import run_ensembles, run_single
from .solvers import (
    SolverError,
    StepContractionError,
    solve_meanfield,
    solve_pairwise,
)
from .trajectory import EpidemicParams, SolverConfig, Trajectory

__version__ = "0.1.0"

__all__ = [
    "EpidemicParams",
    "Exponential",
    "FinalSizeResult",
    "FixedDuration",
    "GammaErlang",
    "RegularGraph",
    "ReproductionReport",
    "RecoveryDistribution",
    "SolverConfig",
    "SolverError",
    "StepContractionError",
    "Trajectory",
    "UniformInterval",
    "final_size_meanfield",
    "final_size_pairwise",
    "generate_regular",
    "load_edge_list",
    "parse_distribution",
    "reproduction_numbers",
    "run_ensembles",
    "run_single",
    "save_edge_list",
    "solve_meanfield",
    "solve_pairwise",
    "solve_reference_meanfield",
    "solve_reference_pairwise",
]
