"""Cross-validating the generic solvers against closed-form special cases.

For particular recovery laws the renewal systems collapse to ODEs or DDEs:
exponential gives the classical Markovian equations, a fixed period a
discrete-delay system, an Erlang period a stage chain, and a uniform period a
distributed-delay system.  ``solve_reference_pairwise`` and
``solve_reference_meanfield`` integrate that system independently with RK4
for whichever law they are given; each is compared with the generic renewal
solver of its model in the sup norm.
"""

import time

import numpy as np

from nmsir import (
    EpidemicParams,
    Exponential,
    FixedDuration,
    GammaErlang,
    SolverConfig,
    UniformInterval,
    solve_meanfield,
    solve_pairwise,
    solve_reference_meanfield,
    solve_reference_pairwise,
)

N, DEGREE, H = 1000, 15, 1e-3

LAWS = [
    ("exponential", Exponential(2 / 3)),
    ("fixed", FixedDuration(1.5)),
    ("gamma", GammaErlang(shape=3, rate=2.0)),
    ("uniform", UniformInterval(1, 2)),
]
MODELS = [
    ("pairwise", solve_pairwise, solve_reference_pairwise),
    ("mean-field", solve_meanfield, solve_reference_meanfield),
]

print(f"step size h={H}; comparing [I](t) over t in [0, 25]")
for model, generic_solve, reference in MODELS:
    for name, dist in LAWS:
        params = EpidemicParams(tau=0.35, dist=dist, initial_infected=5, t_end=25.0)
        start = time.perf_counter()
        generic = generic_solve(params, num_nodes=N, degree=DEGREE, config=SolverConfig(h=H))
        ref = reference(params, num_nodes=N, degree=DEGREE, config=SolverConfig(h=H))
        elapsed = time.perf_counter() - start
        rel = np.max(np.abs(generic.I - ref.I)) / np.max(ref.I)
        print(
            f"{model:<10} {name:<12} rel sup-norm difference {rel:.2e}"
            f"   ({elapsed:.1f}s both solves)"
        )

print(
    "\nThe gamma case doubles as a check of the stage-resolved link equations:"
    "\nthe chain is built from per-stage loss terms, and its aggregate matches"
    "\nthe general renewal solution with the Erlang survival kernel."
)
