"""Solving the deterministic models for any recovery law.

The pairwise model tracks nodes and links ([S], [I], [SI], [SS]); the
mean-field model tracks nodes only.  For a general infectious-period law both
become renewal-type systems whose memory kernel is the survival function;
this demo solves them for all four laws and prints the headline quantities.
The survivor ratio U = [SS]/[S]^(2(n-1)/n) is conserved along pairwise
trajectories, which the solver exploits (and the demo verifies).
"""

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
)

N, DEGREE = 1000, 15
LAWS = {
    "exponential": Exponential(2 / 3),
    "gamma": GammaErlang(shape=3, rate=2.0),
    "uniform": UniformInterval(1, 2),
    "fixed": FixedDuration(1.5),
}

config = SolverConfig(h=0.01)
print(f"{'law':<12} {'peak [I] pw':>11} {'t_peak':>7} {'final pw':>9} {'final mf':>9}")
for name, dist in LAWS.items():
    params = EpidemicParams(tau=0.35, dist=dist, initial_infected=5, t_end=25.0)
    pw = solve_pairwise(params, num_nodes=N, degree=DEGREE, config=config)
    mf = solve_meanfield(params, num_nodes=N, degree=DEGREE, config=config)
    t_peak, peak = pw.peak_infected()
    print(
        f"{name:<12} {peak:>11.1f} {t_peak:>7.2f} "
        f"{pw.final_size(N):>9.2f} {mf.final_size(N):>9.2f}"
    )

    # Conserved ratio: exact by construction; integrating [SS] as its own
    # equation instead drifts at the O(h^2) level (about 1e-3 at h = 0.01,
    # 1e-5 at h = 1e-3).
    expo = 2.0 * (DEGREE - 1) / DEGREE
    u = pw.SS / pw.S**expo
    u_indep = pw.extra["SS_independent"] / pw.S**expo
    assert np.max(np.abs(u / u[0] - 1)) < 1e-12
    assert np.max(np.abs(u_indep / u_indep[0] - 1)) < 5e-3

print(
    "\nNote the ordering of the final sizes: at equal mean infectious period,"
    "\nsmaller variance gives the larger outbreak (uniform > gamma > exponential),"
    "\nand the mean-field model overshoots the pairwise prediction throughout."
)
