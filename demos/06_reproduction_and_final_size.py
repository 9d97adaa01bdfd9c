"""Reproduction numbers and implicit final-size relations.

The mean-field number r0 depends on the recovery law only through its mean;
the pairwise number r0p depends on the whole law through the Laplace
transform of its density at the transmission rate.  Final sizes solve
implicit relations; here they are checked against the long-time limit of the
corresponding trajectories, and the large-degree limit of the pairwise
relation is shown to collapse onto the classical one.
"""

from nmsir import (
    EpidemicParams,
    Exponential,
    FixedDuration,
    GammaErlang,
    SolverConfig,
    UniformInterval,
    final_size_meanfield,
    final_size_pairwise,
    reproduction_numbers,
    solve_pairwise,
)

N, DEGREE, TAU, I0 = 1000, 15, 0.35, 5
LAWS = {
    "exponential": Exponential(2 / 3),
    "gamma": GammaErlang(shape=3, rate=2.0),
    "uniform": UniformInterval(1, 2),
    "fixed": FixedDuration(1.5),
}

print(f"{'law':<12} {'L[f](tau)':>10} {'r0':>7} {'r0p':>7} {'attack(thm)':>12} {'attack(traj)':>13}")
for name, dist in LAWS.items():
    rep = reproduction_numbers(TAU, DEGREE, N, N - I0, dist)
    thm = final_size_pairwise(rep.r0p, DEGREE)
    params = EpidemicParams(tau=TAU, dist=dist, initial_infected=I0, t_end=40.0)
    traj = solve_pairwise(
        params, num_nodes=N, degree=DEGREE, config=SolverConfig(h=0.01)
    )
    attack_traj = 1.0 - traj.S[-1] / (N - I0)
    print(
        f"{name:<12} {rep.laplace_at_tau:>10.6f} {rep.r0:>7.3f} {rep.r0p:>7.3f} "
        f"{thm.attack_rate:>12.5f} {attack_traj:>13.5f}"
    )

print("\nlarge-degree limit of the pairwise relation vs the classical relation:")
for r in (1.5, 3.0, 7.875):
    s_pw = final_size_pairwise(r, 1e6).s_inf
    s_mf = final_size_meanfield(r).s_inf
    print(f"  r={r:<6} s_inf pairwise(n=1e6)={s_pw:.8f}  classical={s_mf:.8f}")

print(
    "\nBelow the threshold (reproduction number <= 1) the only root is s = 1:"
)
print("  final_size_pairwise(0.8, 15) ->", final_size_pairwise(0.8, 15))
