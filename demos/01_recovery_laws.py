"""Tour of the infectious-period laws.

Builds the four recovery distributions used throughout the package (all with
mean 3/2 except where noted), prints their moments and Laplace transforms,
and checks sampling against the closed-form moments.
"""

import numpy as np

from nmsir import (
    Exponential,
    FixedDuration,
    GammaErlang,
    UniformInterval,
    parse_distribution,
)

TAU = 0.35

laws = {
    "exponential": Exponential(2 / 3),
    "fixed": FixedDuration(1.5),
    "gamma (Erlang K=3)": GammaErlang(3, 2 / 3),
    "uniform [1,2]": UniformInterval(1, 2),
}

print(f"{'law':<20} {'mean':>6} {'variance':>9} {'L[f](0.35)':>11} {'spec string':>22}")
for name, dist in laws.items():
    print(
        f"{name:<20} {dist.mean():>6.3f} {dist.variance():>9.4f} "
        f"{dist.laplace_pdf(TAU):>11.6f} {dist.spec_string():>22}"
    )

# Same mean, decreasing variance -> decreasing Laplace transform at tau > 0.
# That ordering is what drives "smaller variance, larger outbreak".

print("\nsampling check (200k draws each):")
rng = np.random.default_rng(0)
for name, dist in laws.items():
    draws = np.atleast_1d(dist.sample(rng, size=200_000)).astype(float)
    print(
        f"{name:<20} sample mean {draws.mean():.4f} (exact {dist.mean():.4f}), "
        f"sample var {draws.var():.4f} (exact {dist.variance():.4f})"
    )

# The fixed law is a point mass: its survival drops from 1 to 0 at sigma, and
# consumers treat that atom explicitly through has_point_mass().
fixed = laws["fixed"]
atom, location = fixed.has_point_mass()
print(f"\nfixed law point mass: {atom} at sigma={location}")
print("survival just before/after sigma:", fixed.survival(1.499), fixed.survival(1.5))

# Spec strings round-trip through the parser used by the CLI and configs.
for dist in laws.values():
    assert parse_distribution(dist.spec_string()) == dist
print("spec strings round-trip OK")
