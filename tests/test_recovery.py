"""Distribution-level identities, closed forms vs quadrature, and sampling."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

import nmsir as nm

ALL = [
    nm.Exponential(2.0 / 3.0),
    nm.FixedDuration(1.5),
    nm.GammaErlang(3, 2.0 / 3.0),
    nm.UniformInterval(1.0, 2.0),
]
CONTINUOUS = [d for d in ALL if not d.has_point_mass()[0]]


def _quad_points(dist):
    # Help the adaptive quadrature across kinks and jumps of the survival.
    if isinstance(dist, nm.UniformInterval):
        return [dist.lower, dist.upper]
    if isinstance(dist, nm.FixedDuration):
        return [dist.sigma]
    return None


# -- pointwise closed-form examples -----------------------------------------


def test_survival_examples():
    assert nm.FixedDuration(1.5).survival(1.0) == 1.0
    assert nm.UniformInterval(1, 2).survival(2.5) == 0.0
    # Erlang survival series at stage_rate * age = 1
    assert nm.GammaErlang(3, 2.0 / 3.0).survival(0.5) == pytest.approx(
        0.9196986029286058, abs=1e-12
    )
    for dist in ALL:
        assert dist.survival(0.0) == 1.0


def test_survival_monotone_and_bounded():
    ages = np.linspace(0.0, 12.0, 400)
    for dist in ALL:
        xi = dist.survival(ages)
        assert np.all(xi >= 0.0) and np.all(xi <= 1.0)
        assert np.all(np.diff(xi) <= 1e-15)


def test_laplace_examples_frozen():
    # Values fixed by adaptive quadrature of f(a) e^(-tau a) to 1e-10.
    assert nm.Exponential(2.0 / 3.0).laplace_pdf(0.35) == pytest.approx(
        0.6557377049180327, abs=1e-10
    )
    assert nm.UniformInterval(1, 2).laplace_pdf(0.35) == pytest.approx(
        0.5945793883637255, abs=1e-10
    )
    for dist in ALL:
        assert dist.laplace_pdf(0.0) == pytest.approx(1.0, abs=1e-15)


def test_laplace_uniform_tiny_tau_series():
    dist = nm.UniformInterval(1, 2)
    assert dist.laplace_pdf(1e-13) == pytest.approx(1.0 - 1e-13 * 1.5, rel=1e-12)


@pytest.mark.parametrize("tau", [0.1, 0.35, 1.0, 5.0])
@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.kind)
def test_laplace_matches_quadrature(dist, tau):
    # Survival form, L = 1 - tau int xi(a) e^(-tau a) da (integration by
    # parts), which holds for the point mass too.
    upper = dist.support_upper()
    val, err = quad(
        lambda a: dist.survival(a) * math.exp(-tau * a),
        0.0,
        np.inf if math.isinf(upper) else upper,
        points=_quad_points(dist),
        epsabs=1e-12,
        limit=200,
    )
    assert dist.laplace_pdf(tau) == pytest.approx(1.0 - tau * val, abs=1e-8)


@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.kind)
def test_mean_equals_survival_integral(dist):
    upper = dist.support_upper()
    val, _ = quad(
        dist.survival,
        0.0,
        np.inf if math.isinf(upper) else upper,
        points=_quad_points(dist),
        epsabs=1e-12,
        limit=200,
    )
    assert dist.mean() == pytest.approx(val, abs=1e-8)


def test_moments_match_headline_table():
    assert nm.Exponential(2 / 3).mean() == pytest.approx(1.5)
    assert nm.Exponential(2 / 3).variance() == pytest.approx(2.25)
    assert nm.GammaErlang(3, 2 / 3).mean() == pytest.approx(1.5)
    assert nm.GammaErlang(3, 2 / 3).variance() == pytest.approx(0.75)
    assert nm.UniformInterval(1, 2).mean() == pytest.approx(1.5)
    assert nm.UniformInterval(1, 2).variance() == pytest.approx(1.0 / 12.0)
    assert nm.FixedDuration(1.5).mean() == 1.5
    assert nm.FixedDuration(1.5).variance() == 0.0


# -- argument and parameter validation ---------------------------------------


def test_rejects_negative_age_and_tau():
    for dist in ALL:
        with pytest.raises(ValueError):
            dist.survival(-0.1)
        with pytest.raises(ValueError):
            dist.laplace_pdf(-0.5)


def test_parameter_validation():
    with pytest.raises(ValueError):
        nm.Exponential(0.0)
    with pytest.raises(ValueError):
        nm.FixedDuration(-1.0)
    with pytest.raises(ValueError):
        nm.GammaErlang(0, 1.0)
    with pytest.raises(ValueError):
        nm.GammaErlang(2.5, 1.0)
    with pytest.raises(ValueError):
        nm.UniformInterval(0.0, 2.0)
    with pytest.raises(ValueError):
        nm.UniformInterval(2.0, 1.0)


NON_FINITE = (math.inf, math.nan)


@pytest.mark.parametrize("make", [
    nm.Exponential,
    nm.FixedDuration,
    lambda x: nm.GammaErlang(3, x),
    lambda x: nm.GammaErlang.from_shape_rate(3, x),
    lambda x: nm.GammaErlang(x, 1.0),
    lambda x: nm.UniformInterval(1.0, x),
    lambda x: nm.UniformInterval(x, 2.0),
], ids=["exp", "fixed", "gamma", "gamma-rate", "gamma-shape", "uniform-b", "uniform-a"])
def test_non_finite_parameters_rejected(make):
    for value in NON_FINITE:
        with pytest.raises(ValueError):
            make(value)


def test_has_point_mass():
    assert nm.FixedDuration(1.5).has_point_mass() == (True, 1.5)
    assert nm.Exponential(1.0).has_point_mass() == (False, None)
    assert nm.UniformInterval(1, 2).has_point_mass() == (False, None)


# -- spec-string parser -------------------------------------------------------


def test_parse_distribution_forms():
    d = nm.parse_distribution("exp:rate=0.6667")
    assert isinstance(d, nm.Exponential) and d.rate == 0.6667
    d = nm.parse_distribution("fixed:sigma=1.5")
    assert isinstance(d, nm.FixedDuration) and d.sigma == 1.5
    d = nm.parse_distribution("gamma:shape=3,rate=2")
    assert isinstance(d, nm.GammaErlang)
    assert d.shape == 3 and d.gamma == pytest.approx(2.0 / 3.0)
    assert d.rate == pytest.approx(2.0)
    d = nm.parse_distribution("uniform:a=1,b=2")
    assert isinstance(d, nm.UniformInterval) and (d.lower, d.upper) == (1.0, 2.0)


def test_parse_distribution_round_trip():
    for dist in ALL:
        again = nm.parse_distribution(dist.spec_string())
        assert again == dist


@pytest.mark.parametrize("make", [
    lambda: nm.Exponential(np.float64(0.5)),
    lambda: nm.FixedDuration(np.float64(1.5)),
    lambda: nm.GammaErlang(np.int64(3), np.float64(2.0 / 3.0)),
    lambda: nm.UniformInterval(*np.linspace(1.0, 2.0, 2)),
], ids=["exp", "fixed", "gamma", "uniform"])
def test_numpy_scalar_parameters_round_trip(make):
    # Parameters are stored as Python floats: no "np.float64(...)" in the
    # spec string, and scalar draws are floats.
    dist = make()
    assert "np." not in dist.spec_string()
    assert nm.parse_distribution(dist.spec_string()) == dist
    assert type(dist.sample(np.random.default_rng(1))) is float


@pytest.mark.parametrize(
    "bad",
    [
        "exp",
        "exp:rate",
        "exp:rate=-1",
        "exp:rate=0",
        "exp:rate=abc",
        "gamma:shape=2.5,rate=2",
        "gamma:shape=3",
        "uniform:a=2,b=1",
        "uniform:a=0,b=1",
        "fixed:sigma=0",
        "weibull:k=1",
        "exp:rate=1,extra=2",
        "exp:rate=inf",
        "exp:rate=nan",
        "fixed:sigma=inf",
        "gamma:shape=inf,rate=2",
        "gamma:shape=nan,rate=2",
        "gamma:shape=3,rate=inf",
        "uniform:a=1,b=inf",
        "uniform:a=nan,b=2",
        "gamma:shape=0,rate=2",
        "exp:rate=1,rate=2",
        "uniform:a=1,b=2,a=1.5",
    ],
)
def test_parse_distribution_rejects(bad):
    with pytest.raises(ValueError):
        nm.parse_distribution(bad)


# -- sampling ----------------------------------------------------------------


def test_fixed_sampling_degenerate():
    rng = np.random.default_rng(0)
    dist = nm.FixedDuration(1.5)
    assert dist.sample(rng) == 1.5
    assert np.all(dist.sample(rng, size=100) == 1.5)


def test_exponential_sample_mean_within_three_se():
    rng = np.random.default_rng(42)
    dist = nm.Exponential(2.0 / 3.0)
    draws = dist.sample(rng, size=1_000_000)
    se = math.sqrt(dist.variance() / draws.size)
    assert abs(draws.mean() - dist.mean()) < 3.0 * se


def test_uniform_sample_support_and_variance():
    rng = np.random.default_rng(7)
    draws = nm.UniformInterval(1, 2).sample(rng, size=1_000_000)
    assert draws.min() >= 1.0 and draws.max() <= 2.0
    assert draws.var() == pytest.approx(1.0 / 12.0, rel=5e-3)


def test_gamma_sample_moments():
    rng = np.random.default_rng(11)
    dist = nm.GammaErlang(3, 2.0 / 3.0)
    draws = dist.sample(rng, size=400_000)
    assert draws.mean() == pytest.approx(1.5, rel=5e-3)
    assert draws.var() == pytest.approx(0.75, rel=2e-2)


@pytest.mark.parametrize("dist", CONTINUOUS, ids=lambda d: d.kind)
def test_sampling_ks_below_one_percent_critical(dist):
    rng = np.random.default_rng(123)
    n = 100_000
    draws = np.asarray(dist.sample(rng, size=n), dtype=float)
    stat = stats.kstest(draws, lambda a: 1.0 - np.asarray(dist.survival(a))).statistic
    critical_1pct = 1.6276 / math.sqrt(n)
    assert stat < critical_1pct


@pytest.mark.parametrize("shape", [*range(1, 13), 127, 128, 129, 200])
def test_gamma_scalar_draw_equals_array_draw(shape):
    # A scalar draw is the sum of one array of stages, and equals, bit for
    # bit, the same stages drawn through the array path (np.sum's order
    # changes at 8 and again above 128).
    dist = nm.GammaErlang(shape, 0.7)
    for seed in range(20):
        scalar_rng, array_rng, vector_rng = (np.random.default_rng(seed) for _ in range(3))
        for _ in range(25):
            draw = dist.sample(scalar_rng)
            assert type(draw) is float
            assert draw == float(array_rng.exponential(1.0 / dist.rate, size=shape).sum())
            assert draw == dist.sample(vector_rng, size=1)[0]


@pytest.mark.parametrize("dist", [
    nm.Exponential(2.0 / 3.0),
    nm.FixedDuration(1.5),
    *(nm.GammaErlang(k, 0.7) for k in (1, 3, 7, 8, 9, 16, 130)),
], ids=lambda d: d.spec_string())
def test_periods_from_stages_equal_scalar_draws(dist):
    # Each period is K exponential stages of rate dist.rate (K = 0 for a fixed
    # duration, 1 for the exponential).  An array of n periods reads K * n
    # stages, period p summing stages p, n + p, ... in that order; a scalar
    # draw reads the next K stages and sums them as numpy does.
    k = {nm.FixedDuration: 0, nm.Exponential: 1}.get(type(dist), getattr(dist, "shape", None))
    scale = 1.0 / dist.rate if k else None
    n = 40
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        periods = dist.sample(rng, size=n)
        expected = np.full(n, dist.mean())
        if k:
            stages = ref.exponential(scale, size=(k, n))
            expected = stages[0]
            for row in stages[1:]:
                expected = expected + row
        np.testing.assert_array_equal(periods, expected)
        for _ in range(n):
            draw = dist.sample(rng)
            assert draw == (ref.exponential(scale, size=k).sum() if k else dist.mean())
        assert rng.bit_generator.state == ref.bit_generator.state


def test_uniform_draws_are_not_stages():
    # A uniform period is one rng.uniform word, in arrays as in scalars.
    dist = nm.UniformInterval(1.0, 2.0)
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(dist.sample(rng, size=40), ref.uniform(1.0, 2.0, size=40))
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.kind)
def test_stage_chain_survival_is_the_chain_formula(dist):
    # A law that calls itself a chain of K stages of rate r must have the
    # survival e^{-ra} sum_{j<K} (ra)^j / j! the stage history relies on.
    chain = dist._stage_chain()
    if dist.kind in ("exp", "gamma"):
        assert chain == (getattr(dist, "shape", 1), dist.rate)
        stages, rate = chain
        ages = np.linspace(0.0, 10.0, 101)
        chain_xi = np.exp(-rate * ages) * sum(
            (rate * ages) ** j / math.factorial(j) for j in range(stages)
        )
        np.testing.assert_allclose(dist.survival(ages), chain_xi, rtol=1e-13, atol=1e-300)
    else:
        assert chain is None


def test_on_grid_snaps_only_breakpoints():
    for dist in (nm.Exponential(2.0 / 3.0), nm.GammaErlang(3, 2.0 / 3.0)):
        assert dist._on_grid(0.01) == (dist, [])
    fixed, notes = nm.FixedDuration(1.5037)._on_grid(0.01)
    assert fixed.spec_string() == "fixed:sigma=1.5" and notes == ["sigma:1.5037->1.5"]
    uniform, notes = nm.UniformInterval(1.0, 2.0)._on_grid(0.01)
    assert uniform == nm.UniformInterval(1.0, 2.0) and notes == []
    with pytest.raises(ValueError, match="a=0.004 is below half a step"):
        nm.UniformInterval(0.004, 2.0)._on_grid(0.01)
    with pytest.raises(ValueError, match="collapsed after grid snapping"):
        nm.UniformInterval(1.0, 1.004)._on_grid(0.01)
