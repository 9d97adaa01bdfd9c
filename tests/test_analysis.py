"""Reproduction numbers and final-size roots against independent root finding."""

import math
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

import nmsir as nm

N, DEG, TAU = 1000, 15, 0.35


def test_reproduction_numbers_frozen_values():
    rep = nm.reproduction_numbers(TAU, DEG, N, 1000.0, nm.Exponential(2 / 3))
    assert rep.r0 == pytest.approx(7.875, abs=1e-12)
    assert rep.r0p == pytest.approx(4.8196721311475414, abs=1e-10)
    assert rep.laplace_at_tau == pytest.approx(0.6557377049180327, abs=1e-12)

    rep_g = nm.reproduction_numbers(TAU, DEG, N, 1000.0, nm.GammaErlang(3, 2 / 3))
    assert rep_g.r0p == pytest.approx(5.369927665353558, abs=1e-9)


def test_reproduction_numbers_zero_susceptibles():
    rep = nm.reproduction_numbers(TAU, DEG, N, 0.0, nm.Exponential(1.0))
    assert rep.r0 == 0.0
    assert rep.r0p == 0.0


def test_reproduction_numbers_zero_tau_row():
    rep = nm.reproduction_numbers(0.0, DEG, N, 1000.0, nm.Exponential(1.0))
    assert rep.laplace_at_tau == 1.0
    assert rep.r0p == 0.0
    assert rep.r0 == 0.0


def test_reproduction_numbers_validation():
    with pytest.raises(ValueError):
        nm.reproduction_numbers(-0.1, DEG, N, 100.0, nm.Exponential(1.0))
    with pytest.raises(ValueError):
        nm.reproduction_numbers(TAU, 1, N, 100.0, nm.Exponential(1.0))
    with pytest.raises(ValueError):
        nm.reproduction_numbers(TAU, DEG, N, -5.0, nm.Exponential(1.0))


# -- mean-field relation -------------------------------------------------------


def test_final_size_meanfield_no_outbreak_branch():
    assert nm.final_size_meanfield(0.0).s_inf == 1.0
    assert nm.final_size_meanfield(1.0).s_inf == 1.0  # tangency at s = 1
    assert nm.final_size_meanfield(0.63).branch == "no-outbreak"


def test_final_size_meanfield_frozen_root():
    res = nm.final_size_meanfield(7.875)
    # Oracle: brentq on ln(s) - r0 (s - 1); asymptotically s ~ e^(-r0).
    assert res.s_inf == pytest.approx(0.00038127201674598485, rel=1e-9)
    assert res.s_inf == pytest.approx(math.exp(-7.875), rel=0.05)
    assert res.residual < 1e-10
    assert res.branch == "outbreak"
    assert res.attack_rate == pytest.approx(1.0 - res.s_inf)


def test_final_size_meanfield_matches_brentq_oracle():
    for r0 in (1.2, 2.0, 3.7, 9.0, 30.0):
        oracle = brentq(
            lambda s: math.log(s) - r0 * (s - 1.0), 1e-300, 1 - 1e-12, xtol=1e-15
        )
        assert nm.final_size_meanfield(r0).s_inf == pytest.approx(oracle, rel=1e-8)


# -- pairwise relation ----------------------------------------------------------


def test_final_size_pairwise_threshold():
    assert nm.final_size_pairwise(0.99, DEG).s_inf == 1.0
    assert nm.final_size_pairwise(1.0, DEG).s_inf == 1.0
    assert nm.final_size_pairwise(1.01, DEG).s_inf < 1.0


def test_final_size_pairwise_frozen_root():
    res = nm.final_size_pairwise(4.8196721311475414, DEG)
    assert 1e-4 < res.s_inf < 1e-2  # bracket from the relation's geometry
    assert res.s_inf == pytest.approx(0.0018215114884990757, rel=1e-8)
    assert res.residual < 1e-10


def test_final_size_pairwise_matches_brentq_oracle():
    n = float(DEG)
    for r0p in (1.5, 3.0, 4.82, 9.5):
        oracle = brentq(
            lambda s: (n - 1) * (s ** (1 / n) - 1) - r0p * (s ** ((n - 1) / n) - 1),
            1e-30,
            1 - 1e-12,
            xtol=1e-18,
        )
        assert nm.final_size_pairwise(r0p, n).s_inf == pytest.approx(oracle, rel=1e-7)


def test_final_size_pairwise_out_of_range():
    with pytest.raises(ValueError):
        nm.final_size_pairwise(14.0, 15)
    with pytest.raises(ValueError):
        nm.final_size_pairwise(-1.0, 15)


def _is_last_bit_root(g, s):
    # g < 0 just below the root and g >= 0 from it on: no double in between.
    return g(math.nextafter(s, 0.0)) < 0.0 <= g(math.nextafter(s, 1.0))


def _meanfield_relation(r0):
    return lambda s: math.log(s) - r0 * (s - 1.0)


def _pairwise_relation(r0p, n):
    return lambda s: (n - 1.0) * math.expm1(math.log(s) / n) - r0p * math.expm1(
        math.log(s) * (n - 1.0) / n
    )


@pytest.mark.parametrize("r0", [30.0, 105.9, 140.0, 200.0, 700.0])
def test_final_size_meanfield_tiny_roots_to_the_last_bit(r0):
    # Roots near exp(-r0), far below a bracket that 200 halvings can close.
    res = nm.final_size_meanfield(r0)
    assert res.s_inf == pytest.approx(math.exp(-r0), rel=1e-12)
    assert _is_last_bit_root(_meanfield_relation(r0), res.s_inf)
    assert res.residual < 1e-10
    assert res.attack_rate == 1.0 - res.s_inf


def test_final_size_meanfield_subnormal_root():
    res = nm.final_size_meanfield(720.0)
    assert 0.0 < res.s_inf < sys.float_info.min
    assert res.s_inf == pytest.approx(math.exp(-720.0), rel=1e-8)
    assert _is_last_bit_root(_meanfield_relation(720.0), res.s_inf)


@pytest.mark.parametrize("r0", [744.5, 745.0, 800.0, 1e6, 1e300, math.inf])
def test_final_size_meanfield_root_below_smallest_double(r0):
    # g is still positive at the smallest double: the root rounds to zero.
    assert _meanfield_relation(r0)(math.ulp(0.0)) > 0.0
    res = nm.final_size_meanfield(r0)
    assert (res.s_inf, res.attack_rate, res.branch) == (0.0, 1.0, "outbreak")


def test_final_size_meanfield_never_raises_for_finite_r0():
    near_one = 1.0 + np.logspace(-16, -1, 60)
    for r0 in np.concatenate([np.linspace(0.0, 800.0, 801), np.logspace(-3, 308, 400), near_one]):
        res = nm.final_size_meanfield(float(r0))
        assert 0.0 <= res.s_inf <= 1.0
        if res.s_inf >= sys.float_info.min:
            assert res.residual < 1e-10, r0


@pytest.mark.parametrize("excess", [1e-11, 1e-13, 1e-15, 2.0**-52])
def test_final_size_roots_just_above_threshold(excess):
    # The outbreak root lies within 1e-12 of 1, above the default bracket:
    # s = 1 - 2 (r - 1) to first order (pairwise: 1 - 2n (r - 1) / (n - 2)).
    r = 1.0 + excess
    mf = nm.final_size_meanfield(r)
    assert mf.branch == "outbreak"
    assert abs(mf.s_inf - (1.0 - 2.0 * (r - 1.0))) < 1e-15
    pw = nm.final_size_pairwise(r, DEG)
    assert abs(pw.s_inf - (1.0 - 2.0 * DEG * (r - 1.0) / (DEG - 2.0))) < 1e-15


def test_final_size_relations_reject_nan():
    with pytest.raises(ValueError):
        nm.final_size_meanfield(math.nan)
    with pytest.raises(ValueError):
        nm.final_size_pairwise(math.nan, DEG)
    with pytest.raises(ValueError):
        nm.reproduction_numbers(math.nan, DEG, N, 100.0, nm.Exponential(1.0))


@pytest.mark.parametrize("r0p", [13.99999, 14.0 - 1e-9, math.nextafter(14.0, 0.0)])
def test_final_size_pairwise_near_degree_minus_one(r0p):
    # As r0p -> n - 1 the root falls like ((n-1-r0p)/(n-1))^n toward zero.
    res = nm.final_size_pairwise(r0p, DEG)
    assert 0.0 < res.s_inf < 1e-90
    assert res.s_inf == pytest.approx(((DEG - 1 - r0p) / (DEG - 1)) ** DEG, rel=1e-3)
    assert _is_last_bit_root(_pairwise_relation(r0p, float(DEG)), res.s_inf)
    assert res.residual < 1e-10


def test_final_size_pairwise_root_below_smallest_double():
    n = 100.0
    r0p = math.nextafter(n - 1.0, 0.0)
    assert _pairwise_relation(r0p, n)(math.ulp(0.0)) > 0.0
    assert nm.final_size_pairwise(r0p, n).s_inf == 0.0
    # Below the default bracket but still a normal double.
    res = nm.final_size_pairwise(98.91, n)
    assert sys.float_info.min < res.s_inf < 1e-300
    assert _is_last_bit_root(_pairwise_relation(98.91, n), res.s_inf)
    assert res.residual < 1e-10


def test_final_size_monotone_in_reproduction_number():
    rs = np.linspace(1.05, 9.0, 25)
    mf = [nm.final_size_meanfield(r).s_inf for r in rs]
    pw = [nm.final_size_pairwise(r, DEG).s_inf for r in rs]
    assert np.all(np.diff(mf) < 0)
    assert np.all(np.diff(pw) < 0)


def test_classical_limit_large_degree():
    for r in (1.5, 3.0, 7.875):
        s_pw = nm.final_size_pairwise(r, 1e6).s_inf
        s_mf = nm.final_size_meanfield(r).s_inf
        assert abs(s_pw - s_mf) < 1e-4


def test_residuals_below_tolerance_across_sweep():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = float(rng.uniform(1.01, 12.0))
        assert nm.final_size_meanfield(r).residual < 1e-10
        r0p = float(rng.uniform(1.01, 13.0))
        assert nm.final_size_pairwise(r0p, DEG).residual < 1e-10


def test_laplace_ordering_controls_attack_ordering():
    # At equal mean, wider recovery laws have larger Laplace transforms,
    # hence smaller r0p and smaller attack rates.
    dists = {
        "exp": nm.Exponential(2 / 3),
        "gamma": nm.GammaErlang(3, 2 / 3),
        "uniform": nm.UniformInterval(1, 2),
    }
    lap = {k: d.laplace_pdf(TAU) for k, d in dists.items()}
    assert lap["uniform"] < lap["gamma"] < lap["exp"]
    attack = {
        k: nm.final_size_pairwise(
            nm.reproduction_numbers(TAU, DEG, N, 995.0, d).r0p, DEG
        ).attack_rate
        for k, d in dists.items()
    }
    assert attack["uniform"] > attack["gamma"] > attack["exp"]
