"""Tests for two-moment distribution fitting and density evaluation."""

import math
import re

import numpy as np
import pytest

from pollwait import (
    DistKind,
    FittedDistribution,
    InvalidInput,
    density_at_zero,
    density_at_zero_two_moment_approx,
    fit_two_moments,
    sample_array,
)
from pollwait.fitting import _fitted_density_at_zero

from _helpers import law_density_at_zero, realized_moments


def test_kind_selection_by_scv():
    assert fit_two_moments(1.0, 0.0).kind is DistKind.DETERMINISTIC
    assert fit_two_moments(1.0, 1.0).kind is DistKind.EXPONENTIAL
    assert fit_two_moments(1.0, 2.5).kind is DistKind.HYPEREXPONENTIAL
    assert fit_two_moments(1.0, 0.5).kind is DistKind.MIXED_ERLANG


def test_round_trip_on_fixed_grid():
    scvs = (0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.77, 1.0, 1.5, 2.0, 3.0, 64.0)
    for mean in (0.01, 0.5, 1.0, 7.3, 1e4):
        for scv in scvs:
            got_mean, got_scv = realized_moments(fit_two_moments(mean, scv))
            assert math.isclose(got_mean, mean, rel_tol=1e-10, abs_tol=0.0)
            assert math.isclose(got_scv, scv, rel_tol=1e-10, abs_tol=1e-10)


def test_round_trip_randomized():
    rng = np.random.default_rng(61)
    for _ in range(500):
        mean = float(rng.uniform(0.05, 20.0))
        scv = float(rng.uniform(0.0, 8.0))
        got_mean, got_scv = realized_moments(fit_two_moments(mean, scv))
        assert math.isclose(got_mean, mean, rel_tol=1e-10, abs_tol=0.0)
        assert math.isclose(got_scv, scv, rel_tol=1e-10, abs_tol=1e-10)


def test_hyperexponential_branches_are_balanced():
    # Both branches carry half the mean: prob/rate1 == (1 - prob)/rate2.
    dist = fit_two_moments(3.0, 4.0)
    assert math.isclose(dist.prob / dist.rate1, 1.5, rel_tol=1e-12)
    assert math.isclose((1.0 - dist.prob) / dist.rate2, 1.5, rel_tol=1e-12)
    assert 0.5 < dist.prob < 1.0


def test_mixed_erlang_stage_counts():
    assert fit_two_moments(1.0, 0.99).shape == 2
    assert fit_two_moments(1.0, 0.5).shape == 2
    assert fit_two_moments(1.0, 0.35).shape == 3
    assert fit_two_moments(1.0, 0.25).shape == 4
    # 1/0.2 evaluates to 5.000000000000001; the fit must not jump to 6 stages.
    assert fit_two_moments(1.0, 0.2).shape == 5


def test_reciprocal_integer_scv_collapses_to_erlang():
    # scv == 1/k is matched by a pure k-stage Erlang: mixing weight ~ 0.
    for k in (2, 3, 4, 5, 8):
        dist = fit_two_moments(2.0, 1.0 / k)
        assert dist.shape == k
        assert abs(dist.prob) < 1e-6


def test_branch_boundary_is_continuous():
    # Slightly below scv = 1/2 the guarded ceiling keeps two stages with a
    # negligible mixing weight; a bit further down it steps to three stages
    # with weight near one.  Both sides are still (almost) pure two-stage
    # Erlangs and the moments stay exact.
    sliver = fit_two_moments(1.0, 0.5 - 1e-12)
    below = fit_two_moments(1.0, 0.5 - 1e-8)
    at = fit_two_moments(1.0, 0.5)
    assert at.shape == 2 and sliver.shape == 2 and below.shape == 3
    assert abs(sliver.prob) < 1e-9
    assert below.prob > 1.0 - 1e-3
    for dist, scv in ((sliver, 0.5 - 1e-12), (below, 0.5 - 1e-8), (at, 0.5)):
        got_mean, got_scv = realized_moments(dist)
        assert math.isclose(got_mean, 1.0, rel_tol=1e-10)
        assert math.isclose(got_scv, scv, rel_tol=1e-9, abs_tol=1e-9)
    assert density_at_zero(sliver) == 0.0


def test_density_at_zero_fitted_values():
    # scv 0.25 and 0.5 fit to Erlang mixtures with >= 2 stages in every
    # branch, so no mass arrives immediately.
    assert density_at_zero(fit_two_moments(1.0, 0.25)) == 0.0
    assert density_at_zero(fit_two_moments(1.0, 0.5)) == 0.0
    assert density_at_zero(fit_two_moments(1.0, 1.0)) == 1.0
    assert math.isclose(
        density_at_zero(fit_two_moments(1.0, 2.0)), 4.0 / 3.0, rel_tol=1e-12
    )
    assert math.isclose(
        density_at_zero(fit_two_moments(1.0, 3.0)), 1.5, rel_tol=1e-12
    )
    assert density_at_zero(fit_two_moments(1.0, 0.0)) == 0.0


def test_fitted_density_needs_no_fitted_law():
    # The density computed from the scv alone equals the one read from the
    # fitted law's parameters, bit for bit, on every branch of the fit, the
    # ends of the fitted range, and each 1/k boundary with its neighbours
    # one ulp away, where the Erlang shape steps.
    scvs = [0.0, 1e-15, 1e6, 0.7, *np.logspace(-15, 6, 85)]
    for boundary in (1.0, 0.5, 1.0 / 3.0, 0.2):
        scvs += [
            math.nextafter(boundary, 0.0),
            boundary,
            math.nextafter(boundary, 1.0),
        ]
    for scv in map(float, scvs):
        for mean in (1e-12, 0.37, 1.0, 2.5e8):
            dist = fit_two_moments(mean, scv)
            expected = law_density_at_zero(dist)
            assert _fitted_density_at_zero(scv) == expected, (mean, scv)
            assert density_at_zero(dist) == expected, (mean, scv)


def test_density_at_zero_single_stage_branch():
    # Two-stage fits with prob > 0 keep density from the one-stage branch.
    dist = fit_two_moments(1.0, 0.7)
    assert dist.shape == 2
    expected = dist.prob * (2.0 - dist.prob)
    assert density_at_zero(dist) == expected
    assert 0.0 < expected < 1.0


def test_density_handles_degenerate_single_stage_mixture():
    dist = FittedDistribution(
        DistKind.MIXED_ERLANG, 1.0, 1.0, prob=0.0, shape=1, rate=1.0
    )
    assert density_at_zero(dist) == 1.0


def test_density_is_scale_free():
    for scv in (0.3, 0.7, 1.0, 2.4):
        d1 = density_at_zero(fit_two_moments(1.0, scv))
        d2 = density_at_zero(fit_two_moments(123.0, scv))
        assert d1 == d2


def test_two_moment_rule_values():
    assert density_at_zero_two_moment_approx(0.25) == 0.25**4
    assert density_at_zero_two_moment_approx(0.5) == 0.5**4
    assert density_at_zero_two_moment_approx(0.0) == 0.0
    assert density_at_zero_two_moment_approx(1.0) == 1.0
    assert math.isclose(
        density_at_zero_two_moment_approx(2.0), 4.0 / 3.0, rel_tol=1e-15
    )
    assert math.isclose(density_at_zero_two_moment_approx(3.0), 1.5, rel_tol=1e-15)


def test_rule_agrees_exactly_with_fit_above_one():
    # For scv >= 1 the rule and the fitted hyperexponential are the same
    # closed form, so agreement is float exact.
    for scv in (1.0, 1.2, 2.0, 5.0, 40.0):
        fitted = density_at_zero(fit_two_moments(0.7, scv))
        assert fitted == density_at_zero_two_moment_approx(scv)


def test_sampling_matches_fitted_moments():
    rng = np.random.default_rng(7)
    n = 200_000
    for scv in (0.0, 0.4, 1.0, 3.0):
        dist = fit_two_moments(2.0, scv)
        draws = sample_array(dist, rng, n)
        assert draws.shape == (n,)
        assert (draws >= 0.0).all()
        mean_sigma = 2.0 * math.sqrt(max(scv, 1e-12) / n)
        assert abs(draws.mean() - 2.0) <= max(5.0 * mean_sigma, 1e-12)
        if scv > 0.0:
            got_scv = draws.var(ddof=1) / draws.mean() ** 2
            assert abs(got_scv - scv) <= 0.1 * scv


def test_deterministic_samples_are_constant():
    rng = np.random.default_rng(3)
    draws = sample_array(fit_two_moments(4.2, 0.0), rng, 100)
    assert (draws == 4.2).all()


def test_single_sample_is_python_float():
    rng = np.random.default_rng(5)
    value = sample_array(fit_two_moments(1.0, 1.0), rng, 1)[0]
    assert isinstance(value, float)
    assert value > 0.0


def test_invalid_targets_rejected():
    bad = (
        (0.0, 1.0, "mean"),
        (-1.0, 1.0, "mean"),
        (math.nan, 1.0, "mean"),
        (math.inf, 1.0, "mean"),
        (1.0, -0.1, "scv"),
        (1.0, math.nan, "scv"),
        (1.0, math.inf, "scv"),
    )
    for mean, scv, target in bad:
        with pytest.raises(InvalidInput, match=f"^{target} must be"):
            fit_two_moments(mean, scv)
    with pytest.raises(InvalidInput, match="scv must be >= 0 and finite"):
        density_at_zero_two_moment_approx(-0.5)


@pytest.mark.parametrize("scv", [1e-300, 5e-324, 1e-30, 1e16, 1e300])
def test_unfittable_scv_rejected(scv):
    # Past the ends of the range a fit would overflow, need an Erlang shape
    # numpy cannot draw, or lose the hyperexponential's rare branch and
    # with it half the mean.
    message = "scv must be 0 or in [1e-15, 1e+06] to be fitted, got " + repr(scv)
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        fit_two_moments(1.0, scv)


@pytest.mark.parametrize("scv", [1e-15, 1e-9, 1e3, 1e6])
def test_fit_holds_to_the_ends_of_its_range(scv):
    dist = fit_two_moments(2.0, scv)
    got_mean, got_scv = realized_moments(dist)
    assert math.isclose(got_mean, 2.0, rel_tol=1e-10)
    assert math.isclose(got_scv, scv, rel_tol=1e-10)
    draws = sample_array(dist, np.random.default_rng(1), 1000)
    assert (draws >= 0.0).all() and np.isfinite(draws).all()
    assert abs(draws.mean() - 2.0) <= 5.0 * 2.0 * math.sqrt(scv / draws.size)
