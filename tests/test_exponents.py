"""Closed-form thresholds and dimension bounds; pure arithmetic checks."""
import math

import numpy as np
import pytest

from concave_phase_lab.exponents import (KAPPA_INF, dim_bound_curve,
                                         dim_bound_lines, dim_bound_vertical,
                                         s_star_curve, s_star_lines,
                                         s_star_vertical, summary_dim_bound,
                                         summary_thresholds, threshold_lines,
                                         threshold_vertical)

TOL = 1e-12


def test_threshold_vertical_examples():
    assert abs(threshold_vertical(0.5, 1.0, 2.0) - 0.125) < TOL
    assert abs(threshold_vertical(1.0, 1.0, 2.0) - 0.25) < TOL
    assert abs(threshold_vertical(0.5, 1.0, 4.0) - 0.25) < TOL


def test_s_star_examples():
    assert abs(s_star_vertical(0.5, 1.0, 2.0) - 0.375) < TOL
    assert abs(s_star_curve(0.5, 1.0, 2.0) - 0.125) < TOL
    assert abs(s_star_lines(0.5, 1.0, 2.0) - 0.125) < TOL


def test_dim_bound_vertical_examples():
    for m in (0.3, 0.5, 0.7):
        assert abs(dim_bound_vertical(0.25, m) - 0.5) < TOL
    assert abs(dim_bound_vertical(0.3, 0.5) - 0.4) < TOL
    # s just above m/4: bound approaches 1
    assert dim_bound_vertical(0.125 + 1e-9, 0.5) > 1.0 - 1e-6


def test_dim_bound_vertical_domain():
    with pytest.raises(ValueError, match="out of theorem range"):
        dim_bound_vertical(0.1, 0.5)
    with pytest.raises(ValueError, match="out of theorem range"):
        dim_bound_vertical(0.5, 0.5)


def test_dim_bound_curve_examples():
    assert abs(dim_bound_curve(0.4, 0.5) - 0.4) < TOL
    assert abs(dim_bound_curve(0.5 - 1e-9, 0.5)) < 1e-8
    assert abs(dim_bound_curve(0.45, 0.25) - 0.4) < TOL


def test_lines_examples():
    assert abs(threshold_lines(0.5, 0.5) - 0.4375) < TOL
    assert abs(dim_bound_lines(0.45, 0.5, 0.5) - 5.0 / 6.0) < TOL


def test_lines_beta_zero_reduces_to_single_curve():
    for m in np.linspace(0.1, 0.9, 20):
        assert abs(threshold_lines(m, 0.0) - (0.5 - m / 4.0)) < TOL
        for s in np.linspace(0.5 - m / 4.0 + 1e-3, 0.5 - 1e-3, 20):
            assert abs(dim_bound_lines(s, m, 0.0) - dim_bound_curve(s, m)) < TOL


def test_summary_threshold_examples():
    assert abs(summary_thresholds(0.5, KAPPA_INF) - 0.125) < TOL
    assert abs(summary_thresholds(0.5, 1.0) - 0.375) < TOL
    assert abs(summary_thresholds(2.0, 1.0) - 0.25) < TOL


def test_summary_rejects_wave_exponent():
    with pytest.raises(ValueError):
        summary_thresholds(1.0, 1.0)


def test_summary_dim_bound_regimes():
    # m > 1: max{0, 1-2s, (1-2s)/(m kappa)}
    assert abs(summary_dim_bound(0.3, 2.0, 1.0) - 0.4) < TOL
    # m < 1, kappa finite
    assert abs(summary_dim_bound(0.4, 0.5, 1.0) - 0.4) < TOL
    # m < 1, kappa = infinity: vertical-branch formula
    assert abs(summary_dim_bound(0.3, 0.5, KAPPA_INF) - 0.4) < TOL
    with pytest.raises(ValueError, match="out of theorem range"):
        summary_dim_bound(0.1, 0.5, KAPPA_INF)


def test_branch_crossing_at_one_quarter():
    for m in np.linspace(0.05, 0.95, 19):
        first = 1.0 - 2.0 * 0.25
        second = 0.5 + (1.0 - 4.0 * 0.25) / (2.0 * (1.0 - m))
        assert abs(first - second) < TOL
        assert abs(dim_bound_vertical(0.25, m) - 0.5) < TOL


def test_dim_bounds_non_increasing_in_s():
    for m in (0.25, 0.5, 0.75):
        grid = np.linspace(m / 4.0 + 1e-6, 0.5 - 1e-6, 50)
        vals = [dim_bound_vertical(s, m) for s in grid]
        assert all(a >= b - TOL for a, b in zip(vals, vals[1:]))
        grid = np.linspace(0.5 - m / 4.0 + 1e-6, 0.5 - 1e-6, 50)
        vals = [dim_bound_curve(s, m) for s in grid]
        assert all(a >= b - TOL for a, b in zip(vals, vals[1:]))


def test_threshold_and_s_star_are_dual():
    # both branches: max(1/2 - a, 1/2 - b) = 1/2 - min(a, b)
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = rng.uniform(0.05, 1.0)
        alpha = rng.uniform(0.1, 1.0)
        q = rng.uniform(2.0, 6.0)
        total = threshold_vertical(m, alpha, q) + s_star_vertical(m, alpha, q)
        assert abs(total - 0.5) < TOL


def test_thresholds_non_decreasing_in_m():
    # concavity weakens dispersion: a flatter phase needs more smoothness
    for alpha, q in ((1.0, 2.0), (0.5, 2.0), (1.0, 4.0)):
        grid = np.linspace(0.05, 1.0, 40)
        vals = [threshold_vertical(m, alpha, q) for m in grid]
        assert all(a <= b + TOL for a, b in zip(vals, vals[1:]))


def test_kappa_infinity_is_a_distinct_marker():
    assert summary_thresholds(0.5, KAPPA_INF) == 0.125
    assert math.isinf(KAPPA_INF)
