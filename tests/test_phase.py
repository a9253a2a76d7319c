"""Band splits, decay envelopes, and phase-derivative lower bounds."""
import math

import numpy as np
import pytest

from concave_phase_lab.phase import (EnvelopeParams, check_kernel_envelope,
                                     envelope_J_curve, envelope_J_vertical,
                                     phase_derivative_min,
                                     sample_derivative_constants, split_vertical)
from concave_phase_lab.spectral import kernel_K

M_PSI2 = 0.7375356096845448


def test_envelope_params_validation():
    with pytest.raises(ValueError, match="scale"):
        EnvelopeParams.vertical(0.5, 0.5, 1.0, 2.0)
    with pytest.raises(ValueError, match="dispersion"):
        EnvelopeParams.vertical(4.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="measure dimension"):
        EnvelopeParams.vertical(4.0, 0.5, 1.5, 2.0)
    with pytest.raises(ValueError, match="integrability"):
        EnvelopeParams.vertical(4.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="epsilon"):
        EnvelopeParams.vertical(4.0, 0.5, 1.0, 2.0, eps=-0.1)


def test_envelope_params_critical_exponents():
    vert = EnvelopeParams.vertical(256.0, 0.5, 1.0, 2.0)
    assert vert.s_star == pytest.approx(0.375, abs=1e-15)
    assert vert.indicator_radius == pytest.approx(2.0 ** -6, rel=1e-14)
    curv = EnvelopeParams.curve(256.0, 0.5, 1.0, 2.0)
    assert curv.s_star == pytest.approx(0.125, abs=1e-15)


def test_envelope_vertical_values():
    params = EnvelopeParams.vertical(2.0 ** 8, 0.5, 1.0, 2.0, eps=0.0)
    assert envelope_J_vertical(params, 1.0) == pytest.approx(4.0, rel=1e-14)
    edge = params.indicator_radius
    at_edge = envelope_J_vertical(params, edge)
    assert at_edge >= 256.0
    assert at_edge == pytest.approx(512.0, rel=1e-14)
    # inside the indicator the tail is clamped at its edge value
    assert envelope_J_vertical(params, 0.0) == pytest.approx(at_edge, rel=1e-14)


def test_envelope_curve_values():
    params = EnvelopeParams.curve(2.0 ** 8, 0.5, 1.0, 2.0, eps=0.0)
    assert envelope_J_curve(params, 1.0) == pytest.approx(64.0, rel=1e-14)
    for lam in (4.0, 32.0, 1024.0):
        p = EnvelopeParams.curve(lam, 0.5, 1.0, 2.0, eps=0.0)
        assert envelope_J_curve(p, 1.0) == pytest.approx(lam ** 0.75, rel=1e-13)
    # x = 0.25 sits inside the indicator region (edge = 2^(-3/2)), so the
    # clamped tail contributes 2^(-9/8) on top of the indicator
    p6 = EnvelopeParams.curve(2.0 ** 6, 0.5, 1.0, 2.0, eps=0.0)
    assert 0.25 < p6.indicator_radius
    assert envelope_J_curve(p6, 0.25) == pytest.approx(64.0 * (1.0 + 2.0 ** -1.125), rel=1e-13)


def test_envelope_monotone_in_far_field():
    for make, env in ((EnvelopeParams.vertical, envelope_J_vertical),
                      (EnvelopeParams.curve, envelope_J_curve)):
        for lam in (16.0, 256.0):
            params = make(lam, 0.45, 0.8, 2.5)
            xs = np.geomspace(params.indicator_radius, 1.0, 60)
            vals = env(params, xs)
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) <= 1e-12)


def test_split_vertical_time_zero():
    params = EnvelopeParams.vertical(16.0, 0.5, 1.0, 2.0)
    v1, v2 = split_vertical(params, 0.3, 0.0)
    assert v1 is None and v2 == (0.5, 2.0)


def test_split_vertical_unit_boundary():
    params = EnvelopeParams.vertical(1.0, 0.5, 1.0, 2.0)
    v1, v2 = split_vertical(params, 1.0, 0.5)
    assert v1 == pytest.approx((0.5, 1.0), abs=1e-12)
    assert v2 == pytest.approx((1.0, 2.0), abs=1e-12)


def test_split_vertical_against_membership_scan():
    params = EnvelopeParams.vertical(2.0 ** 8, 0.5, 1.0, 2.0)
    for x, t in ((0.1, 0.5), (0.1, 1.0), (0.02, 0.3), (0.5, 0.9)):
        v1, v2 = split_vertical(params, x, t)
        xi = np.linspace(0.5, 2.0, 10_001)[1:-1]
        in_v1 = (2.0 * params.lam ** params.m * abs(t) * xi ** (params.m - 1.0)
                 >= params.lam ** (4 * params.s_star) * abs(x) ** (4 * params.alpha / params.q))
        if v1 is None:
            assert not in_v1.any()
        else:
            lo, hi = v1
            tol = 2e-4
            assert np.all(in_v1[xi < hi - tol] | (xi[xi < hi - tol] < lo))
            assert not in_v1[xi > hi + tol].any()
        # the two pieces tile the band
        left = v1 or (0.5, 0.5)
        right = v2 or (2.0, 2.0)
        assert left[0] == 0.5 and right[1] == 2.0
        if v1 is not None and v2 is not None:
            assert v1[1] == v2[0]


def test_split_vertical_degenerate_point():
    params = EnvelopeParams.vertical(16.0, 0.5, 1.0, 2.0)
    with pytest.raises(ValueError, match="degenerate point"):
        split_vertical(params, 0.0, 0.5)


def test_mean_value_inequality_on_grid():
    t = np.linspace(0.0, 1.0, 101)
    for kappa in (1.0, 1.5, 2.0, 3.0, 4.5):
        lhs = np.abs(t[:, None] ** kappa - t[None, :] ** kappa)
        rhs = kappa * np.abs(t[:, None] - t[None, :])
        assert np.all(lhs <= rhs + 1e-12)


def test_phase_derivative_time_zero_exact():
    params = EnvelopeParams.vertical(2.0 ** 8, 0.5, 1.0, 2.0)
    for x in (0.01, 0.3, -0.7):
        first, second = phase_derivative_min(params, "V2", x, 0.0)
        assert first == pytest.approx(params.lam * abs(x), rel=1e-14)
        assert second == 0.0


def test_phase_derivative_v2_bound_and_scan():
    params = EnvelopeParams.vertical(2.0 ** 8, 0.5, 1.0, 2.0)
    x, t = 0.1, 0.5
    v1, v2 = split_vertical(params, x, t)
    assert v1 is None
    first, _ = phase_derivative_min(params, "V2", x, t)
    assert first >= 0.25 * params.lam * abs(x)
    xi = np.linspace(v2[0], v2[1], 10_007)
    scan = np.min(np.abs(params.lam * x + params.m * params.lam ** params.m
                         * t * xi ** (params.m - 1.0)))
    assert first == pytest.approx(scan, rel=1e-6)


def test_phase_derivative_vanishing_inside_v2_is_zero():
    # phi'(xi) = 2048*(1 - sqrt(1.2345/xi)) vanishes at xi = 1.2345, inside
    # V2 = [0.5, 2]; a 10,000-node scan reported a false floor of 0.0220
    params = EnvelopeParams.vertical(4096.0, 0.5, 1.0, 2.0)
    x, t = 0.5, -64.0 * math.sqrt(1.2345)
    assert split_vertical(params, x, t) == (None, (0.5, 2.0))
    assert phase_derivative_min(params, "V2", x, t)[0] == 0.0


def test_phase_derivative_minima_match_dense_scans():
    # away from sign changes both minima sit at an end of the piece, so the
    # exact values are at most a dense scan's, and the scan comes close
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = rng.uniform(0.2, 0.9)
        params = EnvelopeParams.vertical(2.0 ** rng.integers(4, 13), m, 1.0, 2.0)
        x, t = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        for region, piece in zip(("V1", "V2"), split_vertical(params, x, t)):
            if piece is None:
                continue
            xi = np.linspace(*piece, 100_001)
            lam_m = params.lam ** m
            first = params.lam * x + m * lam_m * t * xi ** (m - 1.0)
            second = m * (m - 1.0) * lam_m * t * xi ** (m - 2.0)
            exact = phase_derivative_min(params, region, x, t)
            scans = (np.abs(first).min(), np.abs(second).min())
            for value, scan, f in zip(exact, scans, (first, second)):
                assert value <= scan
                assert scan - value <= 1e-4 * np.abs(f).max()


def test_phase_derivative_empty_region():
    params = EnvelopeParams.vertical(2.0 ** 8, 0.5, 1.0, 2.0)
    with pytest.raises(ValueError, match="empty region"):
        phase_derivative_min(params, "V1", 0.1, 0.5)
    with pytest.raises(ValueError, match="region must be"):
        phase_derivative_min(params, "V3", 0.1, 0.5)


def test_kernel_envelope_origin_sanity():
    lam = 2.0 ** 6
    params = EnvelopeParams.vertical(lam, 0.5, 1.0, 2.0)
    ratio = abs(kernel_K(lam, 0.5, 0.0, 0.0)) / envelope_J_vertical(params, 0.0)
    assert ratio <= M_PSI2
    assert ratio >= 0.25 * M_PSI2


def test_kernel_envelope_report_smoke():
    report = check_kernel_envelope("vertical", 0.5, 1.0, 2.0,
                                   [2.0 ** 4, 2.0 ** 5, 2.0 ** 6], grid_n=16)
    assert report.variant == "vertical"
    assert len(report.sup_ratios) == 3
    assert all(s > 0 and math.isfinite(s) for s in report.sup_ratios)
    assert report.failed_points == (0, 0, 0)
    # boundedness claim: the sup-ratio must not grow with the scale
    assert report.fit.slope < 0.05
    with pytest.raises(ValueError, match="variant"):
        check_kernel_envelope("diagonal", 0.5, 1.0, 2.0, [4.0, 8.0])


def test_sample_derivative_constants_smoke():
    sample = sample_derivative_constants(count=12, seed=11)
    assert len(sample.configs) == 12
    assert all(c > 0 for c in sample.c_first)
    assert all(c > 0 for c in sample.c_second)
    again = sample_derivative_constants(count=12, seed=11)
    assert sample.c_first == again.c_first
    assert sample.c_second == again.c_second
