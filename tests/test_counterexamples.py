"""Extremal data, matching profiles, and selector rules."""
import math

import numpy as np
import pytest

from concave_phase_lab.counterexamples import (MatchedPoint, _band_residual, cantor_data,
                                               cantor_selectors, h_N_eval, h_N_invert, knapp_curve,
                                               knapp_vertical_spatial,
                                               knapp_vertical_temporal,
                                               matched_point_curve, taylor_coeffs)
from concave_phase_lab.geometry import cantor_level
from concave_phase_lab.spectral import FourierDatum, propagate

M_PSI = 0.905175241828407


def test_taylor_coeffs_examples():
    assert taylor_coeffs(2.0, 4).coefficients == (1.0, 2.0, 1.0, 0.0)
    assert taylor_coeffs(1.0, 3).coefficients == (1.0, 1.0, 0.0)
    assert taylor_coeffs(1.5, 3).coefficients == (1.0, 1.5, 0.375)
    with pytest.raises(ValueError, match="kappa"):
        taylor_coeffs(0.0, 3)
    with pytest.raises(ValueError, match="order"):
        taylor_coeffs(2.0, 0)


def test_h_profile_linear_is_identity():
    coeffs = taylor_coeffs(1.0, 3)
    tau = np.linspace(0.0, 0.2, 21)
    assert np.allclose(h_N_eval(tau, coeffs), tau, atol=1e-15)


def test_h_profile_quadratic_closed_form():
    coeffs = taylor_coeffs(2.0, 3)
    tau = np.linspace(0.0, 0.1, 31)
    assert np.allclose(h_N_eval(tau, coeffs), tau + tau ** 2, atol=1e-15)
    # invert against the quadratic formula
    for x in (1e-6, 1e-4, 5e-4):
        got = h_N_invert(x, coeffs, 1e-2)
        exact = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * x))
        assert got == pytest.approx(exact, abs=1e-11)


def test_h_profile_round_trip():
    coeffs = taylor_coeffs(2.5, 4)
    tau_max = 5e-3
    top = h_N_eval(tau_max, coeffs)
    for x in np.linspace(0.0, top, 9):
        tau = h_N_invert(float(x), coeffs, tau_max)
        assert h_N_eval(tau, coeffs) == pytest.approx(float(x), abs=1e-10)


def test_h_profile_invert_rejects():
    coeffs = taylor_coeffs(2.0, 3)
    with pytest.raises(ValueError, match="out of range"):
        h_N_invert(1.0, coeffs, 1e-3)
    with pytest.raises(ValueError, match="tau_max"):
        h_N_invert(1e-4, coeffs, 0.0)
    # concave profile turns over away from 0: inversion must refuse
    flat = taylor_coeffs(0.5, 3)
    with pytest.raises(ArithmeticError, match="not increasing"):
        h_N_invert(0.1, flat, 2.0)


def test_temporal_datum_support_and_rejects():
    datum = knapp_vertical_temporal(16.0, 0.5)
    lo, hi = datum.support
    assert lo == pytest.approx(-224.0, rel=1e-12)
    assert hi == pytest.approx(-128.0, rel=1e-12)
    with pytest.raises(ValueError, match="degenerate support"):
        knapp_vertical_temporal(1.5, 0.5)
    # just above the hard floor the band still straddles 0
    with pytest.raises(ValueError, match="contains 0"):
        knapp_vertical_temporal(2.0, 0.5)


def test_spatial_datum_support_and_mass():
    datum = knapp_vertical_spatial(2.0)
    assert datum.support == pytest.approx((1.0, 4.0), rel=1e-14)
    u0 = propagate(datum, 0.5, 0.0, 0.0)
    assert abs(u0) == pytest.approx(2.0 * M_PSI / (2.0 * math.pi), rel=1e-8)
    with pytest.raises(ValueError, match="scale"):
        knapp_vertical_spatial(0.5)


def test_curve_datum_modulus_matches_plain_bump():
    lam = 2.0 ** 6
    datum = knapp_curve(lam, 0.5, 2.0, 1.0)
    plain = FourierDatum(amplitude=1.0 / lam, scale=1.0 / lam)
    xi = np.linspace(lam / 2, 2 * lam, 201)
    assert np.allclose(np.abs(datum.fourier_transform(xi)),
                       np.abs(plain.fourier_transform(xi)), atol=1e-15)
    assert datum.linear_phase == pytest.approx(2.0 ** -2)
    pure = knapp_curve(lam, 0.5, 2.0, 0.0)
    assert pure.linear_phase == 0.0
    assert pure.fractional_phase == -0.5


def test_curve_datum_validation():
    with pytest.raises(ValueError, match="scale"):
        knapp_curve(0.5, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="dispersion"):
        knapp_curve(4.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="steepness"):
        knapp_curve(4.0, 0.5, 0.5, 1.0)
    with pytest.raises(ValueError, match="theta"):
        knapp_curve(4.0, 0.5, 1.0, -1.0)


def test_matched_point_at_origin():
    point, residual = matched_point_curve(0.0, 2.0 ** 8, 0.5, 1.0)
    assert residual <= 1e-6
    assert point.tau <= 1e-9
    assert point.t == pytest.approx(0.5, abs=1e-9)


def test_matched_point_mid_window():
    lam = 2.0 ** 8
    x = lam ** -0.5 / 200.0
    point, residual = matched_point_curve(x, lam, 0.5, 1.0)
    assert point.tau == pytest.approx(x, abs=1e-11)   # kappa = 1: profile is the identity
    assert point.t == pytest.approx(0.5 + x, abs=1e-11)
    assert point.theta == 1.0 and point.lam == lam
    assert residual <= 0.5
    assert residual == pytest.approx(lam ** 0.5 * x * 2.0 ** 0.5, rel=1e-3)


def test_matched_residual_grows_with_x():
    lam = 2.0 ** 6
    xs = np.linspace(0.0, lam ** -0.5 / 150.0, 8)
    residuals = [matched_point_curve(float(x), lam, 0.5, 1.0)[1] for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] <= 0.5


def test_band_residual_matches_brute_force():
    # max over [1/2, 2] of |a*v + b*v^m| against 10^6 nodes: random signs and
    # sizes, and concave cases built with the maximum at an interior v*
    rng = np.random.default_rng(29)
    v = np.linspace(0.5, 2.0, 1_000_001)
    cases = [(rng.normal() * 10.0 ** rng.uniform(-3, 2), 10.0 ** rng.uniform(-3, 2),
              rng.uniform(0.1, 0.9)) for _ in range(12)]
    for _ in range(12):
        m, b = rng.uniform(0.1, 0.9), 10.0 ** rng.uniform(-3, 2)
        v_star = rng.uniform(0.6, 1.9)                       # f'(v_star) = 0
        cases.append((-b * m * v_star ** (m - 1.0), b, m))
    cases += [(0.0, 0.0, 0.5), (-1.0, 0.0, 0.5), (3.0, 2.0, 0.5)]
    interior = 0
    for a, b, m in cases:
        f = np.abs(a * v + b * v ** m)
        brute = f.max()
        interior += 0 < f.argmax() < len(v) - 1
        exact = _band_residual(a, b, m)
        assert brute <= exact * (1 + 1e-15)
        assert exact - brute <= 1e-10 * max(exact, 1e-300)
    assert interior >= 12


def test_matched_point_residual_matches_brute_force():
    v = np.linspace(0.5, 2.0, 1_000_001)
    for lam, kappa in ((2.0 ** 8, 1.0), (2.0 ** 6, 2.0), (2.0 ** 10, 1.5)):
        for x in np.linspace(0.0, 0.9, 5) * h_N_eval(
                lam ** -0.5 / 100.0, taylor_coeffs(kappa, 3)):
            point, residual = matched_point_curve(float(x), lam, 0.5, kappa)
            a = lam * (x - point.t ** kappa + 2.0 ** (-kappa))
            brute = np.abs(a * v + lam ** 0.5 * point.tau * v ** 0.5).max()
            assert residual == pytest.approx(brute, rel=1e-12, abs=1e-15)


def test_matched_point_phase_mismatch():
    # enormous direction slope amplifies the truncation tail past the cap
    theta = 1e12
    coeffs_top = h_N_eval(4.0 ** -0.51 / 100.0, taylor_coeffs(2.5, 3))
    x = theta * coeffs_top * 0.999
    with pytest.raises(ArithmeticError, match="phase mismatch"):
        matched_point_curve(x, 4.0, 0.51, 2.5, theta=theta)


def test_matched_point_validation():
    with pytest.raises(ValueError, match="matching window"):
        matched_point_curve(-0.1, 4.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="theta"):
        matched_point_curve(0.0, 4.0, 0.5, 1.0, theta=0.0)
    with pytest.raises(ValueError, match="out of range"):
        matched_point_curve(1.0, 2.0 ** 8, 0.5, 1.0)


def test_cantor_data_support_scaling():
    datum = cantor_data(64.0, 0.5)
    assert datum.support == pytest.approx((2048.0, 8192.0), rel=1e-12)
    assert datum.fractional_phase == -1.0 and datum.m == 0.5
    with pytest.raises(ValueError, match="scale"):
        cantor_data(0.5, 0.5)
    with pytest.raises(ValueError, match="dispersion"):
        cantor_data(64.0, 1.5)


def test_cantor_selectors_examples():
    prefractal = cantor_level(1.0 / 3.0, 2)
    point = cantor_selectors(0.9, prefractal)
    assert point.theta == pytest.approx(1.0, abs=1e-12)
    assert point.tau == pytest.approx(0.1, abs=1e-12)
    assert point.t == pytest.approx(0.9, abs=1e-12)
    assert point.lam == pytest.approx(9.0, rel=1e-12)
    endpoint = cantor_selectors(7.0 / 9.0, prefractal)
    assert endpoint.tau == pytest.approx(0.0, abs=1e-12)
    assert endpoint.t == pytest.approx(1.0, abs=1e-12)


def test_cantor_selectors_sweep():
    # at r = 0.001 the level-5 gaps, about 1e-12, are within the snap of the
    # components on both sides: each point must still map to its own
    for ratio, level in ((1.0 / 3.0, 3), (0.001, 5)):
        prefractal = cantor_level(ratio, level)
        rk = ratio ** level
        for lo, hi in prefractal.intervals:
            if hi <= 0.5:
                continue
            for x in np.linspace(max(lo, 0.5 + 1e-9), hi, 7):
                point = cantor_selectors(float(x), prefractal)
                assert point.theta == hi
                assert abs(point.x - point.theta) <= rk + 1e-12
                assert 0.0 <= point.tau <= 2.0 * rk + 1e-12
                assert point.t == pytest.approx(1.0 - point.tau, abs=1e-15)


def test_cantor_selectors_rejects():
    prefractal = cantor_level(1.0 / 3.0, 2)
    with pytest.raises(ValueError, match="not in prefractal window"):
        cantor_selectors(0.3, prefractal)
    with pytest.raises(ValueError, match="not in prefractal window"):
        cantor_selectors(0.85, prefractal)   # gap between components


def _cantor_selectors_scan(x, cantor):
    """Reference for ``cantor_selectors``: the first component within snap of x."""
    snap = 1e-12
    if not 0.5 < x < 1.0 + snap:
        raise ValueError(f"not in prefractal window: x={x} outside (1/2, 1)")
    for lo, hi in cantor.intervals:
        if lo - snap <= x <= hi + snap:
            tau = (hi - x) / hi
            return MatchedPoint(x=float(x), tau=float(tau), theta=float(hi),
                                lam=cantor.ratio ** (-cantor.level), t=1.0 - float(tau))
    raise ValueError(f"not in prefractal window: x={x} misses every component")


def _selection(select, x, cantor):
    try:
        return select(x, cantor)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("ratio", [0.2, 0.3, 0.45])
def test_cantor_selectors_bisection_matches_the_scan(ratio):
    # midpoints, component ends -/+ snap/2 (inside the snap) and -/+ 2*snap
    # (outside it), and points outside the window, up to level 10
    snap = 1e-12
    outcomes = {"point": 0, "error": 0}
    for level in range(11):
        prefractal = cantor_level(ratio, level)
        xs = [0.3, 0.5, 0.5 + snap / 2, 1.0 + snap / 2, 1.0 + snap, 1.2]
        for lo, hi in prefractal.intervals:
            if hi >= 0.5:
                xs += [0.5 * (lo + hi), lo - 2 * snap, lo - snap / 2, lo + snap / 2,
                       hi - snap / 2, hi + snap / 2, hi + 2 * snap]
        for x in xs:
            expected = _selection(_cantor_selectors_scan, x, prefractal)
            assert _selection(cantor_selectors, x, prefractal) == expected
            outcomes["error" if isinstance(expected, str) else "point"] += 1
    assert outcomes["point"] > 0 and outcomes["error"] > 0
