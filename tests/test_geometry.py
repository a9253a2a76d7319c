"""Curves, fractal measures, Cantor prefractals, coverings, bilinear forms."""
import json
import math

import numpy as np
import pytest

from concave_phase_lab.geometry import (AlphaMeasure, Curve, bilinear_form_check,
                                        cantor_level, covering_number, curve_eval,
                                        frostman_bound, frostman_constant,
                                        lq_mu_norm, minkowski_dimension)


def test_curve_eval_examples():
    assert curve_eval(Curve.power(theta=1.0, kappa=2.0), 0.5, 0.1) == pytest.approx(0.49, abs=1e-15)
    assert curve_eval(Curve.vertical(), 0.37, 0.9) == 0.37


def test_curve_eval_vectorized():
    t = np.linspace(0.0, 1.0, 11)
    out = curve_eval(Curve.power(theta=2.0, kappa=1.0), 0.0, t)
    assert np.allclose(out, -2.0 * t)


def test_frostman_constants():
    assert frostman_constant(AlphaMeasure(1.0)) == pytest.approx(2.0, abs=1e-9)
    half = frostman_constant(AlphaMeasure(0.5))
    assert half <= frostman_bound(0.5)
    # centered family alone gives exactly 2
    centered = frostman_constant(AlphaMeasure(0.5), center_grid=np.array([0.0]))
    assert centered == pytest.approx(2.0, abs=1e-9)


def test_lq_mu_norm_closed_forms():
    edges = np.linspace(0.0, 1.0, 4097)
    mids = 0.5 * (edges[:-1] + edges[1:])
    ones = np.ones_like(mids)
    assert lq_mu_norm(ones, AlphaMeasure(1.0), 2.0, edges) == pytest.approx(1.0, abs=1e-12)
    for alpha, q, c in ((0.5, 2.0, 3.0), (1.0, 4.0, 0.2)):
        val = lq_mu_norm(c * ones, AlphaMeasure(alpha), q, edges)
        assert val == pytest.approx(c * (1.0 / alpha) ** (1.0 / q), abs=1e-12)
    fine = np.linspace(0.0, 1.0, 20001)
    lin = lq_mu_norm(0.5 * (fine[:-1] + fine[1:]), AlphaMeasure(1.0), 2.0, fine)
    assert lin == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-6)


def test_lq_mu_norm_per_cell_values_exact():
    edges = np.array([0.0, 0.25, 0.5, 1.0])
    vals = np.array([1.0, 2.0, 3.0])
    mu = AlphaMeasure(1.0)
    expected = (1.0 * 0.25 + 4.0 * 0.25 + 9.0 * 0.5) ** 0.5
    assert lq_mu_norm(vals, mu, 2.0, edges=edges) == pytest.approx(expected, abs=1e-14)


def test_cantor_level_examples():
    one = cantor_level(1.0 / 3.0, 1)
    assert len(one.intervals) == 2
    assert one.intervals[0] == pytest.approx((0.0, 1.0 / 3.0), abs=1e-15)
    assert one.intervals[1] == pytest.approx((2.0 / 3.0, 1.0), abs=1e-15)
    two = cantor_level(1.0 / 3.0, 2)
    assert len(two.intervals) == 4
    assert two.intervals[0] == pytest.approx((0.0, 1.0 / 9.0))
    assert two.intervals[-1] == pytest.approx((8.0 / 9.0, 1.0))
    three = cantor_level(0.25, 3)
    assert len(three.intervals) == 8
    lengths = [hi - lo for lo, hi in three.intervals]
    assert lengths == pytest.approx([0.25 ** 3] * 8, abs=1e-15)
    assert sum(lengths) == pytest.approx(0.5 ** 3, abs=1e-15)


def test_cantor_level_rejects_bad_ratio():
    for r in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError, match="invalid ratio"):
            cantor_level(r, 2)


def test_cantor_to_json_roundtrip():
    prefractal = cantor_level(0.25, 3)
    loaded = json.loads(prefractal.to_json())
    assert len(loaded) == 8
    assert loaded[0] == [0.0, 0.015625]
    assert loaded[-1] == [0.984375, 1.0]


def test_covering_number_examples():
    assert covering_number([(0.0, 1.0)], 0.1) == 10
    for k in (1, 3, 6):
        comps = cantor_level(1.0 / 3.0, k).intervals
        assert covering_number(comps, 3.0 ** -k) == 2 ** k
    six = cantor_level(1.0 / 3.0, 6).intervals
    for j in range(1, 7):
        assert covering_number(six, 3.0 ** -j) == 2 ** j


def test_covering_number_monotone_in_delta():
    comps = cantor_level(0.25, 5).intervals
    deltas = np.geomspace(1e-4, 1.0, 40)
    counts = [covering_number(comps, d) for d in deltas]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_minkowski_dimension_examples():
    assert minkowski_dimension([(0.0, 1.0)], [0.1, 0.01, 0.001]) == pytest.approx(1.0, abs=1e-9)
    assert minkowski_dimension([(0.3, 0.3)], [0.1, 0.01, 0.001]) == pytest.approx(0.0, abs=1e-9)
    comps = cantor_level(1.0 / 3.0, 8).intervals
    deltas = [3.0 ** -j for j in range(1, 9)]
    dim = minkowski_dimension(comps, deltas)
    assert dim == pytest.approx(math.log(2.0) / math.log(3.0), abs=1e-6)


def test_bilinear_form_zero_and_full_mass():
    mu = AlphaMeasure(1.0)
    zero = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
    chk = bilinear_form_check(zero, zero, mu, 2.0, b=0.5)
    assert chk.form_value == 0.0
    with pytest.raises(ValueError, match="width b > 0"):
        bilinear_form_check(zero, zero, mu, 2.0, b=0.0)
    one = lambda x, t: np.ones_like(np.asarray(x, dtype=float))
    chk = bilinear_form_check(one, one, mu, 2.0, b=1.0, x_cells=256)
    # full mass minus the excluded diagonal cells
    assert chk.form_value == pytest.approx(1.0, abs=1.0 / 256 + 1e-12)
    assert chk.bound_side == pytest.approx(1.0, abs=1e-12)
    assert chk.constant == pytest.approx(1.0, abs=0.01)


def test_bilinear_indicator_slope():
    mu = AlphaMeasure(0.5)
    one = lambda x, t: np.ones_like(np.asarray(x, dtype=float))
    bs = [2.0 ** -j for j in range(1, 8)]
    forms = [bilinear_form_check(one, one, mu, 2.0, b=b, x_cells=512,
                                 t_cells=16).form_value for b in bs]
    logb = np.log(np.array(bs))
    logf = np.log(np.array(forms))
    slope = np.polyfit(logb, logf, 1)[0]
    assert slope >= 2.0 * 0.5 / 2.0   # at least the guaranteed decay rate

