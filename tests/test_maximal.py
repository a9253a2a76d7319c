"""Grid suprema with screening and witness injection, and mixed-norm quotients."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concave_phase_lab import maximal
from concave_phase_lab.counterexamples import (cantor_data, cantor_selectors,
                                               knapp_curve, knapp_vertical_spatial,
                                               knapp_vertical_temporal,
                                               matched_point_curve)
from concave_phase_lab.experiments import RunConfig, run_experiment
from concave_phase_lab.geometry import Curve, cantor_level
from concave_phase_lab.maximal import GridSpec, maximal_in_time, maximal_over_lines
from concave_phase_lab.spectral import FourierDatum, grid_work, propagate_grid

M_PSI = 0.905175241828407

BAND = FourierDatum()   # reference band (1/2, 2): resolvable by tiny grids


def small_grid(t_base=33):
    return GridSpec(t_base=t_base)


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="t_base"):
        GridSpec(t_base=1)
    with pytest.raises(ValueError, match="refine_depth"):
        GridSpec(refine_depth=1)
    with pytest.raises(ValueError, match="theta_per_component"):
        GridSpec(theta_per_component=0)


def test_required_resolution_rule():
    grid = small_grid()
    assert grid.required_t_base(FourierDatum(scale=0.25)) == 192
    assert grid.required_t_base(BAND) == 12
    # under-resolved without witnesses: hard error; witnesses lift it
    wide = FourierDatum(scale=1.0 / 2.0 ** 7)
    with pytest.raises(ValueError, match="under-resolved"):
        maximal_in_time(wide, 0.5, Curve.vertical(), 0.5, small_grid())
    value = maximal_in_time(wide, 0.5, Curve.vertical(), 0.5, small_grid(),
                            extra_t=(0.0,))
    assert value > 0


def test_supremum_dominates_base_grid():
    grid = small_grid()
    for x in (0.1, 0.45, 0.8):
        sup = maximal_in_time(BAND, 0.5, Curve.vertical(), x, grid)
        t_nodes = np.linspace(0.0, 1.0, grid.t_base)
        direct = np.abs(propagate_grid(BAND, 0.5, np.full_like(t_nodes, x), t_nodes))
        assert sup >= direct.max() - 1e-14


def test_supremum_monotone_in_depth():
    shallow = maximal_in_time(BAND, 0.5, Curve.vertical(), 0.3,
                              small_grid(t_base=17))
    deep = maximal_in_time(BAND, 0.5, Curve.vertical(), 0.3,
                           GridSpec(t_base=17, refine_depth=3))
    assert deep >= shallow - 1e-14


def test_supremum_amplitude_homogeneous():
    doubled = FourierDatum(amplitude=2.0)
    base = maximal_in_time(BAND, 0.5, Curve.vertical(), 0.3, small_grid())
    twice = maximal_in_time(doubled, 0.5, Curve.vertical(), 0.3, small_grid())
    assert twice == pytest.approx(2.0 * base, rel=1e-13)


def test_witness_value_is_certified_floor():
    grid = small_grid()
    for t0 in (0.13, 0.77):
        sup = maximal_in_time(BAND, 0.5, Curve.vertical(), 0.2, grid, extra_t=(t0,))
        direct = float(np.abs(propagate_grid(BAND, 0.5, np.array([0.2]),
                                             np.array([t0])))[0])
        assert sup >= direct - 1e-14


def test_array_positions_match_scalar_calls_on_vertical_path(monkeypatch):
    # The witnesses go flat.  40 x 129 base samples exceed BUCKET, so the one
    # separable base call spans several row groups; each position must still
    # get the floor of its own scalar call, and never less than its best
    # witness.  A position's witnesses may get another node count in its
    # group than alone, so floors far below the call's largest one differ by
    # rounding at that scale.
    grid = GridSpec(t_base=129)
    xs = np.geomspace(1e-3, 1.0, 40)
    lam, m = 2.0 ** 6, 0.5
    temporal = knapp_vertical_temporal(lam, m)
    lo, hi = temporal.support
    t_stat = np.minimum(1.0, xs / (m * abs(0.5 * (lo + hi)) ** (m - 1.0)))
    calls = []

    def spy(datum, m, positions, times, shift=0.0):
        calls.append((np.shape(positions), np.shape(times)))
        return propagate_grid(datum, m, positions, times, shift)

    for datum, witnesses in ((knapp_vertical_spatial(lam), np.zeros((40, 1))),
                             (temporal, np.stack([t_stat, 0.5 * t_stat], axis=1))):
        calls.clear()
        monkeypatch.setattr(maximal, "propagate_grid", spy)
        sups = maximal_in_time(datum, m, Curve.vertical(), xs, grid, extra_t=witnesses)
        monkeypatch.undo()
        assert sups.shape == xs.shape
        assert calls[:2] == [((witnesses.size,),) * 2, ((40, 1), (1, 129))]
        each = [maximal_in_time(datum, m, Curve.vertical(), x, grid, extra_t=w)
                for x, w in zip(xs, witnesses)]
        np.testing.assert_allclose(sups, each, rtol=1e-12,
                                   atol=1e-13 * np.max(each))
        floors = np.abs(propagate_grid(datum, m, xs[:, None], witnesses)).max(axis=1)
        assert np.all(sups >= floors)


def test_array_positions_match_scalar_calls_on_power_curve():
    # with or without witnesses the window keeps enough of this small base
    # that it goes in one (4, 1) x (1, 33) call with a nonzero column shift;
    # the values match scalar calls
    grid = small_grid()
    curve = Curve.power(theta=0.5, kappa=2.0)
    xs = np.array([0.05, 0.3, 0.55, 0.9])
    for witnesses in (np.empty((4, 0)), np.array([[0.1], [0.4], [0.7], [0.95]])):
        sups = maximal_in_time(BAND, 0.5, curve, xs, grid, extra_t=witnesses)
        each = [maximal_in_time(BAND, 0.5, curve, x, grid, extra_t=w)
                for x, w in zip(xs, witnesses)]
        np.testing.assert_allclose(sups, each, rtol=1e-12, atol=0.0)


def _cantor_rung(level, r=0.25, m=0.5, per_component=1):
    """A sharpness-lines style rung: its datum, direction intervals, positions
    (``per_component`` in each interval of the right half) and one selector
    witness per position."""
    prefractal = cantor_level(r, level)
    comps = [c for c in prefractal.intervals if c[0] >= 0.5 - 1e-12]
    fractions = (np.arange(per_component) + 0.5) / per_component
    xs = np.array([lo + f * (hi - lo) for lo, hi in comps for f in fractions])
    points = [cantor_selectors(x, prefractal) for x in xs]
    witnesses = np.array([[(p.theta, p.t)] for p in points])
    return cantor_data(r ** -level, m), comps, xs, witnesses


def test_array_positions_match_scalar_calls_on_lines():
    # a Cantor rung with its selector witnesses, and the small-ball direction
    # set [0, theta_max] with the proposition-lines witnesses: the array call
    # screens and evaluates all positions together, each position must get
    # the floor of its own scalar call
    m = 0.5
    datum, comps, xs, witnesses = _cantor_rung(4, m=m)
    lam, theta_max = 64.0, 0.05
    reps = np.geomspace(1e-3, 1.0, 12)
    cases = [(datum, comps, xs, witnesses, GridSpec(t_base=65)),
             (FourierDatum(scale=1.0 / lam, fractional_phase=-0.5, m=m),
              [(0.0, theta_max)], reps,
              np.array([[(2.0 * x, 0.5)] if 2.0 * x <= theta_max
                        else [(theta_max, min(1.0, x / theta_max))] for x in reps]),
              GridSpec(t_base=33, theta_per_component=5))]
    for datum, intervals, xs, witnesses, grid in cases:
        sups = maximal_over_lines(datum, m, intervals, xs, grid, extra=witnesses)
        assert sups.shape == xs.shape
        each = [maximal_over_lines(datum, m, intervals, x, grid, extra=w)
                for x, w in zip(xs, witnesses)]
        np.testing.assert_allclose(sups, each, rtol=1e-12,
                                   atol=1e-13 * np.max(each))


def test_lines_call_holds_only_kept_samples():
    # 64 positions x (64 directions x 257 times) base samples, of which the
    # screen drops nearly all: the call's peak must stay below a quarter of
    # one (positions x base samples) float array
    datum, comps, xs, witnesses = _cantor_rung(6, per_component=2)
    grid = GridSpec(t_base=257)
    n_base = len(maximal._theta_nodes(np.array(comps), 2)) * grid.t_base
    assert (len(xs), n_base) == (64, 16448)
    tracemalloc.start()
    try:
        maximal_over_lines(datum, 0.5, comps, xs, grid, extra=witnesses)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 16448 * 8 / 4


@pytest.mark.parametrize("overrides,positions", [
    ({"experiment": "sharpness-vertical", "x_cells": 5, "t_base": 33}, [5] * 5),
    ({"experiment": "sharpness-curve", "x_cells": 4, "t_base": 33}, [4] * 5),
    ({"experiment": "sharpness-lines", "k": 5, "t_base": 33}, [1, 2, 4, 8, 16]),
    ({"experiment": "proposition-lines", "x_cells": 5, "t_base": 33,
      "theta_nodes": 3}, [5] * 5),
])
def test_maxima_pipelines_make_one_engine_call_per_rung(monkeypatch, overrides,
                                                        positions):
    # one engine call per rung, holding every cell of the rung
    calls = []
    grid_sup = maximal._grid_sup

    def spy(datum, m, grid, xs, *args):
        calls.append(len(xs))
        return grid_sup(datum, m, grid, xs, *args)

    monkeypatch.setattr(maximal, "_grid_sup", spy)
    run_experiment(RunConfig(lam_count=5, **overrides), write=False)
    assert calls == positions


def test_base_route_is_chosen_by_counting_work(monkeypatch):
    # Without witnesses every position's best is 0, so the window keeps the
    # whole base mesh, which counts as less work in one separable
    # (g, 1) x (1, n) call.  On sharpness-lines the screen keeps a small share
    # of the base, and no call is separable.  With n > BUCKET / 2 columns
    # every row is its own group, and rows whose node counts more than double
    # from one to the next get their own node counts and column factors on
    # the mesh and their own buckets flat: the whole base then counts as less
    # work flat, although it is kept whole.
    shapes = []

    def spy(datum, m, positions, times, shift=0.0):
        shapes.append(tuple(np.shape(a) for a in (positions, times, shift)))
        return propagate_grid(datum, m, positions, times, shift)

    xs, grid, comps = np.linspace(0.1, 0.9, 5), small_grid(), [(0.0, 0.5)]
    n = len(maximal._theta_nodes(np.array(comps), grid.theta_per_component)) * grid.t_base
    monkeypatch.setattr(maximal, "propagate_grid", spy)
    sups = maximal_over_lines(BAND, 0.5, comps, xs, grid)
    monkeypatch.undo()
    assert [s for s in shapes if len(s[0]) == 2] == [((5, 1), (1, n), (1, n))]
    each = [maximal_over_lines(BAND, 0.5, comps, x, grid) for x in xs]
    np.testing.assert_allclose(sups, each, rtol=1e-12)
    shapes.clear()
    monkeypatch.setattr(maximal, "propagate_grid", spy)
    run_experiment(RunConfig(experiment="sharpness-lines", k=6), write=False)
    assert shapes and all(len(s[0]) == 1 for s in shapes)
    shapes.clear()
    xs, grid = np.array([0.0, 600.0, 1800.0]), small_grid(2049)
    mesh = xs[:, None], np.linspace(0.0, 1.0, 2049)[None]
    assert grid_work(BAND, 0.5, *mesh) > grid_work(BAND, 0.5, *np.broadcast_arrays(*mesh))
    sups = maximal_in_time(BAND, 0.5, Curve.vertical(), xs, grid)
    assert shapes and all(len(s[0]) == 1 for s in shapes)
    monkeypatch.undo()
    each = [maximal_in_time(BAND, 0.5, Curve.vertical(), x, grid) for x in xs]
    np.testing.assert_allclose(sups, each, rtol=1e-12, atol=1e-13 * np.max(each))


def test_array_positions_validation(monkeypatch):
    vertical = Curve.vertical()
    with pytest.raises(ValueError, match="extra_t"):
        maximal_in_time(BAND, 0.5, vertical, np.array([0.1, 0.2]), small_grid(),
                        extra_t=(0.0, 0.0))
    with pytest.raises(ValueError, match="1-D"):
        maximal_in_time(BAND, 0.5, vertical, np.zeros((2, 2)), small_grid())
    with pytest.raises(ValueError, match="extra"):
        maximal_over_lines(BAND, 0.5, [(0.1, 0.2)], np.array([0.1, 0.2]),
                           small_grid(), extra=[(0.1, 0.5)])
    with pytest.raises(ValueError, match="extra"):
        maximal_over_lines(BAND, 0.5, [(0.1, 0.2)], 0.3, small_grid(),
                           extra=[(0.1, 0.5, 0.7)])

    def never(*args, **kwargs):
        raise AssertionError("an oversized call must not start")

    monkeypatch.setattr(maximal, "propagate_grid", never)
    cells = maximal.MAX_BASE_SAMPLES // 33 + 1
    with pytest.raises(ValueError, match="MAX_BASE_SAMPLES|base samples"):
        maximal_in_time(BAND, 0.5, vertical, np.linspace(0.0, 1.0, cells),
                        small_grid(), extra_t=np.zeros((cells, 1)))


def test_lines_reduce_to_vertical_at_zero_direction():
    grid = small_grid()
    for x in (0.25, 0.6):
        vert = maximal_in_time(BAND, 0.5, Curve.vertical(), x, grid)
        line = maximal_over_lines(BAND, 0.5, [(0.0, 0.0)], x, grid)
        assert line == pytest.approx(vert, rel=1e-14)


def test_order_one_power_curve_equals_its_line():
    # x - theta*t^1 is the line of direction theta: both wrappers must run the
    # same samples through the same engine
    grid = small_grid()
    for theta in (0.3, 1.0, 2.5):
        curve = Curve.power(theta=theta, kappa=1.0)
        for x, witness in ((0.2, ()), (0.7, (0.41,))):
            along = maximal_in_time(BAND, 0.5, curve, x, grid, extra_t=witness)
            over = maximal_over_lines(BAND, 0.5, [(theta, theta)], x, grid,
                                      extra=[(theta, t) for t in witness])
            assert along == over


def test_lines_dominate_their_base_mesh():
    grid = small_grid()
    x = 0.7
    sup = maximal_over_lines(BAND, 0.5, [(0.1, 0.1), (0.4, 0.4)], x, grid)
    bigger = maximal_over_lines(BAND, 0.5, [(0.1, 0.1), (0.4, 0.4), (0.8, 0.8)],
                                x, grid)
    t_nodes = np.linspace(0.0, 1.0, grid.t_base)
    # both suprema dominate every base sample; the larger set keeps the floor
    for theta in (0.1, 0.4):
        direct = np.abs(propagate_grid(BAND, 0.5, x - theta * t_nodes, t_nodes))
        assert sup >= direct.max() - 1e-14
        assert bigger >= direct.max() - 1e-14


def test_line_refinement_stays_in_the_direction_set(monkeypatch):
    # seeds at the ends of an interval or next to a gap must not spread
    # refined samples to directions outside the set
    intervals = [(0.1, 0.2), (0.5, 0.6), (0.9, 0.9)]
    seen = []

    def spy(datum, m, positions, times, shift=0.0):
        seen.append((np.array(positions), np.array(times)))
        return propagate_grid(datum, m, positions, times, shift)

    monkeypatch.setattr(maximal, "propagate_grid", spy)
    for x in (0.3, 0.55, 0.95):
        seen.clear()
        maximal_over_lines(BAND, 0.5, intervals, x, small_grid(), extra=[(0.55, 0.8)])
        positions, times = (np.concatenate(part) for part in zip(*seen))
        moving = times > 0
        thetas = (x - positions[moving]) / times[moving]
        assert len(thetas) > 100
        for theta in thetas:
            assert any(lo - 1e-9 <= theta <= hi + 1e-9 for lo, hi in intervals), theta


def test_theta_nodes_match_per_interval_linspace():
    def reference(intervals, per):   # one linspace per interval, points kept once
        return np.unique(np.concatenate(
            [np.linspace(lo, hi, max(2, per)) if hi > lo else np.array([lo])
             for lo, hi in intervals]))

    for intervals in (cantor_level(0.25, 6).intervals, cantor_level(1 / 3, 4).intervals,
                      [(0.0, 0.37)], [(0.1, 0.1), (0.4, 0.4)]):
        for per in (1, 2, 17):
            got = maximal._theta_nodes(np.asarray(intervals, dtype=float), per)
            assert np.array_equal(got, reference(intervals, per))


def test_direction_intervals_validation():
    for bad in ([], [(0.4, 0.3)]):
        with pytest.raises(ValueError, match="lo <= hi"):
            maximal_over_lines(BAND, 0.5, bad, 0.5, small_grid())


def test_matched_curve_point_keeps_datum_mass():
    lam, m = 2.0 ** 6, 0.5
    datum = knapp_curve(lam, m, 1.0, 1.0)
    x = lam ** -m / 200.0
    point, residual = matched_point_curve(x, lam, m, 1.0)
    assert residual <= 0.5
    sup = maximal_in_time(datum, m, Curve.power(theta=1.0, kappa=1.0), x,
                          GridSpec(), extra_t=(point.t,))
    assert sup >= math.cos(0.5) * M_PSI / (2.0 * math.pi)


def test_cantor_endpoint_keeps_datum_mass():
    r, k, m = 0.25, 2, 0.5
    prefractal = cantor_level(r, k)
    lam_k = r ** -k
    datum = cantor_data(lam_k, m)
    theta = next(hi for lo, hi in prefractal.intervals if hi > 0.5)
    point = cantor_selectors(theta, prefractal)
    assert point.t == 1.0
    sup = maximal_over_lines(datum, m, [(theta, theta)], theta,
                             GridSpec(),
                             extra=[(point.theta, point.t)])
    floor = lam_k ** (1.0 / m) * M_PSI / (2.0 * math.pi)
    assert sup >= floor * (1.0 - 1e-8)


def test_screen_blocks_do_not_change_results(monkeypatch):
    # blocks of 7 samples (one column per block for 4+ positions) and base
    # groups of one position must keep exactly the samples the defaults keep
    r, k, m = 0.25, 3, 0.5
    prefractal = cantor_level(r, k)
    datum = cantor_data(r ** -k, m)
    theta = next(hi for lo, hi in prefractal.intervals if hi > 0.5)
    point = cantor_selectors(theta, prefractal)
    xs = np.array([0.05, 0.3, 0.55, 0.9])
    rung, comps, line_xs, line_witnesses = _cantor_rung(k, r, m, per_component=2)
    calls = [
        lambda: maximal_over_lines(datum, m, prefractal.intervals, theta,
                                   GridSpec(t_base=33), extra=[(point.theta, point.t)]),
        lambda: maximal_over_lines(rung, m, comps, line_xs, GridSpec(t_base=33),
                                   extra=line_witnesses),
        lambda: maximal_in_time(BAND, m, Curve.power(theta=0.5, kappa=2.0), xs,
                                small_grid(), extra_t=np.zeros((4, 1))),
        lambda: maximal_in_time(BAND, m, Curve.vertical(), xs, small_grid(),
                                extra_t=np.zeros((4, 1))),
    ]
    evaluated = []

    def spy(datum, m, positions, times, shift=0.0):
        evaluated[-1] += np.broadcast(positions, times).size
        return propagate_grid(datum, m, positions, times, shift)

    monkeypatch.setattr(maximal, "propagate_grid", spy)
    results = []
    # 4 x 33 base samples keep each curve call in one group; the lines base
    # of 8 directions x 33 times goes one position a group
    for block, max_base in ((maximal._SCREEN_BLOCK, maximal.MAX_BASE_SAMPLES),
                            (7, maximal.MAX_BASE_SAMPLES), (maximal._SCREEN_BLOCK, 4 * 33)):
        monkeypatch.setattr(maximal, "_SCREEN_BLOCK", block)
        monkeypatch.setattr(maximal, "MAX_BASE_SAMPLES", max_base)
        evaluated.append(0)
        results.append([np.asarray(call()) for call in calls])
    for default, *variants in zip(*results):
        for variant in variants:
            assert np.array_equal(default, variant)
    assert evaluated[0] == evaluated[1] == evaluated[2]


def _per_sample_bound(datum, m, positions, times):
    """The screen's per-sample bound 4|amplitude| / (2*pi*A), A the least
    |d/dxi phase| at the support ends (0 where they differ in sign; inf
    bound then), each sample on its own: the oracle for the window."""
    lo, hi = datum.support
    p = positions + datum.linear_phase
    t = times + datum.fractional_phase
    sigma = 1.0 if lo >= 0 else -1.0
    ends = []
    for xi in (lo, hi):
        if xi == 0.0:
            with np.errstate(invalid="ignore"):
                ends.append(np.where(t == 0.0, p, np.sign(t) * sigma * np.inf))
        else:
            ends.append(p + t * m * np.abs(xi) ** (m - 1.0) * np.sign(xi))
    same_sign = np.sign(ends[0]) == np.sign(ends[1])
    floor = np.where(same_sign, np.minimum(np.abs(ends[0]), np.abs(ends[1])), 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(floor > 0.0, 4.0 * abs(datum.amplitude) / (2.0 * np.pi * floor),
                        np.inf)


@settings(max_examples=300, deadline=None)
@given(scale=st.sampled_from([1.0, 0.25, 1 / 64, 4.0]), mirrored=st.booleans(),
       shift=st.sampled_from([0.0, 0.5, 2.0, -1.0]),   # 0.5 and 2.0 touch xi = 0
       amplitude=st.floats(0.1, 10.0), linear_phase=st.floats(-2.0, 2.0),
       fractional_phase=st.sampled_from([0.0, -0.5, 0.3, -1.0]) | st.floats(-1.5, 1.5),
       m=st.floats(0.1, 0.9),
       xs=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=4),
       reach=st.lists(st.sampled_from([np.inf]) | st.floats(1e-3, 10.0),
                      min_size=4, max_size=4),
       intervals=st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 20)),
                          min_size=1, max_size=3),
       per_component=st.integers(1, 4), t_count=st.sampled_from([2, 3, 5, 9]),
       block=st.sampled_from([3, maximal._SCREEN_BLOCK]))
def test_screen_window_keeps_exactly_what_the_bound_keeps(
        scale, mirrored, shift, amplitude, linear_phase, fractional_phase, m, xs,
        reach, intervals, per_component, t_count, block):
    # Against the per-sample bound: no sample whose bound beats best is
    # dropped, and none whose bound is below best * (1 - 1e-9) is kept, on
    # the lines base mesh (t = 0 rows included; theta-windows by binary
    # search) and through the per-sample window test.  best = 0 where reach
    # is inf; tau = t + fractional_phase takes both signs and 0.
    datum = FourierDatum(amplitude=amplitude, scale=-scale if mirrored else scale,
                         shift=shift, linear_phase=linear_phase,
                         fractional_phase=fractional_phase, m=m)
    xs = np.array(xs)
    best = 4.0 * amplitude / (2.0 * np.pi * np.array(reach[:len(xs)]))
    bounds = np.array([(lo / 50, lo / 50 + width / 100) for lo, width in intervals])
    thetas = maximal._theta_nodes(bounds, per_component)
    times = np.linspace(0.0, 1.0, t_count)
    base = maximal._mesh(thetas, times)

    def locate(x, c):
        return x - c[..., 0] * c[..., 1], c[..., 1]

    positions, t = locate(xs[:, None], base[None])
    bound = _per_sample_bound(datum, m, positions, t)
    must = bound > best[:, None]
    may = bound >= best[:, None] * (1.0 - 1e-9)
    saved = maximal._SCREEN_BLOCK
    maximal._SCREEN_BLOCK = block
    try:
        j, r = maximal._line_window(datum, m, locate, xs, maximal._reach(datum, best),
                                    base, len(thetas))
    finally:
        maximal._SCREEN_BLOCK = saved
    kept = np.zeros_like(must)
    kept[j, r] = True
    assert len(j) == kept.sum() and np.all(np.diff(j * len(base) + r) > 0)
    assert np.all(kept[must]) and np.all(may[kept])
    passes = maximal._passes(datum, m, maximal._reach(datum, best[:, None]), positions, t)
    assert np.array_equal(passes, kept)


def test_line_window_is_exact_for_directions_ulps_apart():
    # Directions 1e-16 to 1e-15 apart, times down to 1e-3 (so many directions
    # share one rounded p'), and each position's R within 3 ulps of some
    # sample's p' + s- or -(p' + s+): the kept set must be the per-sample
    # window's over the full mesh, t = 0 rows included.
    rng = np.random.default_rng(11)
    m = 0.5

    def locate(x, c):
        return x - c[..., 0] * c[..., 1], c[..., 1]

    trials = 0
    while trials < 400:
        datum = FourierDatum(linear_phase=rng.uniform(-1.0, 1.0),
                             fractional_phase=rng.uniform(-1.0, 1.0), m=m)
        thetas = np.unique(rng.uniform(-1.0, 1.0)
                           + np.cumsum(rng.uniform(1e-16, 1e-15, 40)))
        times = np.concatenate([[0.0], np.sort(rng.choice([1e-3, 1e-2, 0.1, 0.5, 1.0], 3))])
        base = maximal._mesh(thetas, times)
        xs = rng.uniform(-2.0, 2.0, 3)
        positions, t = locate(xs[:, None], base[None])
        s_lo, s_hi = maximal._slopes(datum, m, t)
        p = positions + datum.linear_phase
        edges = np.concatenate([(p + s_lo).ravel(), -(p + s_hi).ravel()])
        edges = edges[np.isfinite(edges) & (edges > 0.0)]
        if not len(edges):
            continue
        trials += 1
        reach = rng.choice(edges, len(xs))
        for q, steps in enumerate(rng.integers(-3, 4, len(xs))):
            for _ in range(abs(steps)):
                reach[q] = np.nextafter(reach[q], np.inf if steps > 0 else 0.0)
        j, r = maximal._line_window(datum, m, locate, xs, reach, base, len(thetas))
        kept = np.zeros(p.shape, dtype=bool)
        kept[j, r] = True
        assert len(j) == kept.sum() and np.all(np.diff(j * len(base) + r) > 0)
        assert np.array_equal(kept, maximal._passes(datum, m, reach[:, None], positions, t))


@pytest.mark.parametrize("case,per_group", [("lines", None), ("lines", 3), ("power", None)])
def test_each_refinement_round_is_one_feed(monkeypatch, case, per_group):
    # several positions refine together: the engine calls the evaluator once
    # for the witnesses, at most once per base group (a group whose samples
    # the screen all drops makes no call) and at most once per round
    calls = []

    def spy(datum, m, positions, times, shift=0.0):
        calls.append(np.broadcast(positions, times).size)
        return propagate_grid(datum, m, positions, times, shift)

    if case == "lines":
        datum, comps, xs, witnesses = _cantor_rung(4, per_component=2)
        grid = GridSpec(t_base=65, refine_depth=3)
        base_samples = len(maximal._theta_nodes(np.array(comps), 2)) * grid.t_base

        def call():
            return maximal_over_lines(datum, 0.5, comps, xs, grid, extra=witnesses)
    else:
        xs = np.linspace(0.05, 0.9, 6)
        grid = GridSpec(t_base=33, refine_depth=3)
        base_samples = grid.t_base

        def call():
            return maximal_in_time(BAND, 0.5, Curve.power(theta=0.5, kappa=2.0), xs,
                                   grid, extra_t=np.zeros((len(xs), 1)))
    per_group = per_group or len(xs)   # positions a base group
    monkeypatch.setattr(maximal, "MAX_BASE_SAMPLES", per_group * base_samples)
    monkeypatch.setattr(maximal, "propagate_grid", spy)
    call()
    groups = -(-len(xs) // per_group)
    assert len(xs) > 2 and calls[0] == len(xs)
    assert len(calls) <= 1 + groups + grid.refine_depth < len(xs) * grid.refine_depth
