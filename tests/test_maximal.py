"""Grid suprema with screening and witness injection, and mixed-norm quotients."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from concave_phase_lab import maximal, quadrature, spectral
from concave_phase_lab.counterexamples import (cantor_data, cantor_selectors,
                                               knapp_curve, knapp_vertical_spatial,
                                               knapp_vertical_temporal,
                                               matched_point_curve)
from concave_phase_lab.experiments import RunConfig, run_experiment
from concave_phase_lab.geometry import Curve, cantor_level
from concave_phase_lab.maximal import GridSpec, maximal_in_time, maximal_over_lines
from concave_phase_lab.spectral import (FourierDatum, grid_work, propagate_grid,
                                        propagate_lattice)

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


def _samples(positions, times, shift=0.0, at=None):
    """The (position + shift, time) samples of a ``propagate_grid`` call: the
    broadcast arrays, or their entries at ``at``."""
    points = np.broadcast_arrays(np.add(positions, shift), times)
    return tuple(p if at is None else p[at] for p in points)


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

    def spy(datum, m, positions, times, shift=0.0, at=None):
        calls.append((np.shape(positions), np.shape(times)))
        return propagate_grid(datum, m, positions, times, shift, at)

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
    # the values match scalar calls, and no positions get no floors
    grid = small_grid()
    curve = Curve.power(theta=0.5, kappa=2.0)
    xs = np.array([0.05, 0.3, 0.55, 0.9])
    for witnesses in (np.empty((4, 0)), np.array([[0.1], [0.4], [0.7], [0.95]])):
        sups = maximal_in_time(BAND, 0.5, curve, xs, grid, extra_t=witnesses)
        each = [maximal_in_time(BAND, 0.5, curve, x, grid, extra_t=w)
                for x, w in zip(xs, witnesses)]
        np.testing.assert_allclose(sups, each, rtol=1e-12, atol=0.0)
        empty = maximal_in_time(BAND, 0.5, curve, xs[:0], grid, extra_t=witnesses[:0])
        assert empty.shape == (0,) and empty.dtype == float


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
    # the floor of its own scalar call, and no positions get no floors
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
        empty = maximal_over_lines(datum, m, intervals, xs[:0], grid, extra=witnesses[:0])
        assert empty.shape == (0,) and empty.dtype == float


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


def test_weighed_base_meshes_are_planned_once(monkeypatch):
    # Each base group is one propagate_grid call at its kept samples, which
    # plans the mesh it weighs once and sums it on that plan.  On 31 jittered
    # cells of sharpness-vertical (7 rungs) that is 14 plans, one witness call
    # and one base mesh per rung, and counting them does not move the report.
    shapes, plan = [], quadrature._plan

    def spy(P, T, shift, *spans):
        shapes.append(np.broadcast(P, T, shift).shape)
        return plan(P, T, shift, *spans)

    cfg = RunConfig.from_mapping({"experiment": "sharpness-vertical", "x_cells": "31",
                                  "seed": "0"})
    memo = run_experiment(cfg, write=False)[1]
    monkeypatch.setattr(quadrature, "_plan", spy)
    assert repr(run_experiment(cfg, write=False)[1]) == repr(memo)
    assert len(shapes) == 14 and shapes[1::2] == [(31, 513)] * 7


def _base_routes(monkeypatch):
    """The route quadrature takes on each base group's call (the calls given
    ``at``), in call order: ("mesh", rows) where it sums the whole mesh, else
    "flat".  Every other call ``maximal`` makes pairs its points, so flat."""
    routes, batch, mesh_batch = [], quadrature.two_phase_batch, quadrature._mesh_batch

    def spy(*args, at=None):
        routes.extend(["flat"] * (at is not None))
        return batch(*args, at=at)

    def mesh_spy(rows, *args):
        routes[-1] = ("mesh", len(rows))
        return mesh_batch(rows, *args)

    monkeypatch.setattr(spectral, "two_phase_batch", spy)
    monkeypatch.setattr(quadrature, "_mesh_batch", mesh_spy)
    return routes


def test_base_route_is_chosen_by_counting_work(monkeypatch):
    # Without witnesses every position's best is 0, so the window keeps the
    # whole base mesh, which counts as less work in one separable
    # (g, 1) x (1, n) call.  On sharpness-lines the screen keeps a small share
    # of the base, and every group goes flat.  On a curve t -> x - t^2 the
    # column shift is not affine in t, so every column factor is direct: the
    # whole base then counts as less work flat, although it is kept whole.
    xs, grid, comps = np.linspace(0.1, 0.9, 5), small_grid(), [(0.0, 0.5)]
    routes = _base_routes(monkeypatch)
    sups = maximal_over_lines(BAND, 0.5, comps, xs, grid)
    assert routes == [("mesh", 5)]
    each = [maximal_over_lines(BAND, 0.5, comps, x, grid) for x in xs]
    np.testing.assert_allclose(sups, each, rtol=1e-12)
    assert routes[1:] == ["flat"] * 5   # a lone position goes flat
    routes.clear()
    run_experiment(RunConfig(experiment="sharpness-lines", k=6), write=False)
    assert routes and set(routes) == {"flat"}
    routes.clear()
    xs, grid, curve = np.array([0.0, 600.0, 1800.0]), small_grid(2049), Curve.power(1.0, 2.0)
    t = np.linspace(0.0, 1.0, 2049)[None]
    flat = np.broadcast_arrays(xs[:, None] - t ** 2, t)
    assert grid_work(BAND, 0.5, xs[:, None], t, -t ** 2) > grid_work(BAND, 0.5, *flat)
    sups = maximal_in_time(BAND, 0.5, curve, xs, grid)
    assert routes == ["flat"]
    monkeypatch.undo()
    each = [maximal_in_time(BAND, 0.5, curve, x, grid) for x in xs]
    np.testing.assert_allclose(sups, each, rtol=1e-12, atol=1e-13 * np.max(each))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(rows=st.integers(1, 6), directions=st.integers(1, 17), times=st.integers(2, 24),
       kappa=st.sampled_from([1.0, 2.0]), reach=st.sampled_from([1.0, 60.0, 400.0]),
       share=st.sampled_from([0.0, 0.01, 0.1, 0.2, 0.3, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 16))
def test_base_entries_take_the_route_full_counts_choose(rows, directions, times, kappa,
                                                        reach, share, seed):
    # propagate_grid(..., at=(i, j)) on a base mesh is bit for bit the whole
    # mesh's [i, j] where grid_work counts the mesh below the flat entries,
    # else the flat call on those entries: the bound that skips weighing and
    # the bracket that skips the flat count never flip a choice.  A one-row
    # mesh always goes flat.
    rng = np.random.default_rng(seed)
    datum = FourierDatum(linear_phase=float(rng.uniform(-1.0, 1.0)))
    xs, t = rng.uniform(-reach, reach, rows), np.linspace(0.0, 1.0, times)
    thetas = np.sort(rng.uniform(-1.0, 1.0, directions))
    mesh = (xs[:, None], np.repeat(t, directions)[None],
            (0.0 - thetas * t[:, None] ** kappa).reshape(1, -1))
    i, j = np.nonzero(rng.random((rows, directions * times)) < share)
    entries = (xs[i], mesh[1][0, j], mesh[2][0, j])
    got = propagate_grid(datum, 0.5, *mesh, at=(i, j))
    whole = rows > 1 and grid_work(datum, 0.5, *mesh) < grid_work(datum, 0.5, *entries)
    event("mesh" if whole else "flat")
    want = propagate_grid(datum, 0.5, *mesh)[i, j] if whole else propagate_grid(
        datum, 0.5, *entries)
    assert got.shape == i.shape and got.tobytes() == want.tobytes()


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


def _never(*args, **kwargs):
    raise AssertionError("refused input must not reach quadrature")


@pytest.mark.parametrize("call,field", [
    pytest.param(lambda: maximal_in_time(BAND, 0.5, Curve.vertical(), np.nan, small_grid()),
                 "^x must be finite", id="x-nan"),
    pytest.param(lambda: maximal_in_time(BAND, 0.5, Curve(theta=np.nan), 0.3, small_grid()),
                 "^theta must be finite", id="curve-theta-nan"),
    pytest.param(lambda: maximal_in_time(BAND, 0.5, Curve(theta=1.0, kappa=np.nan), 0.3,
                                         small_grid()),
                 "^kappa must be finite", id="curve-kappa-nan"),
    pytest.param(lambda: maximal_in_time(BAND, 0.5, Curve(theta=1.0, kappa=np.inf), 0.3,
                                         small_grid()),
                 "^kappa must be finite", id="curve-kappa-inf"),
    pytest.param(lambda: maximal_over_lines(BAND, 0.5, [(0.1, np.nan)], 0.3, small_grid()),
                 "^theta_intervals must be nonempty and finite", id="interval-hi-nan"),
    pytest.param(lambda: maximal_over_lines(BAND, 0.5, [(np.nan, 0.2)], 0.3, small_grid()),
                 "^theta_intervals must be nonempty and finite", id="interval-lo-nan"),
    pytest.param(lambda: maximal_over_lines(BAND, 0.5, [(0.1, np.inf)], 0.3, small_grid()),
                 "^theta_intervals must be nonempty and finite", id="interval-hi-inf"),
    pytest.param(lambda: maximal_in_time(BAND, 0.5, Curve.vertical(), 0.3, small_grid(),
                                         extra_t=(2.0,)),
                 "extra_t", id="witness-t-above-1"),
    pytest.param(lambda: maximal_in_time(BAND, 0.5, Curve.vertical(), np.array([0.3, 0.4]),
                                         small_grid(), extra_t=[[0.5], [np.nan]]),
                 "extra_t", id="witness-t-nan"),
    pytest.param(lambda: maximal_over_lines(BAND, 0.5, [(0.1, 0.2)], 0.3, small_grid(),
                                            extra=[(5.0, 0.5)]),
                 "extra", id="witness-theta-outside"),
    pytest.param(lambda: maximal_over_lines(BAND, 0.5, [(0.1, 0.2), (0.4, 0.5)], 0.3,
                                            small_grid(), extra=[(0.3, 0.5)]),
                 "extra", id="witness-theta-in-gap"),
    pytest.param(lambda: maximal_over_lines(BAND, 0.5, [(0.1, 0.2)], 0.3, small_grid(),
                                            extra=[(0.15, -0.5)]),
                 "extra", id="witness-t-negative"),
])
def test_bad_input_is_refused_before_any_quadrature(monkeypatch, call, field):
    # non-finite positions, curves and direction intervals, and witnesses off
    # the domain (t in [0, 1], theta in the direction set), which would put a
    # sample outside the stated domain into a floor
    monkeypatch.setattr(maximal, "propagate_grid", _never)
    monkeypatch.setattr(maximal, "propagate_lattice", _never)
    with pytest.raises(ValueError, match=field):
        call()


def test_lines_reduce_to_vertical_at_zero_direction():
    grid = small_grid()
    for x in (0.25, 0.6):
        vert = maximal_in_time(BAND, 0.5, Curve.vertical(), x, grid)
        line = maximal_over_lines(BAND, 0.5, [(0.0, 0.0)], x, grid)
        assert line == pytest.approx(vert, rel=1e-14)


def test_order_one_power_curve_equals_its_line(monkeypatch):
    # x - theta*t^1 is the line of direction theta: both wrappers must run the
    # same samples through the same engine.  A local mesh steps theta only
    # between spaced directions, so each screens at most 17 samples a seed
    # and round, not 17 copies of each: the refinement rows (those with an
    # origin) offered to the row window times their directions.
    screened = []
    row_window = maximal._row_window

    def spy(datum, thetas, x, power, s_lo, s_hi, reach, origin=None):
        if origin is not None:
            screened[-1] += np.broadcast(x, power, s_lo, reach, origin).size * len(thetas)
        return row_window(datum, thetas, x, power, s_lo, s_hi, reach, origin)

    monkeypatch.setattr(maximal, "_row_window", spy)
    grid = small_grid()
    for theta in (0.3, 1.0, 2.5):
        curve = Curve.power(theta=theta, kappa=1.0)
        for x, witness in ((0.2, ()), (0.7, (0.41,)), (np.linspace(0.1, 0.9, 4), ())):
            screened.append(0)
            along = maximal_in_time(BAND, 0.5, curve, x, grid, extra_t=witness)
            screened.append(0)
            over = maximal_over_lines(BAND, 0.5, [(theta, theta)], x, grid,
                                      extra=[(theta, t) for t in witness])
            assert np.array_equal(along, over)
            most = grid.refine_depth * maximal._TOP_SEEDS * np.size(x) * 17   # 17 ticks in t
            assert 0 < screened[-2] == screened[-1] <= most


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
    # refined samples to directions outside the set, on either route
    intervals = [(0.1, 0.2), (0.5, 0.6), (0.9, 0.9)]
    seen = []

    def spy(datum, m, positions, times, shift=0.0, at=None):
        seen.append(_samples(positions, times, shift, at))
        return propagate_grid(datum, m, positions, times, shift, at)

    def lattice_spy(datum, m, x, theta, t, steps, samples):
        s, a, b = samples
        times = t[s] + b * steps[1]
        seen.append((x[s] - (theta[s] + a * steps[0]) * times, times))
        return propagate_lattice(datum, m, x, theta, t, steps, samples)

    monkeypatch.setattr(maximal, "propagate_grid", spy)
    monkeypatch.setattr(maximal, "propagate_lattice", lattice_spy)
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

    def spy(datum, m, positions, times, shift=0.0, at=None):
        evaluated[-1] += _samples(positions, times, shift, at)[0].size
        return propagate_grid(datum, m, positions, times, shift, at)

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


def _passes(datum, m, reach, positions, times):
    """The per-sample window -R - s+ < p' < R - s-, p' = positions +
    linear_phase: the reference every screen must keep exactly."""
    s_lo, s_hi = maximal._slopes(datum, m, times)
    p = positions + datum.linear_phase
    return (p + s_lo < reach) & (p + s_hi > -reach)


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


@settings(derandomize=True, max_examples=300, deadline=None)
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
       lone=st.booleans(), kappa=st.sampled_from([0.5, 1.0, 2.0]),
       per_component=st.integers(1, 4), t_count=st.sampled_from([2, 3, 5, 9]),
       block=st.sampled_from([3, maximal._SCREEN_BLOCK]), shared=st.booleans())
def test_screen_window_keeps_exactly_what_the_bound_keeps(
        scale, mirrored, shift, amplitude, linear_phase, fractional_phase, m, xs,
        reach, intervals, lone, kappa, per_component, t_count, block, shared):
    # Against the per-sample bound: no sample whose bound beats best is
    # dropped, and none whose bound is below best * (1 - 1e-9) is kept, on
    # the base mesh of paths x - theta*t^kappa (t = 0 rows included;
    # theta-windows by binary search, a lone direction, as a curve's mesh is,
    # by the per-sample test) and through the per-sample window test.  The
    # times are one row shared by every position, as a base mesh's are, or
    # the same times repeated per position, as local meshes give them.
    # best = 0 where reach is inf; tau = t + fractional_phase takes both
    # signs and 0.  Rows are dropped whole where the window fails at their
    # end directions, on either side (a mutant that tests the upper side at
    # the last direction instead of the first fails here).
    datum = FourierDatum(amplitude=amplitude, scale=-scale if mirrored else scale,
                         shift=shift, linear_phase=linear_phase,
                         fractional_phase=fractional_phase, m=m)
    xs = np.array(xs)
    best = 4.0 * amplitude / (2.0 * np.pi * np.array(reach[:len(xs)]))
    bounds = np.array([(lo / 50, lo / 50 + width / 100) for lo, width in intervals])
    thetas = maximal._theta_nodes(bounds, per_component)[:1 if lone else None]
    times = np.linspace(0.0, 1.0, t_count)
    theta, t = (g.ravel() for g in np.meshgrid(thetas, times))
    positions = xs[:, None] - theta * np.power(t, kappa)
    bound = _per_sample_bound(datum, m, positions, t)
    must = bound > best[:, None]
    may = bound >= best[:, None] * (1.0 - 1e-9)
    saved = maximal._SCREEN_BLOCK
    maximal._SCREEN_BLOCK = block
    try:
        j, i, k = maximal._mesh_window(
            datum, m, kappa, xs, maximal._reach(datum, best), thetas,
            times[None] if shared else np.tile(times, (len(xs), 1)))
    finally:
        maximal._SCREEN_BLOCK = saved
    kept = np.zeros_like(must)
    r = i * len(thetas) + k
    kept[j, r] = True
    assert len(j) == kept.sum() and np.all(np.diff(j * len(t) + r) > 0)
    assert np.all(kept[must]) and np.all(may[kept])
    passes = _passes(datum, m, maximal._reach(datum, best[:, None]), positions, t)
    assert np.array_equal(passes, kept)
    # each (position, t) row, directions last: the lower side of the window at
    # the last direction and the upper side at the first decide a dropped row
    p = positions.reshape(len(xs), t_count, -1) + linear_phase
    s_lo, s_hi = maximal._slopes(datum, m, times)
    r = maximal._reach(datum, best)[:, None]
    at_last, at_first = p[..., -1] + s_lo < r, p[..., 0] + s_hi > -r
    assert not np.any(kept.reshape(p.shape).any(-1) & ~(at_last & at_first))
    event(f"rows dropped at the last direction: {np.any(~at_last)}")
    event(f"rows dropped at the first direction: {np.any(at_last & ~at_first)}")
    event(f"rows searched: {np.any(at_last & at_first)}")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kappa=st.sampled_from([0.5, 1.0, 2.0]), lone=st.booleans(),
       linear_phase=st.floats(-2.0, 2.0),
       fractional_phase=st.sampled_from([0.0, -0.5, 0.3]) | st.floats(-1.5, 1.5),
       shift=st.sampled_from([0.0, 0.5, 2.0]), m=st.floats(0.1, 0.9),
       xs=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=3),
       seeds=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                                st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
                      min_size=1, max_size=6),
       d_theta=st.sampled_from([0.2, 0.02, 1e-4]) | st.integers(1, 4).map(lambda u: -u),
       d_t=st.sampled_from([1 / 8, 1 / 256, 1e-7]),
       reach=st.lists(st.sampled_from([np.inf]) | st.floats(1e-4, 1.0)
                      | st.tuples(st.integers(0, 10 ** 6), st.integers(-2, 2)),
                      min_size=3, max_size=3),
       block=st.sampled_from([3, maximal._SCREEN_BLOCK]))
def test_local_rows_keep_exactly_what_the_samples_keep(
        kappa, lone, linear_phase, fractional_phase, shift, m, xs, seeds, d_theta, d_t,
        reach, block):
    # Each refinement round's local meshes are screened by rows, one row of
    # times per seed: the kept (seed, b, a) must be, in seed, b, a order,
    # those of the per-sample test (0 <= t <= 1) & window over every lattice
    # sample, for all seeds at once and for the first seed alone.  Seeds sit
    # on interval ends, at t = 0 and t = 1, so rows straddle both; R is inf
    # (best = 0), a number, or within 2 ulps of some sample's p' + s- or
    # -(p' + s+); a negative d_theta is a theta step of that many ulps.
    datum = FourierDatum(shift=shift, linear_phase=linear_phase,
                         fractional_phase=fractional_phase, m=m)
    bounds = np.array([(0.1, 0.3), (0.45, 0.45), (0.6, 1.2)])
    xs = np.array(xs)
    owners = np.array([j % len(xs) for j, _, _, _ in seeds])
    ends = [(lo, hi) if not lone else (0.45, 0.45) for lo, hi in bounds]
    seed_theta = np.array([ends[i][0] + f * (ends[i][1] - ends[i][0])
                           for (_, i, f, _) in seeds])
    seed_t = np.array([t for *_, t in seeds])
    ticks = np.arange(-8, 9)
    step = -d_theta * np.spacing(1.2) if d_theta < 0 else d_theta
    d_thetas, local_t = np.zeros(1) if lone else ticks * step, seed_t[:, None] + ticks * d_t
    theta, t = np.broadcast_arrays(seed_theta[:, None, None] + d_thetas, local_t[..., None])
    j = np.broadcast_to(owners[:, None, None], theta.shape)
    domain = (t >= 0.0) & (t <= 1.0)
    p = xs[j[domain]] - theta[domain] * np.power(t[domain], kappa)
    s_lo, s_hi = maximal._slopes(datum, m, t[domain])
    edges = np.concatenate([p + linear_phase + s_lo, -(p + linear_phase + s_hi)])
    edges = edges[np.isfinite(edges) & (edges > 0.0)]
    r = np.empty(len(xs))
    for q, value in enumerate(reach[:len(xs)]):
        if isinstance(value, tuple):   # at a sample's own edge, nudged by ulps
            pick, nudge = value
            value = edges[pick % len(edges)] if len(edges) else 1.0
            for _ in range(abs(nudge)):
                value = np.nextafter(value, np.inf if nudge > 0 else 0.0)
        r[q] = value
    keep = np.zeros(theta.shape, dtype=bool)
    keep[domain] = _passes(datum, m, r[j[domain]], p, t[domain])
    saved = maximal._SCREEN_BLOCK
    maximal._SCREEN_BLOCK = block
    try:
        for alone in (slice(None), slice(0, 1)):
            got = maximal._mesh_window(datum, m, kappa, xs[owners[alone]],
                                       r[owners[alone]], d_thetas, local_t[alone],
                                       seed_theta[alone])
            for got_part, want_part in zip(got, np.nonzero(keep[alone]), strict=True):
                assert np.array_equal(got_part, want_part)
    finally:
        maximal._SCREEN_BLOCK = saved
    event(f"kept {'none' if not keep.any() else 'all' if keep[domain].all() else 'some'}")


def test_line_window_is_exact_for_directions_ulps_apart():
    # Directions 1e-16 to 1e-15 apart, times down to 1e-3 (so many directions
    # share one rounded p'), and each position's R within 3 ulps of some
    # sample's p' + s- or -(p' + s+): the kept set must be the per-sample
    # window's over the full mesh, t = 0 rows included, for the three
    # positions together and for each alone (a lone row's arrays have
    # length-1 axes only, and the bisection after a failed guess reads them).
    rng = np.random.default_rng(11)
    m = 0.5
    trials = 0
    while trials < 400:
        datum = FourierDatum(linear_phase=rng.uniform(-1.0, 1.0),
                             fractional_phase=rng.uniform(-1.0, 1.0), m=m)
        thetas = np.unique(rng.uniform(-1.0, 1.0)
                           + np.cumsum(rng.uniform(1e-16, 1e-15, 40)))
        times = np.concatenate([[0.0], np.sort(rng.choice([1e-3, 1e-2, 0.1, 0.5, 1.0], 3))])
        theta, t = (g.ravel() for g in np.meshgrid(thetas, times))
        xs = rng.uniform(-2.0, 2.0, 3)
        positions = xs[:, None] - theta * t
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
        want = _passes(datum, m, reach[:, None], positions, t)
        for q in (slice(None), *(slice(c, c + 1) for c in range(len(xs)))):
            j, i, k = maximal._mesh_window(datum, m, 1.0, xs[q], reach[q], thetas,
                                           times[None])
            kept = np.zeros(p[q].shape, dtype=bool)
            r = i * len(thetas) + k
            kept[j, r] = True
            assert len(j) == kept.sum() and np.all(np.diff(j * len(t) + r) > 0)
            assert np.array_equal(kept, want[q])


@pytest.mark.parametrize("case,per_group", [("lines", None), ("lines", 3), ("power", None)])
def test_each_refinement_round_is_one_feed(monkeypatch, case, per_group):
    # several positions refine together: the engine calls the evaluators once
    # for the witnesses, at most once per base group (a group whose samples
    # the screen all drops makes no call) and at most once per round.  Each
    # stage ends in one _take of its values, so between two takes there is
    # at most one call of each route: per sample, or from lattice tables
    # (line families; a power curve of order 2 has none)
    calls, events = [], []
    take = maximal._take

    def spy(datum, m, positions, times, shift=0.0, at=None):
        calls.append(_samples(positions, times, shift, at)[0].size)
        events.append("flat")
        return propagate_grid(datum, m, positions, times, shift, at)

    def lattice_spy(datum, m, x, theta, t, steps, samples):
        calls.append(len(samples[0]))
        events.append("lattice")
        return propagate_lattice(datum, m, x, theta, t, steps, samples)

    def take_spy(*args):
        events.append("take")
        return take(*args)

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
    monkeypatch.setattr(maximal, "propagate_lattice", lattice_spy)
    monkeypatch.setattr(maximal, "_take", take_spy)
    call()
    groups = -(-len(xs) // per_group)
    assert len(xs) > 2 and calls[0] == len(xs) and min(calls) > 0
    assert len(calls) <= 1 + groups + grid.refine_depth < len(xs) * grid.refine_depth
    stages = " ".join(events).split("take")
    assert all(stage.split().count(route) <= 1 for stage in stages
               for route in ("flat", "lattice"))
    assert ("lattice" in events) == (case == "lines")


def _leading_by_loop(taken, top):
    """Indices of each position's ``top`` largest values in ``taken`` (rows of
    position, theta, t, value), kept sample by sample: a newcomer evicts the
    least of its position, the earlier of equal values; in taken order."""
    kept = {}
    for i, (j, _, _, value) in enumerate(taken):
        mine = kept.setdefault(j, [])
        mine.append(i)
        if len(mine) > top:
            least = mine[0]
            for q in mine[1:]:
                if taken[q][3] < taken[least][3]:
                    least = q
            mine.remove(least)
    return sorted(i for mine in kept.values() for i in mine)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(k=st.integers(1, 4), data=st.data())
def test_take_matches_a_plain_loop(k, data):
    # _take against a loop over every sample taken so far: best is the running
    # maximum per position; lead holds each position's _TOP_SEEDS largest,
    # the later of equal values first, in taken order; an empty take leaves
    # lead as it was.  Values come from a short list, so ties are common.
    best = np.zeros(k)
    lead = np.empty(0, dtype=np.intp), np.empty(0), np.empty(0), np.empty(0)
    taken = []
    for _ in range(data.draw(st.integers(1, 5))):
        j = np.array(data.draw(st.lists(st.integers(0, k - 1), max_size=9)), dtype=np.intp)
        vals = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                                           min_size=len(j), max_size=len(j))), dtype=float)
        theta = np.arange(len(taken), len(taken) + len(j), dtype=float)   # names a sample
        t = data.draw(st.sampled_from([0.0, 1.0])) + theta / 64
        before = lead
        lead = maximal._take(best, lead, j, theta, t, vals)
        if not len(j):
            assert all(np.array_equal(a, b) for a, b in zip(lead, before))
        taken += zip(j, theta, t, vals)
        want = np.zeros(k)
        for j_, _, _, value in taken:
            want[j_] = max(want[j_], value)
        assert np.array_equal(best, want)
        rows = [taken[i] for i in _leading_by_loop(taken, maximal._TOP_SEEDS)]
        assert lead[0].dtype == np.intp
        assert [tuple(map(float, row)) for row in zip(*lead)] == \
            [tuple(map(float, row)) for row in rows]
    event(f"ties kept: {len(set(lead[3])) < len(lead[3])}")


@pytest.mark.parametrize("case", ["vertical", "lines"])
def test_refinement_builds_a_third_of_the_per_sample_exponentials(monkeypatch, case):
    # A spy on _unit_phase counts the exponentials built inside the
    # refinement rounds' lattice calls; the per-sample route, fed the same
    # samples, must build at least three times as many.  Fails if refinement
    # goes per sample again.
    built, lattices = {"lattice": 0, "flat": 0}, []
    route = ["flat"]
    unit_phase = quadrature._unit_phase

    def unit_spy(*args):
        out = unit_phase(*args)
        built[route[0]] += out.size
        return out

    def lattice_spy(*args):
        lattices.append(args)
        route[0] = "lattice"
        try:
            return propagate_lattice(*args)
        finally:
            route[0] = "flat"

    xs = np.linspace(0.1, 0.9, 4)
    monkeypatch.setattr(quadrature, "_unit_phase", unit_spy)
    monkeypatch.setattr(maximal, "propagate_lattice", lattice_spy)
    if case == "vertical":
        maximal_in_time(BAND, 0.5, Curve.vertical(), xs, small_grid(),
                        extra_t=np.zeros((4, 1)))
    else:
        maximal_over_lines(BAND, 0.5, [(0.0, 0.5)], xs, small_grid(),
                           extra=np.zeros((4, 1, 2)))
    assert len(lattices) == small_grid().refine_depth
    built["flat"] = 0
    for datum, m, x, theta, t, steps, (s, a, b) in lattices:
        times = t[s] + b * steps[1]
        propagate_grid(datum, m, x[s] - (theta[s] + a * steps[0]) * times, times)
    assert 0 < built["lattice"] <= built["flat"] / 3
