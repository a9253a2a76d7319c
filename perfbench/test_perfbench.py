"""Unit tests for the benchmark's own arithmetic.

Run from the repository root:  python3 -m pytest -q perfbench
"""
import os
import signal
import sys
import time
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# -- percentile rule ---------------------------------------------------------

def test_nearest_rank():
    values = list(range(1, 101))
    assert stats.nearest_rank(values, 50) == (50, 50)
    assert stats.nearest_rank(values, 90) == (90, 90)
    assert stats.nearest_rank(values, 99.9) == (100, 100)
    assert stats.nearest_rank([7.0], 50) == (7.0, 1)


@pytest.mark.parametrize("n, pct, beyond", [
    (19, 100.0, 0),       # no percentile leaves ten beyond: the maximum
    (20, 50.0, 10),
    (99, 50.0, 49),       # p90 leaves only 9
    (100, 90.0, 10),
    (999, 90.0, 99),      # p99 leaves only 9
    (1000, 99.0, 10),
    (10000, 99.9, 10),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, beyond):
    values = [float(v) for v in np.random.default_rng(n).permutation(n)]
    value, got_pct, samples, got_beyond = stats.tail(values)
    assert (got_pct, samples, got_beyond) == (pct, n, beyond)
    assert sum(v > value for v in values) == beyond


def test_latency_is_per_operation_median_over_passes():
    def rec(seconds, error=None):
        return {"seconds": seconds, "error": error}
    passes = [{"records": [rec(0.001), rec(0.010), rec(5.0, "ToleranceNotMetError")]},
              {"records": [rec(0.003), rec(0.030), rec(5.0, "ToleranceNotMetError")]},
              {"records": [rec(0.002), rec(0.020), rec(5.0, "ToleranceNotMetError")]}]
    p50, tail = run.latency_ms(passes)
    # operation medians 2 ms and 20 ms; the failing operation is left out
    assert p50 == pytest.approx(11.0)
    assert tail["value"] == pytest.approx(20.0)
    assert (tail["percentile"], tail["samples"], tail["beyond"]) == (100.0, 2, 0)
    assert run.latency_ms(passes[:1])[1]["samples"] == 2


def test_quartile_spread():
    assert stats.quartile_spread([1.0] * 5) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


# -- host-speed scaling ------------------------------------------------------

def test_factor_is_reference_over_harmonic_mean():
    ref = speed.REFERENCE_S
    assert speed.factor([ref, ref, ref]) == pytest.approx(1.0)
    # probes even in CPU time: half the pass at full speed, half at half
    # speed does 3/4 of the work a full-speed pass would
    assert speed.factor([ref, 2 * ref]) == pytest.approx(0.75)


class _HalfSpeedHost:
    """A probe stand-in: CPU time advances by hand, probes cost twice REFERENCE_S."""

    def __init__(self):
        self.now = 0.0
        self.probes = [2 * speed.REFERENCE_S]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def clock(self):
        return self.now

    def factor(self):
        return speed.factor(self.probes)


def test_timed_passes_scale_to_reference_speed():
    host = _HalfSpeedHost()

    def run_pass(index, clock):
        start = clock()
        host.now += 4.0
        return [{"seconds": clock() - start}]
    passes = run.timed_passes(run_pass, 1e9, fewest=2, most=2, probe=lambda: host)
    assert [p["cpu_s"] for p in passes] == [4.0, 4.0]
    assert [p["norm_cpu_s"] for p in passes] == [2.0, 2.0]
    assert [p["records"][0]["seconds"] for p in passes] == [2.0, 2.0]


def test_speed_probe_samples_and_restores():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval=0.01) as probe:
        start, cpu0 = probe.clock(), time.process_time()
        while time.process_time() - cpu0 < 0.3:
            sum(range(1000))
        net = probe.clock() - start
    assert len(probe.probes) >= 5
    assert 0.0 < net < time.process_time() - cpu0 - 0.9 * probe.spent
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- spans -------------------------------------------------------------------

def _modules(**functions):
    names = {module for module, *_ in tracer.BINDINGS}
    modules = {name: types.SimpleNamespace() for name in names}
    for module, attr, *_ in tracer.BINDINGS:
        setattr(modules[module], attr, functions.get(attr, lambda *a, **k: None))
    return modules


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tr = tracer.Tracer(_modules(), clock=lambda: next(ticks))
    outer = tr.open("outer")            # 0
    first = tr.open("child")            # 1
    tr.close(first)                     # 3
    second = tr.open("child")           # 4
    tr.close(second)                    # 7
    tr.close(outer)                     # 10
    assert [s.self_s for s in (first, second)] == [2.0, 3.0]
    assert outer.duration == 10.0 and outer.self_s == 5.0
    assert first.parent is outer and outer.parent is None
    assert sum(s.self_s for s in tr.spans) == outer.duration


def test_argument_counting_is_in_no_self_time():
    # parent opens at 0, child at 1 and returns at 2; counting its points
    # lasts until 5; the parent returns at 6
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0])
    modules = _modules(propagate_grid=lambda datum, m, x, t: None)
    tr = tracer.Tracer(modules, clock=lambda: next(ticks))
    grid = tr.wrap(lambda datum, m, x, t: None, "grid", counter="points")
    parent = tr.open("parent")
    grid(None, 0.5, np.zeros(3), 0.0)
    tr.close(parent)
    child = tr.spans[0]
    assert child.counts == {"points": 3}
    assert (child.self_s, parent.self_s) == (1.0, 2.0)


def test_tracer_wraps_where_callers_look_and_restores():
    modules = _modules(run_experiment=lambda cfg: modules["spectral"].integrate(cfg))
    originals = {(m, a): getattr(modules[m], a) for m, a, *_ in tracer.BINDINGS}
    with tracer.Tracer(modules) as tr:
        for (m, a), fn in originals.items():
            assert getattr(modules[m], a) is not fn
        modules["cli"].run_experiment(1)
    for (m, a), fn in originals.items():
        assert getattr(modules[m], a) is fn
    names = [s.name for s in tr.spans]
    assert names == ["quadrature.integrate", "experiments.run_experiment"]
    assert tr.spans[0].parent is tr.spans[1]


def test_failed_calls_are_marked_and_reraised():
    def boom(*args):
        raise ArithmeticError("budget")
    modules = _modules(integrate=boom)
    with tracer.Tracer(modules) as tr:
        with pytest.raises(ArithmeticError):
            modules["spectral"].integrate(None, None, (0, 1))
    assert tr.spans[0].failed
    assert tracer.layer_metrics(tr.spans, 1.0)["quadrature.integrate.failed"] == 1


def test_evaluated_counts_points_passed_to_the_grid_evaluator():
    def grid(datum, m, x, t):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape)

    def maximal(*args):
        modules["maximal"].propagate_grid(None, 0.5, np.zeros(5), 0.0)
        modules["maximal"].propagate_grid(None, 0.5, np.zeros((3, 1)), np.zeros(4))
    modules = _modules(propagate_grid=grid, maximal_in_time=maximal)
    with tracer.Tracer(modules) as tr:
        modules["experiments"].maximal_in_time()
        modules["experiments"].maximal_in_time()
    out = tracer.layer_metrics(tr.spans, 1.0)
    assert out["spectral.propagate_grid.points"] == 2 * (5 + 12)
    assert out["maximal.maximal_in_time.evaluated"] == 2 * (5 + 12)
    assert out["maximal.maximal_in_time.evaluated_per_call"] == 17


# -- radians -----------------------------------------------------------------

def test_radians_match_the_documented_bound():
    m, interval = 0.5, (0.5, 2.0)
    P = np.array([3.0, -2.0, 0.0])
    T = np.array([1.0, 4.0, -5.0])
    integrals, radians = tracer.batch_radians(
        P, T, lambda v: v, lambda v: np.abs(v) ** m, interval)
    span_l, span_s = 1.5, 2.0 ** m - 0.5 ** m
    assert integrals == 3
    assert radians == pytest.approx(np.sum(np.abs(P) * span_l + np.abs(T) * span_s))
    # the bound dominates the sampled total variation of every phase
    v = np.linspace(*interval, 20001)
    for p, t in zip(P, T):
        variation = np.abs(np.diff(p * v + t * np.sqrt(v))).sum()
        assert variation <= abs(p) * span_l + abs(t) * span_s + 1e-9


def test_radians_of_a_propagate_call():
    pkg, _ = run.load_package()
    datum = pkg.knapp_vertical_spatial(64.0)   # band [32, 128]
    expected = 0.3 * 96.0 + 0.7 * (128.0 ** 0.5 - 32.0 ** 0.5)
    assert workloads.phase_radians(datum, 0.3, 0.7) == pytest.approx(expected)


# -- failure counting --------------------------------------------------------

def test_pointwise_failures_count_without_wrong_outputs():
    pkg, modules = run.load_package()
    args = types.SimpleNamespace(workload="pointwise", seed=0, seconds=0.0, trace=0)
    bench = run.Run(args, pkg, modules)
    cantor = workloads.make_datum(pkg, "cantor", 4096.0)
    bench.inputs = [("band", 16.0, pkg.FourierDatum(), 0.2, 0.3),
                    ("cantor", 4096.0, cantor, 0.9, 0.5),
                    ("cantor", 4096.0, cantor, -0.4, 0.1)]
    passes = run.timed_passes(bench.run_pass, 0.0, fewest=2, most=2)
    bench.check(passes)
    assert (bench.attempted, bench.failed) == (6, 4)
    assert bench.failures == {"cantor: ToleranceNotMetError": 4}
    assert bench.problems == []
    # failures by family and scale are those of one pass
    assert bench.detail["integrate_failed_by_family_and_scale"] == {"cantor@2^12": 2}
    assert bench.detail["oracle_checked"] == 1
    assert bench.detail["oracle_unchecked"] == 0


def test_seed_orders_pointwise_calls_but_does_not_choose_them():
    pkg, _ = run.load_package()

    def key(call):
        family, lam, _, x, t = call
        return family, lam, x, t
    first = [key(c) for c in workloads.make_inputs(pkg, "pointwise", 1)]
    second = [key(c) for c in workloads.make_inputs(pkg, "pointwise", 2)]
    assert first != second and sorted(first) == sorted(second)
    assert len(first) == (len(workloads.FAMILIES) * len(workloads.LAMBDAS)
                          * workloads.POINTS_PER_COMBO)


def test_timed_passes_respects_fewest_most_and_budget():
    calls = []
    passes = run.timed_passes(lambda i, clock: calls.append(i) or [], 1e9,
                              fewest=1, most=4)
    assert calls == [0, 1, 2, 3] and len(passes) == 4
    calls.clear()
    run.timed_passes(lambda i, clock: calls.append(i) or [], 0.0, fewest=3, most=12)
    assert calls == [0, 1, 2]
    calls.clear()
    passes = run.timed_passes(lambda i, clock: calls.append(i) or [{"seconds": i}],
                              0.0, fewest=2, most=12, warmup=1)
    assert calls == [0, 1, 2]
    assert [p["records"][0]["seconds"] / p["speed_factor"] for p in passes] == [1, 2]


def test_ladder_mismatch_is_a_wrong_output(tmp_path):
    reference = {"points": [{"lambda": 16.0, "value": 1.0}], "slope": 0.5, "pass": True}
    out_dir = tmp_path / "op00"
    out_dir.mkdir()
    (out_dir / "covering.json").write_text(
        '{"points": [{"lambda": 16.0, "value": 1.0000001}], "slope": 0.5, "pass": true}')
    record = {"argv": ["covering"], "out_dir": str(out_dir), "seconds": 1.0,
              "code": 0, "stdout": "covering  PASS\n", "error": None}
    refs = {"covering": reference}
    assert "differs" in workloads.check_ladder_op(record, refs)
    refs["covering"]["points"][0]["value"] = 1.0000001 * (1 + 1e-11)
    assert workloads.check_ladder_op(record, refs) is None
    assert "exit code 1" in workloads.check_ladder_op(dict(record, code=1), refs)
    assert workloads.check_ladder_op(dict(record, error="boom"), refs) == "boom"
