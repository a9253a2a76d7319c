"""Acceptance gate: one test per headline claim of the package.

Each test ends in a single printed verdict line; run with ``pytest -s``
to see the measured numbers, or plain ``pytest -v`` for the per-criterion
pass/fail list.  Pipeline runs use write=False and leave no files behind.

Each gated pipeline's slope and point floats, and the fast values of
criteria 02 and 03, are also checked against ``pins.json`` (see ``_pin``),
inside the same test, so no pipeline runs twice.  ``record_pins.py`` in this
directory re-records the file.
"""
import json
import math
from pathlib import Path

import numpy as np

from concave_phase_lab.counterexamples import knapp_curve, knapp_vertical_spatial
from concave_phase_lab.experiments import RunConfig, run_experiment
from concave_phase_lab.exponents import (KAPPA_INF, dim_bound_curve,
                                         dim_bound_lines, dim_bound_vertical,
                                         s_star_curve, s_star_lines,
                                         s_star_vertical, summary_dim_bound,
                                         summary_thresholds, threshold_lines,
                                         threshold_vertical)
from concave_phase_lab.geometry import (AlphaMeasure, cantor_level,
                                        covering_number, frostman_bound,
                                        frostman_constant, minkowski_dimension)
from concave_phase_lab.phase import sample_derivative_constants
from concave_phase_lab.quadrature import integrate, oracle_integrate, two_phase_batch
from concave_phase_lab.spectral import BUMP, FourierDatum, propagate

BAND = (0.5, 2.0)
PINS = Path(__file__).with_name("pins.json")
PIN_REL_TOL = 1e-10
RECORDED = None   # record_pins.py sets a dict here, and writes it to PINS


def _pin(key, values, floor=0.0):
    """Check the floats ``values`` against ``pins.json[key]``: each within
    ``PIN_REL_TOL`` * (|pinned| + floor).  floor = 1 for the quadrature values
    of criteria 02 and 03, whose own measure is |fast - slow| / (1 + |slow|);
    0 for report floats, so a pinned 0 must stay 0.  The north star allows a
    speedup to move an acceptance number by about 1e-10 relative, and that
    is the edge of what these pins see: N_MIN 257 -> 129 moved the gated
    numbers by at most 1.7e-10.  A change that moves a pin re-records the
    file and lists old -> new."""
    values = np.array([float(v) for v in values])
    if RECORDED is not None:
        RECORDED[key] = values.tolist()
        return
    pinned = np.array(json.loads(PINS.read_text())[key])
    assert values.shape == pinned.shape, key
    moved = np.abs(values - pinned) > PIN_REL_TOL * (np.abs(pinned) + floor)
    assert not moved.any(), f"{key}: {np.flatnonzero(moved)} moved from {pinned[moved]} " \
                            f"to {values[moved]}"


def _pin_report(key, report):
    """Pin a pipeline report's slope and every float of its points."""
    _pin(key, [report["slope"]] + [v for row in report["points"] for v in row.values()])


def _pin_complex(key, values):
    """Pin complex quadrature values by their real and imaginary parts."""
    _pin(key, np.column_stack([np.real(values), np.imag(values)]).ravel(), floor=1.0)


def _report(num, label, ok, detail):
    flag = "PASS" if ok else "FAIL"
    line = f"[{flag}] criterion {num:02d}  {label}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_closed_form_exponents():
    checks = [
        (threshold_vertical(0.5, 1.0, 2.0), 0.125),
        (threshold_vertical(1.0, 1.0, 2.0), 0.25),
        (threshold_vertical(0.5, 1.0, 4.0), 0.25),
        (s_star_vertical(0.5, 1.0, 2.0), 0.375),
        (s_star_curve(0.5, 1.0, 2.0), 0.125),
        (s_star_lines(0.5, 1.0, 2.0), 0.125),
        (dim_bound_vertical(0.3, 0.5), 0.4),
        (dim_bound_curve(0.4, 0.5), 0.4),
        (dim_bound_curve(0.45, 0.25), 0.4),
        (threshold_lines(0.5, 0.5), 0.4375),
        (dim_bound_lines(0.45, 0.5, 0.5), 5.0 / 6.0),
        (summary_thresholds(0.5, KAPPA_INF), 0.125),
        (summary_thresholds(0.5, 1.0), 0.375),
        (summary_thresholds(2.0, 1.0), 0.25),
        (summary_dim_bound(0.3, 2.0, 1.0), 0.4),
        (summary_dim_bound(0.4, 0.5, 1.0), 0.4),
        (summary_dim_bound(0.3, 0.5, KAPPA_INF), 0.4),
    ]
    table_dev = max(abs(got - want) for got, want in checks)

    # the two branches of the vertical bound meet at s = 1/4 for every m
    cross_dev = max(abs(dim_bound_vertical(0.25, m) - 0.5)
                    for m in np.linspace(0.05, 0.95, 19))

    # a zero-thickness line family collapses to the single-curve bound
    collapse_dev = 0.0
    for m in np.linspace(0.1, 0.9, 20):
        lo = threshold_lines(m, 0.0) + 1e-3
        for s in np.linspace(lo, 0.5 - 1e-3, 20):
            collapse_dev = max(collapse_dev, abs(dim_bound_lines(s, m, 0.0)
                                                 - dim_bound_curve(s, m)))

    ok = max(table_dev, cross_dev, collapse_dev) < 1e-12
    _report(1, "closed-form exponents", ok,
            f"table dev {table_dev:.1e}, s=1/4 crossing dev {cross_dev:.1e}, "
            f"beta=0 collapse dev {collapse_dev:.1e} (all < 1e-12)")


def test_criterion_02_quadrature_matches_oracle():
    rng = np.random.default_rng(20240815)
    worst, fasts = 0.0, []
    for _ in range(150):
        lam = 2.0 ** rng.uniform(0, 12)
        p = rng.uniform(-1.5, 1.5) * lam
        t = rng.uniform(-1.0, 1.0) * lam ** 0.5
        m = rng.uniform(0.2, 0.9)
        phase = lambda v, p=p, t=t, m=m: p * v + t * v ** m
        fast = integrate(BUMP, phase, BAND)
        slow = oracle_integrate(BUMP, phase, BAND)
        fasts.append(fast)
        worst = max(worst, abs(fast - slow) / (1.0 + abs(slow)))
    n = 50
    lam = 2.0 ** rng.uniform(0, 12, size=n)
    P = rng.uniform(-1.5, 1.5, size=n) * lam
    T = rng.uniform(-1.0, 1.0, size=n) * np.sqrt(lam)
    vals = two_phase_batch(P, T, lambda v: v, lambda v: np.sqrt(v), BUMP, BAND)
    for i in range(n):
        phase = lambda v, i=i: P[i] * v + T[i] * np.sqrt(v)
        ref = oracle_integrate(BUMP, phase, BAND)
        worst = max(worst, abs(vals[i] - ref) / (1.0 + abs(ref)))
    _pin_complex("criterion_02", fasts + list(vals))
    ok = worst <= 1e-6
    _report(2, "oscillatory quadrature vs dense oracle", ok,
            f"200 randomized integrands up to lambda=2^12, "
            f"worst rel dev {worst:.2e} (<= 1e-6)")


def test_criterion_03_time_zero_identity():
    families = [FourierDatum(),
                knapp_vertical_spatial(2.0 ** 5),
                knapp_curve(2.0 ** 4, 0.5, 1.0, 1.0)]
    xs = np.linspace(-1.0, 1.0, 64)
    worst, fasts = 0.0, []
    for datum in families:
        for x in xs:
            fast = propagate(datum, 0.5, x, 0.0)
            slow = propagate(datum, 0.5, x, 0.0, method="oracle")
            fasts.append(fast)
            worst = max(worst, abs(fast - slow) / (1.0 + abs(slow)))
    _pin_complex("criterion_03", fasts)
    ok = worst <= 1e-8
    _report(3, "t=0 propagator identity", ok,
            f"3 data families x 64 points, worst rel dev {worst:.2e} (<= 1e-8)")


def test_criterion_04_kernel_dominated_by_envelope():
    parts, ok = [], True
    for variant in ("vertical", "curve"):
        result, report = run_experiment(RunConfig(experiment="kernel-envelope",
                                                  variant=variant, lam_count=9),
                                        write=False)
        _pin_report(f"criterion_04_{variant}", report)
        clean = sum(result.aux["failed_points"]) == 0
        ok = ok and result.passed and clean
        parts.append(f"{variant} slope {result.experiment.slope:+.4f}")
    _report(4, "kernel/envelope sup ratio", ok,
            ", ".join(parts) + " over lambda=2^4..2^12 on a 64x64 grid "
            "(slope <= 0.05, no failed points)")


def test_criterion_05_derivative_constants_stable():
    sample = sample_derivative_constants(100, seed=20240801)
    c1 = np.asarray(sample.c_first)
    c2 = np.asarray(sample.c_second)
    cv1 = float(c1.std() / c1.mean())
    cv2 = float(c2.std() / c2.mean())
    ok = c1.min() > 0.0 and c2.min() > 0.0 and cv1 <= 0.5 and cv2 <= 0.5
    _report(5, "split derivative constants", ok,
            f"100 configs: first-order min {c1.min():.3f} CV {cv1:.3f}, "
            f"second-order min {c2.min():.3f} CV {cv2:.3f} "
            "(all positive, CV <= 0.5)")


def test_criterion_06_curve_knapp_ladder():
    parts, ok = [], True
    for kappa in (1.0, 2.0):
        result, report = run_experiment(RunConfig(experiment="sharpness-curve",
                                                  kappa=kappa), write=False)
        _pin_report(f"criterion_06_kappa_{kappa:g}", report)
        ok = ok and result.passed
        parts.append(f"kappa={kappa:g} slope {result.experiment.slope:+.4f} "
                     f"hs {result.aux['hs_slope']:+.4f} "
                     f"resid {result.aux['residual_max']:.3f}")
    _report(6, "curve Knapp sharpness", ok,
            ", ".join(parts) + " (want -0.25+-0.1, s-1/2+-0.02, resid <= 1/2)")


def test_criterion_07_cantor_lines_ladder():
    result, report = run_experiment(RunConfig(experiment="sharpness-lines", s=0.3),
                                    write=False)
    _pin_report("criterion_07", report)
    _report(7, "Cantor line-family sharpness", result.passed,
            f"slope {result.experiment.slope:+.4f} (want 1.75+-0.15), "
            f"hs {result.aux['hs_slope']:+.4f} (want 1.60+-0.02)")


def test_criterion_08_vertical_knapp_ladder():
    parts, ok = [], True
    for alpha in (1.0, 0.5):
        result, report = run_experiment(RunConfig(experiment="sharpness-vertical",
                                                  data="spatial", alpha=alpha),
                                        write=False)
        _pin_report(f"criterion_08_alpha_{alpha:g}", report)
        ok = ok and result.passed
        parts.append(f"alpha={alpha:g} slope {result.experiment.slope:+.4f} "
                     f"(want {1.0 - alpha / 2.0:+.2f}+-0.1)")
    _report(8, "vertical Knapp sharpness", ok, ", ".join(parts))


def test_criterion_09_fractal_measure_geometry():
    worst_ratio = max(frostman_constant(AlphaMeasure(a)) / frostman_bound(a)
                      for a in (0.25, 0.5, 0.75, 1.0))
    prefractal = cantor_level(1.0 / 3.0, 8)
    dim = minkowski_dimension(prefractal.intervals,
                              [3.0 ** -j for j in range(1, 9)])
    target = math.log(2.0) / math.log(3.0)
    counts_exact = all(covering_number(prefractal.intervals, 3.0 ** -j) == 2 ** j
                       for j in range(0, 9))
    ok = worst_ratio <= 1.01 and abs(dim - target) <= 0.03 and counts_exact
    _report(9, "fractal measure geometry", ok,
            f"Frostman ratio {worst_ratio:.4f} (<= 1.01), Minkowski dev "
            f"{abs(dim - target):.1e} (<= 0.03), covering counts exact: "
            f"{counts_exact}")


def test_criterion_10_bilinear_lower_bound():
    result, report = run_experiment(RunConfig(experiment="bilinear-check", alpha=0.5,
                                              b_count=7), write=False)
    _pin_report("criterion_10", report)
    ok = result.passed and result.aux["b_slope"] >= 0.45
    _report(10, "bilinear form lower bound", ok,
            f"b-slope {result.aux['b_slope']:+.4f} over b=2^-1..2^-7 "
            "(want >= 2a/q - 0.05 = 0.45)")


def test_criterion_11_small_ball_ratio_ladder():
    result, report = run_experiment(RunConfig(experiment="proposition-lines"),
                                    write=False)
    _pin_report("criterion_11", report)
    bound = result.predicted_slope + result.tolerance
    ok = result.passed and result.experiment.slope <= bound
    _report(11, "small-ball ratio growth", ok,
            f"slope {result.experiment.slope:+.4f} over lambda=2^4..2^9 "
            f"(want <= 1/2 - s* + 0.1 = {bound:.3f})")
