"""Scale-ladder experiments, log-log slope fits, and report emission.

Every asymptotic claim handled by this package ends up here as a finite
geometric ladder in the frequency scale: run the pipeline at each scale,
fit a line through (log scale, log value), and compare the slope against
the predicted exponent.  Library modules only report numbers; this module
is the single place where pass/fail judgments live.

Reports are deterministic: identical configuration produces byte-identical
CSV and JSON files regardless of the thread count (CPL_THREADS), because
ladder points are aggregated in ladder order and jitter is off unless a
seed is set.
"""
from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import exponents
from .counterexamples import (cantor_data, cantor_selectors, h_N_eval, knapp_curve,
                              knapp_vertical_spatial, knapp_vertical_temporal,
                              matched_point_curve, matching_order, taylor_coeffs)
from .fitting import fit_loglog
from .geometry import (AlphaMeasure, Curve, bilinear_form_check, cantor_level,
                       covering_number, frostman_bound, frostman_constant, lq_mu_norm)
from .maximal import MAX_BASE_SAMPLES, GridSpec, maximal_in_time, maximal_over_lines
from .phase import check_kernel_envelope
from .spectral import FourierDatum, grid_work, propagate_grid, sobolev_norm

SCHEMA_VERSION = 1

__all__ = [
    "RunConfig",
    "ScalingExperiment",
    "PipelineResult",
    "PIPELINES",
    "run_experiment",
]


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Flat configuration for one experiment run.

    Integer fields set to 0 mean "use the experiment's own default"; the
    resolved value is echoed in the report.  seed=None disables grid jitter
    (the default); any integer seed jitters cell representatives
    reproducibly.  out_dir falls back to $CPL_OUT, then the working
    directory.
    """

    experiment: str = ""
    m: float = 0.5
    s: float = 0.35
    alpha: float = 1.0
    q: float = 2.0
    kappa: float = 1.0
    theta: float = 1.0
    r: float = 0.25
    k: int = 0                  # ladder depth for Cantor-based runs
    beta: float = 0.0
    eps: float = 0.05
    lam_min: float = 16.0
    lam_ratio: float = 2.0
    lam_count: int = 0
    x_cells: int = 0
    t_base: int = 0
    theta_nodes: int = 0
    grid_n: int = 64
    refine_depth: int = 2
    b_count: int = 7
    data: str = "spatial"       # sharpness-vertical: spatial | temporal
    variant: str = "vertical"   # kernel-envelope: vertical | curve
    calculator: str = "dim_bound_vertical"
    s_grid: str = "0.15:0.45:0.05"
    family: str = "band"        # propagate: band | spatial-knapp | temporal-knapp
    t: float = 0.5              #            | curve-knapp | cantor
    lam: float = 64.0
    out_dir: str = ""
    seed: int | None = None

    @classmethod
    def field_names(cls):
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_mapping(cls, mapping):
        known = cls.field_names()
        values = {}
        for key, raw in mapping.items():
            key = key.replace("-", "_")
            if key not in known:
                raise ValueError(f"unknown config key: {key!r}")
            values[key] = _coerce(cls, key, raw)
        return cls(**values)

    @classmethod
    def from_file(cls, path, overrides=None):
        values = {}
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"config line without '=': {line!r}")
                key, raw = line.split("=", 1)
                values[key.strip()] = raw.strip()
        values.update(overrides or {})
        return cls.from_mapping(values)


def _coerce(cls, key, raw):
    if not isinstance(raw, str):
        return raw
    kind = {f.name: f.type for f in fields(cls)}[key]
    if key == "seed":
        return None if raw.lower() in ("", "none", "off") else int(raw)
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


# Per-experiment defaults for the 0-valued integer fields above.
_AUTO = {
    "kernel-envelope": {"lam_count": 7},
    "sharpness-curve": {"x_cells": 24, "t_base": 257, "lam_count": 6},
    "sharpness-vertical": {"x_cells": 121, "t_base": 513, "lam_count": 7},
    "sharpness-lines": {"k": 6, "t_base": 257},
    "proposition-lines": {"x_cells": 141, "t_base": 129, "theta_nodes": 17,
                          "lam_count": 6},
    "covering": {"k": 12},
    "cantor": {"k": 6},
    "frostman": {},
    "exponent-table": {},
    "bilinear-check": {},
    "propagate": {},
}


def resolve_config(config: RunConfig) -> RunConfig:
    if config.experiment not in _AUTO:
        raise ValueError(f"unknown experiment: {config.experiment!r}")
    for f in fields(config):   # before any pipeline computes with a NaN or inf
        if f.type == "float" and not math.isfinite(getattr(config, f.name)):
            raise ValueError(f"{f.name} must be finite, got {getattr(config, f.name)}")
    auto = {key: value for key, value in _AUTO[config.experiment].items()
            if getattr(config, key) == 0}
    if not config.out_dir:
        auto["out_dir"] = os.environ.get("CPL_OUT", ".")
    return replace(config, **auto)


# --------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class ScalingExperiment:
    """One fitted ladder: per-scale measurements plus the log-log line."""

    lambdas: tuple
    values: tuple
    slope: float
    intercept: float
    r_squared: float

    @classmethod
    def from_points(cls, lambdas, values):
        lambdas = tuple(float(v) for v in lambdas)
        values = tuple(float(v) for v in values)
        if len(lambdas) < 5:
            raise ValueError("ladder needs at least 5 points")
        if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
            raise ValueError("ladder must be strictly increasing")
        if any(v <= 0 for v in values):
            raise ValueError("ladder values must be positive for a log-log fit")
        fit = fit_loglog(np.array(lambdas), np.array(values))
        return cls(lambdas, values, fit.slope, fit.intercept, fit.r_squared)


@dataclass(frozen=True)
class PipelineResult:
    experiment: ScalingExperiment | None
    columns: tuple
    rows: list
    predicted_slope: float | None
    tolerance: float | None
    passed: bool
    aux: dict


# --------------------------------------------------------------------------
# shared helpers


def _thread_count():
    try:
        n = int(os.environ.get("CPL_THREADS", "1"))
    except ValueError:
        n = 1
    return max(1, n)


def _map_ordered(fn, items):
    items = list(items)
    n = min(_thread_count(), len(items))
    if n <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


# Most rungs a ladder accepts.  Every rung is a full pipeline run, so the count
# bounds the work; 32 doublings span 2**31 in lambda, past every engine's limit.
MAX_LADDER_RUNGS = 32


def _ladder(cfg):
    """lam_min * lam_ratio**j, j < lam_count, refused before any rung runs
    unless it is 5 to ``MAX_LADDER_RUNGS`` finite, positive, increasing rungs."""
    lams = np.zeros(1)
    if 5 <= cfg.lam_count <= MAX_LADDER_RUNGS:
        with np.errstate(over="ignore"):
            lams = cfg.lam_min * cfg.lam_ratio ** np.arange(cfg.lam_count)
    if not (lams[0] > 0 and np.isfinite(lams[-1]) and np.all(np.diff(lams) > 0)):
        raise ValueError(f"a ladder needs 5 <= lam_count <= {MAX_LADDER_RUNGS} finite, "
                         f"positive, increasing rungs lam_min * lam_ratio**j, got "
                         f"lam_count={cfg.lam_count}, lam_min={cfg.lam_min}, "
                         f"lam_ratio={cfg.lam_ratio}")
    return [float(v) for v in lams]


def _geometric_cells(cfg, lo=1e-6):
    """Cell edges {0} + geomspace(lo,1); geometric-mean representatives, jittered."""
    edges = np.unique(np.concatenate([np.geomspace(lo, 1.0, cfg.x_cells), [0.0]]))
    reps = np.sqrt(edges[:-1] * edges[1:])
    reps[0] = 0.5 * edges[1]
    return edges, _jitter(cfg, reps, edges)


def _jitter(cfg, reps, edges):
    if cfg.seed is None:
        return reps
    rng = np.random.default_rng(cfg.seed)
    lo = edges[:-1] + 0.25 * np.diff(edges)
    hi = edges[1:] - 0.25 * np.diff(edges)
    return lo + rng.random(len(reps)) * (hi - lo)


def _grid(cfg, theta_per_component=2):
    return GridSpec(t_base=cfg.t_base, refine_depth=cfg.refine_depth,
                    theta_per_component=theta_per_component)


_SUP_COLUMNS = ("lambda", "value", "hs_norm", "ratio")


def _sup_ladder(rungs, rung, measure, q, s, fit_ratio=False):
    """Run a ladder of grid maxima and fit it.

    ``rung(item)`` gives (lambda, datum, per-cell maxima, cell edges, extra)
    for each item of ``rungs``.  A rung's value is the mixed norm of its
    maxima and its hs_norm the datum's Sobolev norm of order s.  Returns the
    ScalingExperiment of the values (of value/hs_norm when ``fit_ratio``),
    the log-log slope of hs_norm, the ``_SUP_COLUMNS`` rows and the extras.
    """
    points = _map_ordered(rung, rungs)
    lams = [p[0] for p in points]
    values = [lq_mu_norm(np.array(p[2]), measure, q, edges=np.array(p[3]))
              for p in points]
    hs = [sobolev_norm(p[1], s) for p in points]
    ratios = [v / h for v, h in zip(values, hs)]
    exp = ScalingExperiment.from_points(lams, ratios if fit_ratio else values)
    hs_slope = fit_loglog(np.array(lams), np.array(hs)).slope
    rows = [{"lambda": lam, "value": v, "hs_norm": h, "ratio": r}
            for lam, v, h, r in zip(lams, values, hs, ratios)]
    return exp, hs_slope, rows, [p[4] for p in points]


def _within(value, target, tol):
    return abs(value - target) <= tol


# Cost budgets checked before a pipeline starts: cantor_level builds 2**k
# tuples, and the top sharpness-lines rung has a base mesh of 2**(2k - 1) *
# t_base samples (MAX_BASE_SAMPLES bounds the vertical and curve rungs).
MAX_CANTOR_LEVEL = 16
MAX_SCREENED_SAMPLES = 2 ** 26


def _check_cantor_level(name, cfg):
    if not 0 <= cfg.k <= MAX_CANTOR_LEVEL:
        raise ValueError(f"{name} needs 0 <= k <= {MAX_CANTOR_LEVEL}, got k={cfg.k}")


def _check_base_samples(name, cfg):
    if not (cfg.x_cells >= 1 and cfg.x_cells * cfg.t_base <= MAX_BASE_SAMPLES):
        raise ValueError(f"{name} needs x_cells >= 1 with x_cells * t_base <= "
                         f"{MAX_BASE_SAMPLES} base samples per rung, got "
                         f"{cfg.x_cells} * {cfg.t_base}")


# --------------------------------------------------------------------------
# pipelines


def _run_kernel_envelope(cfg):
    report = check_kernel_envelope(cfg.variant, cfg.m, cfg.alpha, cfg.q,
                                   _ladder(cfg), eps=cfg.eps, grid_n=cfg.grid_n)
    exp = ScalingExperiment.from_points(report.lams, report.sup_ratios)
    rows = [{"lambda": lam, "value": val}
            for lam, val in zip(exp.lambdas, exp.values)]
    tol = 0.05
    return PipelineResult(exp, ("lambda", "value"), rows, 0.0, tol,
                          exp.slope <= tol,
                          {"failed_points": report.failed_points})


def _run_sharpness_curve(cfg):
    _check_base_samples("sharpness-curve", cfg)
    order = matching_order(cfg.m)
    coeffs = taylor_coeffs(cfg.kappa, order)
    curve = Curve.power(theta=cfg.theta, kappa=cfg.kappa)
    grid = _grid(cfg)

    def rung(lam):
        datum = knapp_curve(lam, cfg.m, cfg.kappa, cfg.theta)
        tau_cap = lam ** -cfg.m / 100.0
        x_max = cfg.theta * h_N_eval(tau_cap, coeffs)
        if not x_max > 0:
            raise ValueError(f"sharpness-curve cells need theta > 0 "
                             f"(got cells ending at x={x_max})")
        edges = np.linspace(0.0, x_max, cfg.x_cells + 1)
        reps = _jitter(cfg, 0.5 * (edges[:-1] + edges[1:]), edges)
        matched = [matched_point_curve(x, lam, cfg.m, cfg.kappa, theta=cfg.theta)
                   for x in reps]
        t_w = np.array([[point.t] for point, _ in matched])
        sups = maximal_in_time(datum, cfg.m, curve, reps, grid, extra_t=t_w)
        return lam, datum, sups, edges, max(residual for _, residual in matched)

    exp, hs_slope, rows, resids = _sup_ladder(
        _ladder(cfg), rung, AlphaMeasure(cfg.alpha), cfg.q, cfg.s)
    resid_max = max(resids)
    predicted = -cfg.m * cfg.alpha / cfg.q
    hs_predicted = cfg.s - 0.5
    passed = (_within(exp.slope, predicted, 0.1)
              and _within(hs_slope, hs_predicted, 0.02)
              and resid_max <= 0.5)
    return PipelineResult(exp, _SUP_COLUMNS, rows, predicted, 0.1, passed,
                          {"hs_slope": hs_slope, "hs_predicted": hs_predicted,
                           "residual_max": resid_max})


def _run_sharpness_vertical(cfg):
    if cfg.data not in ("spatial", "temporal"):
        raise ValueError(f"data must be 'spatial' or 'temporal', got {cfg.data!r}")
    _check_base_samples("sharpness-vertical", cfg)
    curve = Curve.vertical()
    edges, reps = _geometric_cells(cfg)
    grid = _grid(cfg)

    def rung(lam):
        if cfg.data == "spatial":
            datum = knapp_vertical_spatial(lam)
            t_w = np.zeros_like(reps)
        else:
            datum = knapp_vertical_temporal(lam, cfg.m)
            # stationary time of the band-center frequency
            lo, hi = datum.support
            xi_c = 0.5 * (lo + hi)
            t_w = np.minimum(1.0, reps / (cfg.m * abs(xi_c) ** (cfg.m - 1.0)))
        sups = maximal_in_time(datum, cfg.m, curve, reps, grid, extra_t=t_w[:, None])
        return lam, datum, sups, edges, None

    exp, hs_slope, rows, _ = _sup_ladder(
        _ladder(cfg), rung, AlphaMeasure(cfg.alpha), cfg.q, cfg.s)
    if cfg.data == "spatial":
        predicted = 1.0 - cfg.alpha / cfg.q
        passed = _within(exp.slope, predicted, 0.1)
        aux = {"hs_slope": hs_slope}
    else:
        # temporal ladder is reported without a slope assertion
        predicted = None
        passed = True
        aux = {"hs_slope": hs_slope, "asserted": False}
    return PipelineResult(exp, _SUP_COLUMNS, rows, predicted, 0.1, passed, aux)


def _run_sharpness_lines(cfg):
    if not (1 <= cfg.k <= MAX_CANTOR_LEVEL
            and 2 ** (2 * cfg.k - 1) * cfg.t_base <= MAX_SCREENED_SAMPLES):
        raise ValueError(f"sharpness-lines needs 1 <= k <= {MAX_CANTOR_LEVEL} with "
                         f"2**(2k - 1) * t_base <= {MAX_SCREENED_SAMPLES} base-mesh "
                         f"samples per rung, got k={cfg.k}, t_base={cfg.t_base}")
    beta = math.log(2.0) / math.log(1.0 / cfg.r)
    grid = _grid(cfg)

    def rung(level):
        lam = (1.0 / cfg.r) ** level
        prefractal = cantor_level(cfg.r, level)
        comps = [c for c in prefractal.intervals if c[0] >= 0.5 - 1e-12]
        datum = cantor_data(lam, cfg.m)
        xs = np.array([0.5 * (lo + hi) for lo, hi in comps])
        points = [cantor_selectors(x, prefractal) for x in xs]
        sups = maximal_over_lines(datum, cfg.m, comps, xs, grid,
                                  extra=[[(p.theta, p.t)] for p in points])
        edges, values = [comps[0][0]], []
        for (lo, hi), sup in zip(comps, sups):
            if edges[-1] != lo:          # gap cell carries no sampled value
                edges.append(lo)
                values.append(0.0)
            edges.append(hi)
            values.append(sup)
        return lam, datum, values, edges, None

    exp, hs_slope, rows, _ = _sup_ladder(
        range(1, cfg.k + 1), rung, AlphaMeasure(1.0), cfg.q, cfg.s)
    predicted = 1.0 / cfg.m + beta / cfg.q - 1.0 / cfg.q
    hs_predicted = cfg.s / cfg.m + 1.0 / (2.0 * cfg.m)
    passed = (_within(exp.slope, predicted, 0.15)
              and _within(hs_slope, hs_predicted, 0.02))
    return PipelineResult(exp, _SUP_COLUMNS, rows, predicted, 0.15, passed,
                          {"hs_slope": hs_slope, "hs_predicted": hs_predicted,
                           "beta": beta})


def _run_proposition_lines(cfg):
    s_star = exponents.s_star_lines(cfg.m, cfg.alpha, cfg.q)
    edges, reps = _geometric_cells(cfg)
    grid = _grid(cfg, theta_per_component=cfg.theta_nodes)

    def rung(lam):
        theta_max = lam ** (-cfg.q * s_star / cfg.alpha)
        datum = FourierDatum(scale=1.0 / lam, fractional_phase=-0.5, m=cfg.m)
        extra = [[(2.0 * x, 0.5)] if 2.0 * x <= theta_max
                 else [(theta_max, min(1.0, x / theta_max))] for x in reps]
        sups = maximal_over_lines(datum, cfg.m, [(0.0, theta_max)], reps, grid,
                                  extra=extra)
        return lam, datum, sups, edges, None

    exp, _, rows, _ = _sup_ladder(
        _ladder(cfg), rung, AlphaMeasure(cfg.alpha), cfg.q, 0.0, fit_ratio=True)
    predicted = 0.5 - s_star
    passed = exp.slope <= predicted + 0.1
    return PipelineResult(exp, _SUP_COLUMNS, rows, predicted, 0.1, passed,
                          {"s_star": s_star})


def _run_covering(cfg):
    _check_cantor_level("covering", cfg)
    s_star = exponents.s_star_lines(cfg.m, cfg.alpha, cfg.q)
    expo = cfg.q * s_star / cfg.alpha
    beta = math.log(2.0) / math.log(1.0 / cfg.r)
    intervals = cantor_level(cfg.r, cfg.k).intervals
    # stay above the prefractal's own resolution so counts do not saturate
    j_max = int(cfg.k * math.log(1.0 / cfg.r) / (expo * math.log(2.0)))
    js = list(range(1, min(j_max, 32) + 1))
    if len(js) < 5:
        raise ValueError("covering ladder too short; increase k")
    counts = [covering_number(intervals, 2.0 ** (-expo * j)) for j in js]
    freqs = [2.0 ** j for j in js]
    exp = ScalingExperiment.from_points(freqs, counts)
    rows = [{"lambda": f, "value": c} for f, c in zip(freqs, counts)]
    predicted = expo * beta
    passed = exp.slope <= predicted + cfg.eps
    return PipelineResult(exp, ("lambda", "value"), rows, predicted, cfg.eps,
                          passed, {"beta": beta, "s_star": s_star})


def _run_frostman(cfg):
    measure = AlphaMeasure(cfg.alpha)
    constant = frostman_constant(measure)
    bound = frostman_bound(cfg.alpha)
    rows = [{"alpha": cfg.alpha, "constant": constant, "bound": bound}]
    return PipelineResult(None, ("alpha", "constant", "bound"), rows, None,
                          None, constant <= 1.01 * bound, {})


def _run_cantor(cfg):
    _check_cantor_level("cantor", cfg)
    prefractal = cantor_level(cfg.r, cfg.k)
    rows, ok = [], True
    for j in range(cfg.k + 1):
        count = covering_number(prefractal.intervals, cfg.r ** j)
        rows.append({"j": j, "count": count, "expected": 2 ** j})
        ok = ok and count == 2 ** j
    return PipelineResult(None, ("j", "count", "expected"), rows, None, None,
                          ok, {"set": prefractal.to_json()})


_TABLE_BY_S = {
    "dim_bound_vertical": lambda cfg, s: exponents.dim_bound_vertical(s, cfg.m),
    "dim_bound_curve": lambda cfg, s: exponents.dim_bound_curve(s, cfg.m),
    "dim_bound_lines": lambda cfg, s: exponents.dim_bound_lines(s, cfg.m, cfg.beta),
    "summary_dim_bound": lambda cfg, s: exponents.summary_dim_bound(s, cfg.m, cfg.kappa),
}
_TABLE_FLAT = {
    "threshold_vertical": lambda cfg: exponents.threshold_vertical(cfg.m, cfg.alpha, cfg.q),
    "threshold_lines": lambda cfg: exponents.threshold_lines(cfg.m, cfg.beta),
    "s_star_vertical": lambda cfg: exponents.s_star_vertical(cfg.m, cfg.alpha, cfg.q),
    "s_star_curve": lambda cfg: exponents.s_star_curve(cfg.m, cfg.alpha, cfg.q),
    "s_star_lines": lambda cfg: exponents.s_star_lines(cfg.m, cfg.alpha, cfg.q),
    "summary_thresholds": lambda cfg: exponents.summary_thresholds(cfg.m, cfg.kappa),
}
# Largest number of s values an exponent table accepts; larger, reversed or
# non-advancing grids are refused before any row is computed.
MAX_S_GRID_POINTS = 10_000


def _run_exponent_table(cfg):
    if cfg.calculator in _TABLE_FLAT:
        rows = [{"value": _TABLE_FLAT[cfg.calculator](cfg)}]
        return PipelineResult(None, ("value",), rows, None, None, True, {})
    if cfg.calculator not in _TABLE_BY_S:
        known = sorted(_TABLE_FLAT) + sorted(_TABLE_BY_S)
        raise ValueError(f"unknown calculator {cfg.calculator!r}; expected one of {known}")
    lo, hi, step = (float(part) for part in cfg.s_grid.split(":"))
    if not (hi >= lo and step > 0 and (hi - lo) / step <= MAX_S_GRID_POINTS - 1):
        raise ValueError(f"s_grid lo:hi:step needs lo <= hi, step > 0 and at most "
                         f"{MAX_S_GRID_POINTS} points, got {cfg.s_grid!r}")
    rows, skipped = [], []
    for s in np.arange(lo, hi + 0.5 * step, step):
        s = round(float(s), 12)
        try:
            rows.append({"s": s, "value": _TABLE_BY_S[cfg.calculator](cfg, s)})
        except ValueError as err:
            skipped.append({"s": s, "reason": str(err)})
    return PipelineResult(None, ("s", "value"), rows, None, None, True,
                          {"skipped": skipped})


# Largest x_cells that bilinear-check accepts (grid_n <= 1024, b_count <= 8).
# Each width b holds x_cells**2 cell distances and kernel entries; larger
# requests are refused before anything is allocated.
MAX_BILINEAR_CELLS = 2 ** 10


def _run_bilinear(cfg):
    if not (1 <= cfg.grid_n <= MAX_BILINEAR_CELLS
            and 1 <= cfg.b_count <= math.log2(MAX_BILINEAR_CELLS) - 2):
        raise ValueError(f"bilinear-check needs grid_n >= 1 and b_count >= 1 with "
                         f"max(grid_n, 2**(b_count + 2)) <= {MAX_BILINEAR_CELLS} "
                         f"x cells, got grid_n={cfg.grid_n}, b_count={cfg.b_count}")
    measure = AlphaMeasure(cfg.alpha)
    ones = lambda x, t: np.ones_like(np.asarray(x, dtype=float))
    bs = [2.0 ** -(j + 1) for j in range(cfg.b_count)]
    # cell spacing must stay below the thinnest indicator band
    x_cells = max(cfg.grid_n, 2 ** (cfg.b_count + 2))
    checks = _map_ordered(
        lambda b: bilinear_form_check(ones, ones, measure, cfg.q, b=b,
                                      x_cells=x_cells, t_cells=64), bs)
    rows = [{"b": b, "form": chk.form_value, "bound": chk.bound_side,
             "constant": chk.constant} for b, chk in zip(bs, checks)]
    exp = ScalingExperiment.from_points(
        sorted(bs), [chk.form_value for b, chk in sorted(zip(bs, checks))])
    predicted = 2.0 * cfg.alpha / cfg.q
    return PipelineResult(exp, ("b", "form", "bound", "constant"), rows,
                          predicted, 0.05, exp.slope >= predicted - 0.05,
                          {"b_slope": exp.slope})


_FAMILIES = {
    "band": lambda cfg: FourierDatum(),
    "spatial-knapp": lambda cfg: knapp_vertical_spatial(cfg.lam),
    "temporal-knapp": lambda cfg: knapp_vertical_temporal(cfg.lam, cfg.m),
    "curve-knapp": lambda cfg: knapp_curve(cfg.lam, cfg.m, cfg.kappa, cfg.theta),
    "cantor": lambda cfg: cantor_data(cfg.lam, cfg.m),
}


# Most points and batch-rule nodes propagate accepts, checked before any work.
# The nodes are those the flat route builds, as `grid_work` counts them: 64
# cantor points at lam=1024 build 6.66e7 and 65 build 6.72e7, past the limit.
# About 7 s of CPU at the node limit on a 2-CPU x86-64 host: those 64 points
# took 5.1 s, 2**16 band points (1.7e7 nodes) 0.7 s.
MAX_PROPAGATE_POINTS = 2 ** 16
MAX_PROPAGATE_NODES = 2 ** 26


def _run_propagate(cfg):
    if not cfg.lam >= 1:
        raise ValueError(f"propagate needs a scale lam >= 1, got {cfg.lam}")
    if cfg.family not in _FAMILIES:
        raise ValueError(f"unknown family {cfg.family!r}; expected one of "
                         f"{sorted(_FAMILIES)}")
    if not 1 <= cfg.grid_n <= MAX_PROPAGATE_POINTS:
        raise ValueError(f"propagate needs 1 <= grid_n <= {MAX_PROPAGATE_POINTS} "
                         f"points, got {cfg.grid_n}")
    datum = _FAMILIES[cfg.family](cfg)
    xs = np.linspace(0.0, 1.0, cfg.grid_n)
    nodes = grid_work(datum, cfg.m, xs, cfg.t)
    if nodes > MAX_PROPAGATE_NODES:
        raise ValueError(f"propagate needs at most {MAX_PROPAGATE_NODES} trapezoid "
                         f"nodes, got {nodes:.3g} for grid_n={cfg.grid_n}")
    values = np.abs(propagate_grid(datum, cfg.m, xs, np.full(cfg.grid_n, cfg.t)))
    rows = [{"x": float(x), "value": float(v)} for x, v in zip(xs, values)]
    return PipelineResult(None, ("x", "value"), rows, None, None, True,
                          {"family": cfg.family, "t": cfg.t, "lam": cfg.lam})


PIPELINES = {
    "propagate": _run_propagate,
    "kernel-envelope": _run_kernel_envelope,
    "sharpness-vertical": _run_sharpness_vertical,
    "sharpness-curve": _run_sharpness_curve,
    "sharpness-lines": _run_sharpness_lines,
    "proposition-lines": _run_proposition_lines,
    "covering": _run_covering,
    "frostman": _run_frostman,
    "cantor": _run_cantor,
    "exponent-table": _run_exponent_table,
    "bilinear-check": _run_bilinear,
}


# --------------------------------------------------------------------------
# report emission


def _report_dict(cfg, result):
    exp = result.experiment
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "config": asdict(cfg),
        "points": result.rows,
        "slope": None if exp is None else exp.slope,
        "intercept": None if exp is None else exp.intercept,
        "r2": None if exp is None else exp.r_squared,
        "predicted_slope": result.predicted_slope,
        "tolerance": result.tolerance,
        "pass": bool(result.passed),
        "aux": result.aux,
    }


def _write_outputs(cfg, result, report):
    try:   # before any file is opened, so a refused report leaves none behind
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError("the report holds a NaN or an infinity, which strict JSON "
                         "cannot carry") from None
    os.makedirs(cfg.out_dir, exist_ok=True)
    base = os.path.join(cfg.out_dir, cfg.experiment)
    with open(base + ".csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(result.columns))
        writer.writeheader()
        writer.writerows(result.rows)
    with open(base + ".json", "w") as fh:
        fh.write(text)


def run_experiment(config: RunConfig, write=True):
    """Execute the named pipeline; returns (PipelineResult, report dict)."""
    cfg = resolve_config(config)
    result = PIPELINES[cfg.experiment](cfg)
    report = _report_dict(cfg, result)
    if write:
        _write_outputs(cfg, result, report)
    return result, report
