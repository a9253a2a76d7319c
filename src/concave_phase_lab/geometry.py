"""Paths, fractal measures, Cantor prefractals, and singular-weight sums.

Geometric side of the maximal-function experiments: the convergence paths
x - theta*t^kappa (vertical lines at theta = 0), the alpha-dimensional weights
|x|^(alpha-1)dx on the unit interval with exact interval masses,
middle-removal Cantor prefractals with covering counts and Minkowski slope
estimation, and the discrete bilinear forms with a near-diagonal indicator
kernel that the dispersive estimates are reduced to.

The measure never enters through pointwise sampling of the singular weight:
every weighted sum uses the exact cell mass (b^alpha - a^alpha)/alpha, so
the singularity at 0 costs nothing in accuracy.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Curve",
    "AlphaMeasure",
    "CantorSet",
    "curve_eval",
    "frostman_constant",
    "frostman_bound",
    "lq_mu_norm",
    "cantor_level",
    "covering_number",
    "minkowski_dimension",
    "bilinear_form_check",
    "BilinearCheck",
]

@dataclass(frozen=True)
class Curve:
    """The convergence path t -> x - theta*t^kappa, anchored at x when t = 0.

    Every path is a translate of the one through 0; theta = 0 is the
    vertical line.
    """

    theta: float = 0.0
    kappa: float = 1.0

    def __post_init__(self):
        if self.theta < 0:
            raise ValueError("theta must be nonnegative")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")

    @classmethod
    def vertical(cls):
        return cls()

    @classmethod
    def power(cls, theta: float, kappa: float):
        return cls(theta=theta, kappa=kappa)


def curve_eval(curve: Curve, x, t):
    """Position x - theta*t^kappa of the path through x at time t; vectorized."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return x - curve.theta * np.power(t, curve.kappa)


@dataclass(frozen=True)
class AlphaMeasure:
    """The weight |x|^(alpha-1)dx on (0,1), with exact interval masses."""

    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")

    def mass(self, lo, hi):
        """mu([lo,hi] intersect (0,1)) = (hi^alpha - lo^alpha)/alpha, exactly."""
        lo = np.clip(np.asarray(lo, dtype=float), 0.0, 1.0)
        hi = np.clip(np.asarray(hi, dtype=float), 0.0, 1.0)
        with np.errstate(over="ignore"):   # inf for a subnormal alpha; reports refuse it
            out = (np.power(hi, self.alpha) - np.power(lo, self.alpha)) / self.alpha
        return np.maximum(out, 0.0)


def frostman_bound(alpha: float) -> float:
    """Closed-form ceiling 2*3^alpha/alpha for sup mu(B(a,r))/r^alpha."""
    return 2.0 * 3.0 ** alpha / alpha


def frostman_constant(measure: AlphaMeasure, radius_grid=None, center_grid=None) -> float:
    """Grid supremum of mu(B(a, r))/r^alpha.

    Finiteness of this constant is what makes the weight genuinely
    alpha-dimensional; the sup stays below :func:`frostman_bound`.
    Defaults scan 1000 centers across [0,1] and 1000 radii down to 1e-6.
    """
    if radius_grid is None:
        radius_grid = np.geomspace(1e-6, 1.0, 1000)
    if center_grid is None:
        center_grid = np.linspace(0.0, 1.0, 1000)
    r = np.asarray(radius_grid, dtype=float)[None, :]
    a = np.asarray(center_grid, dtype=float)[:, None]
    if np.any(r <= 0):
        raise ValueError("radii must be positive")
    ratio = measure.mass(a - r, a + r) / np.power(r, measure.alpha)
    return float(ratio.max())


def lq_mu_norm(samples, measure: AlphaMeasure, q: float, edges) -> float:
    """Weighted counting norm (sum_cells |value|^q * mu(cell))^(1/q).

    ``samples`` holds one value per cell of ``edges``.  Cell masses are
    exact, so the value is exact for piecewise-constant samples.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing with >= 2 nodes")
    values = np.asarray(samples, dtype=float)
    if values.shape != (len(edges) - 1,):
        raise ValueError("need one sample per cell")
    weights = measure.mass(edges[:-1], edges[1:])
    return float(np.sum(np.abs(values) ** q * weights) ** (1.0 / q))


@dataclass(frozen=True)
class CantorSet:
    """Level-k middle-removal prefractal: 2^k closed intervals of length r^k."""

    ratio: float
    level: int
    intervals: tuple[tuple[float, float], ...]

    def to_json(self) -> str:
        """Ordered JSON list of [left, right] pairs."""
        return json.dumps([[lo, hi] for lo, hi in self.intervals])


def cantor_level(ratio: float, level: int) -> CantorSet:
    """Build the level-k prefractal by keeping both ends of each interval.

    Each level-(k-1) interval of length r^(k-1) keeps its two end
    subintervals of length r^k (the removed middle has length
    r^(k-1)*(1-2r)).
    """
    if not 0 < ratio < 0.5:
        raise ValueError(f"invalid ratio: need 0 < r < 1/2, got {ratio}")
    if level < 0 or int(level) != level:
        raise ValueError("level must be a nonnegative integer")
    intervals = [(0.0, 1.0)]
    for _ in range(int(level)):
        child = []
        for lo, hi in intervals:
            length = (hi - lo) * ratio
            child.append((lo, lo + length))
            child.append((hi - length, hi))
        intervals = child
    return CantorSet(ratio=float(ratio), level=int(level), intervals=tuple(intervals))


def _merged(intervals):
    ivs = sorted((float(lo), float(hi)) for lo, hi in intervals)
    if not ivs:
        raise ValueError("need at least one interval")
    if any(hi < lo for lo, hi in ivs):
        raise ValueError("intervals must have lo <= hi")
    out = [list(ivs[0])]
    for lo, hi in ivs[1:]:
        if lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def covering_number(intervals, delta: float) -> int:
    """Minimal count of length-delta intervals covering a union of intervals.

    Greedy left-to-right placement, which is optimal for unions of
    intervals.  Endpoints within a 1e-9 relative snap of a cover's right end
    count as covered, so exact-ratio covers are not overcounted by float
    noise.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    snap = 1e-9 * delta
    count = 0
    covered = -math.inf
    for lo, hi in _merged(intervals):
        if hi - lo <= snap:
            if lo > covered + snap:
                count += 1
                covered = lo + delta
            continue
        pos = max(lo, covered)
        while pos < hi - snap:
            count += 1
            covered = pos + delta
            pos = covered
    return count


def minkowski_dimension(intervals, deltas) -> float:
    """Least-squares slope of log N(delta) against log(1/delta)."""
    deltas = np.asarray(deltas, dtype=float)
    if len(deltas) < 2:
        raise ValueError("need at least two scales")
    counts = np.array([covering_number(intervals, d) for d in deltas], dtype=float)
    return float(np.polyfit(np.log(1.0 / deltas), np.log(counts), 1)[0])


@dataclass(frozen=True)
class BilinearCheck:
    form_value: float
    bound_side: float
    constant: float


def _time_integrals(fn, x_mid, t_mid, dt):
    values = np.asarray(fn(x_mid[:, None], t_mid[None, :]), dtype=float)
    values = np.broadcast_to(values, (len(x_mid), len(t_mid)))
    return values.sum(axis=1) * dt, np.abs(values).sum(axis=1) * dt


def bilinear_form_check(g, h, measure: AlphaMeasure, q: float, b: float,
                        x_cells: int = 128, t_cells: int = 128) -> BilinearCheck:
    """Discrete quadruple sum of g(x,t)*h(x',t')*W(x-x') against mu x mu x dt x dt'.

    W is the symmetric near-diagonal indicator of 0 < |x-x'| < b.  Returns
    the form, the comparison side b^(2*alpha/q) * N(g) * N(h), and their
    quotient, where N is the mixed norm: inner absolute time integral, outer
    counting norm with exponent q/(q-1) against the exact cell masses.

    Parameters
    ----------
    g, h : callable (x, t) -> value, vectorized
    measure : AlphaMeasure
    q : float, >= 2
    b : float
        Indicator width; must be positive.
    x_cells, t_cells : int
        Uniform grid resolution on the unit square.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if not b > 0:
        raise ValueError("the indicator needs a width b > 0")
    x_edges = np.linspace(0.0, 1.0, x_cells + 1)
    t_edges = np.linspace(0.0, 1.0, t_cells + 1)
    x_mid = 0.5 * (x_edges[:-1] + x_edges[1:])
    t_mid = 0.5 * (t_edges[:-1] + t_edges[1:])
    dt = t_edges[1] - t_edges[0]
    mu_cells = measure.mass(x_edges[:-1], x_edges[1:])

    g_int, g_abs = _time_integrals(g, x_mid, t_mid, dt)
    h_int, h_abs = _time_integrals(h, x_mid, t_mid, dt)

    diff = np.abs(x_mid[:, None] - x_mid[None, :])
    kernel = ((diff > 0.0) & (diff < b)).astype(float)
    scale = b ** (2.0 * measure.alpha / q)

    form = float((mu_cells * g_int) @ kernel @ (mu_cells * h_int))
    q_dual = q / (q - 1.0)
    norm_g = float(np.sum(g_abs ** q_dual * mu_cells) ** (1.0 / q_dual))
    norm_h = float(np.sum(h_abs ** q_dual * mu_cells) ** (1.0 / q_dual))
    bound = scale * norm_g * norm_h
    constant = form / bound if bound > 0 else 0.0
    return BilinearCheck(form_value=form, bound_side=bound, constant=constant)
