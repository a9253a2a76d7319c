"""Grid maxima of |u| along a curve or over a set of lines, from one engine.

Both settings run the same private engine on a mesh of path coordinates:
t alone for a curve (x, t) -> path(x, t), and (theta, t) for the lines
x - theta*t with theta in a union of intervals.  The engine takes one or
more positions x, each with its own row of witnesses.  It evaluates the
witnesses of all positions in one call, then the base mesh, then
``refine_depth`` rounds per position of factor-8 finer local meshes around
that position's leading maxima.  Refined coordinates are kept only inside
the domain: t in [0, 1] and, for lines, theta in the union of the direction
intervals, so a line maximum is a floor for the stated direction set.
Each returned value is a floor on the supremum, the largest sample
evaluated, never a ceiling; root finding is never used.  Two rules keep this
both honest and affordable:

* Witness injection.  A base grid dense enough to resolve the oscillation
  scale of a large-frequency datum is usually impractical; sharpness
  experiments instead inject analytically matched sample points, making the
  computed supremum a certified lower bound (exactly what those ladders
  need).  A grid that is neither dense enough nor carrying witnesses is
  rejected.
* Certified screening.  Every candidate sample gets a rigorous upper bound
  on |u| from integration by parts: the band amplitude has total variation
  2 and peak 1, so |u| <= 4*|amplitude| / (2*pi*A) with A the minimum
  |d/dxi phase| over the support (the phase derivative is monotone there,
  so A comes from the endpoint values; A = 0 disables the screen).  Samples
  whose bound cannot beat their position's best value so far are not
  candidates; the reported supremum still dominates every grid point.

Where the screen acts depends on the base.  Several positions on a vertical
path share an outer x-by-t base mesh; it is evaluated whole in one
separable quadrature call, and the screen, against each position's best
witness, then picks the candidates.  Everywhere else (line families, power
curves, a single position, every refinement round) the screen skips samples
before any quadrature, and the engine holds index lists of only the
(position, row) pairs that pass.  The base mesh is fed in groups of at most
``MAX_BASE_SAMPLES`` samples (one position at least).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Curve, curve_eval
from .spectral import FourierDatum, propagate_grid

__all__ = ["GridSpec", "MAX_BASE_SAMPLES", "maximal_in_time", "maximal_over_lines"]

_SCREEN_NUMERATOR = 4.0  # >= TV(bump) + sup(bump) = 3; margin for squared bumps
_REFINE_FACTOR = 8
_TOP_SEEDS = 3
# Samples screened at once.  Temporaries of 2**13 floats (64 KiB) stay below
# the C allocator's initial mmap threshold (128 KiB), so they are reused from
# the heap instead of being mapped and faulted in afresh on every call.
_SCREEN_BLOCK = 2 ** 13
# Largest len(x) * t_base that maximal_in_time accepts, and the most base
# samples fed at once.  The separable route holds a sum per base sample;
# larger maximal_in_time requests are refused before anything is allocated.
MAX_BASE_SAMPLES = 2 ** 20


@dataclass(frozen=True)
class GridSpec:
    """Sampling plan for maximal-function evaluation.

    t_base is the uniform time resolution on [0, 1]; the sampling rule
    requires t_base >= 4 * (max frequency magnitude) * (support diameter)
    unless the caller injects witness points.  refine_depth (>= 2) rounds of
    factor-8 local refinement run around the leading maxima.
    theta_per_component direction nodes sample each direction interval.
    """

    t_base: int = 257
    refine_depth: int = 2
    theta_per_component: int = 2

    def __post_init__(self):
        if self.t_base < 2:
            raise ValueError("t_base must be >= 2")
        if self.refine_depth < 2:
            raise ValueError("refine_depth must be >= 2")
        if self.theta_per_component < 1:
            raise ValueError("theta_per_component must be >= 1")

    def required_t_base(self, datum: FourierDatum) -> int:
        lo, hi = datum.support
        return int(np.ceil(4.0 * max(abs(lo), abs(hi)) * (hi - lo)))


def _phase_derivative_endpoints(datum: FourierDatum, m: float, positions, times):
    """d/dxi of the total phase at the two support endpoints; vectorized."""
    lo, hi = datum.support
    p = positions + datum.linear_phase
    t = times + datum.fractional_phase
    sigma = 1.0 if lo >= 0 else -1.0  # sign of xi on the support interior
    out = []
    for xi in (lo, hi):
        if xi == 0.0:
            # |xi|^(m-1) blows up at a touching endpoint
            with np.errstate(invalid="ignore"):
                limit = np.sign(t) * sigma * np.inf
            out.append(np.where(t == 0.0, p, limit))
        else:
            out.append(p + t * m * np.abs(xi) ** (m - 1.0) * np.sign(xi))
    return out[0], out[1]


def _screen_bounds(datum: FourierDatum, m: float, positions, times):
    """Per-sample rigorous upper bounds on |u|; inf where the screen is blind."""
    d_lo, d_hi = _phase_derivative_endpoints(datum, m, positions, times)
    same_sign = np.sign(d_lo) == np.sign(d_hi)
    floor = np.where(same_sign, np.minimum(np.abs(d_lo), np.abs(d_hi)), 0.0)
    with np.errstate(divide="ignore"):
        return np.where(floor > 0.0,
                        _SCREEN_NUMERATOR * abs(datum.amplitude) / (2.0 * np.pi * floor),
                        np.inf)


def _local_mesh(center, spacing, points_per_side=8):
    offsets = np.arange(-points_per_side, points_per_side + 1) * (spacing / _REFINE_FACTOR)
    return center + offsets


def _mesh(*axes):
    """Rows of the mesh of the axes, the first axis varying fastest.

    For up to two axes this is the row order of ``np.meshgrid`` ('xy').
    """
    rows = np.empty([len(a) for a in reversed(axes)] + [len(axes)])
    for j, a in enumerate(axes):
        rows[..., j] = np.reshape(a, (-1,) + (1,) * j)
    return rows.reshape(-1, len(axes))


def _unique_rows(rows):
    """Distinct rows in lexicographic order, as ``np.unique(rows, axis=0)``."""
    rows = rows[np.lexsort(rows.T[::-1])]
    return rows[np.concatenate([[True], np.any(rows[1:] != rows[:-1], axis=1)])]


def _time_axis(grid: GridSpec):
    return np.linspace(0.0, 1.0, grid.t_base), 1.0 / (grid.t_base - 1)


def _in_unit_time(coords):
    return (coords[:, -1] >= 0.0) & (coords[:, -1] <= 1.0)


def _grid_sup(datum, m, grid, xs, axes, locate, inside, witnesses, fixed):
    """Grid suprema of |u| over a mesh of path coordinates, one per position.

    ``axes`` holds one (nodes, spacing) pair per coordinate; their mesh is the
    base grid of every position in ``xs``.  ``locate(x, rows)`` maps
    coordinate rows (last axis) to (positions, times) on the paths through x,
    which broadcasts against the rows' leading axes; ``fixed`` paths keep their
    position at every t.  ``inside`` tells which refined rows lie in the
    domain, and ``witnesses[i]`` are the rows of position i, evaluated first
    and unscreened.  Screening and base groups as in the module docstring.
    Each refinement round feeds the deduplicated union of one position's top
    seeds' local meshes once.
    """
    need = grid.required_t_base(datum)
    if grid.t_base < need and not witnesses.shape[1]:
        raise ValueError(
            f"time grid under-resolved for this datum (have {grid.t_base}, "
            f"need {need}) and no witness points were injected")
    k = len(xs)
    coords = [[] for _ in range(k)]   # evaluated samples per position, one entry per feed
    values = [[] for _ in range(k)]
    best = np.zeros(k)

    def feed(ids, rows, screen=True):
        """Evaluate rows (1 or len(ids), n, d), shared or one set each, for xs[ids]."""
        n = rows.shape[1]
        if screen:
            step = max(1, _SCREEN_BLOCK // len(ids))
            j, r = [], []
            for lo in range(0, n, step):
                bounds = _screen_bounds(datum, m, *locate(xs[ids, None],
                                                          rows[:, lo:lo + step]))
                hit_j, hit_r = np.nonzero(bounds > best[ids, None])
                j.append(hit_j)
                r.append(hit_r + lo)
            order = np.argsort(np.concatenate(j), kind="stable")   # by position
            j, r = np.concatenate(j)[order], np.concatenate(r)[order]
        else:
            j, r = np.divmod(np.arange(len(ids) * n), n)
        if not len(j):
            return
        if fixed and len(ids) > 1:   # an outer mesh: one separable call
            vals = np.abs(propagate_grid(datum, m, *locate(xs[ids, None], rows)))[j, r]
        else:
            vals = np.abs(propagate_grid(datum, m, *locate(xs[ids][j],
                                                           rows[j % len(rows), r])))
        cuts = np.searchsorted(j, np.arange(len(ids) + 1))
        for q, i in enumerate(ids):
            if cuts[q] < cuts[q + 1]:
                part = slice(cuts[q], cuts[q + 1])
                coords[i].append(rows[q % len(rows)][r[part]])
                values[i].append(vals[part])
                best[i] = max(best[i], vals[part].max())

    feed(np.arange(k), witnesses, screen=False)
    base = _mesh(*(nodes for nodes, _ in axes))
    group = max(1, MAX_BASE_SAMPLES // len(base))
    for lo in range(0, k, group):
        feed(np.arange(lo, min(k, lo + group)), base[None])
    for i in range(k):
        spacings = [spacing for _, spacing in axes]
        for _ in range(grid.refine_depth):
            if values[i]:
                order = np.argsort(np.concatenate(values[i]), kind="stable")[::-1]
                seeds = np.concatenate(coords[i])[order[:_TOP_SEEDS]]
                fresh = _unique_rows(np.concatenate(
                    [_mesh(*map(_local_mesh, seed, spacings)) for seed in seeds]))
                feed(np.array([i]), fresh[inside(fresh)][None])
            spacings = [spacing / _REFINE_FACTOR for spacing in spacings]
    return best


def _positions(x, extra, name, d):
    """x, a scalar or 1-D, and its witnesses as rows of shape (len(x), w, d)."""
    xs, rows = np.asarray(x, dtype=float), np.asarray(extra, dtype=float)
    rows = rows[..., None] if d == 1 else rows
    if xs.ndim > 1 or (rows.size and (rows.shape[:-2] != xs.shape or rows.shape[-1] != d)):
        tail = "(w,)" if d == 1 else f"(w, {d})"
        raise ValueError(f"x must be a scalar or 1-D, with {name} of shape x.shape + "
                         f"{tail}; got {xs.shape} and {np.shape(extra)}")
    return xs, rows.reshape(xs.size, -1, d)


def maximal_in_time(datum: FourierDatum, m: float, curve: Curve, x,
                    grid: GridSpec, extra_t=()):
    """Grid supremum over t in [0,1] of |u(path(x,t), t)|, per position.

    x is one position (returns a float) or a 1-D array of positions (returns
    an array, one floor per position); extra_t holds witness times, a
    sequence for a scalar x and shape x.shape + (w,) for an array x.
    Witnesses are evaluated first (unscreened) and count for the sampling
    rule.  On a vertical path an array of positions shares one outer base
    mesh, evaluated in one separable call and screened afterwards; other
    paths and a scalar x screen samples before quadrature.  Refinement adds
    factor-8 finer local grids around each position's top maxima, so a
    value never decreases with depth.  len(x) * t_base may not exceed
    ``MAX_BASE_SAMPLES``.
    """
    xs, t_w = _positions(x, extra_t, "extra_t", 1)
    if xs.size * grid.t_base > MAX_BASE_SAMPLES:
        raise ValueError(f"len(x) * t_base must be <= {MAX_BASE_SAMPLES} base "
                         f"samples, got {xs.size} * {grid.t_base}")

    def locate(x, c):
        t = c[..., 0]
        return (x if curve.kind == "vertical" else curve_eval(curve, x, t)), t

    sups = _grid_sup(datum, m, grid, xs.reshape(-1), [_time_axis(grid)], locate,
                     _in_unit_time, t_w, curve.kind == "vertical")
    return float(sups[0]) if xs.ndim == 0 else sups


def _theta_nodes(bounds, per_component):
    if len(bounds) == 0 or np.any(bounds[:, 1] < bounds[:, 0]):
        raise ValueError("direction intervals must be nonempty and have lo <= hi")
    return np.unique(np.linspace(bounds[:, 0], bounds[:, 1], max(2, per_component),
                                 axis=1))


def _in_intervals(values, bounds):
    """Whether each value lies in the union of the closed (lo, hi) rows."""
    bounds = bounds[np.argsort(bounds[:, 0], kind="stable")]
    reach = np.maximum.accumulate(bounds[:, 1])
    i = np.searchsorted(bounds[:, 0], values, side="right") - 1
    return (i >= 0) & (values <= reach[np.maximum(i, 0)])


def maximal_over_lines(datum: FourierDatum, m: float, theta_intervals, x,
                       grid: GridSpec, extra=()):
    """Grid supremum over (theta, t) of |u(x - theta*t, t)|, per position.

    theta ranges over a union of intervals (points allowed), sampled at
    theta_per_component nodes each; refined directions stay inside the
    union.  x is one position (returns a float) or a 1-D array of positions
    (returns an array, one floor per position); extra holds (theta, t)
    witness pairs, a sequence of pairs for a scalar x and shape
    x.shape + (w, 2) for an array x.  Samples are screened before
    quadrature, and the base mesh is fed in groups of at most
    ``MAX_BASE_SAMPLES`` samples.  Refinement as in :func:`maximal_in_time`.
    """
    xs, pairs = _positions(x, extra, "extra", 2)
    bounds = np.asarray(theta_intervals, dtype=float).reshape(-1, 2)
    thetas = _theta_nodes(bounds, grid.theta_per_component)
    d_theta = float(np.max(np.diff(thetas))) if len(thetas) > 1 else 0.0
    sups = _grid_sup(
        datum, m, grid, xs.reshape(-1), [(thetas, d_theta), _time_axis(grid)],
        lambda x, c: (x - c[..., 0] * c[..., 1], c[..., 1]),
        lambda c: _in_unit_time(c) & _in_intervals(c[:, 0], bounds), pairs, False)
    return float(sups[0]) if xs.ndim == 0 else sups
