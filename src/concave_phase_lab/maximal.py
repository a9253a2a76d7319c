"""Grid maxima of |u| along a curve or over a set of lines, from one engine.

Both settings run the same private engine on a mesh of path coordinates:
t alone for a curve (x, t) -> path(x, t), and (theta, t) for the lines
x - theta*t with theta in a union of intervals.  The engine takes one or
more positions x, each with its own row of witnesses.  It evaluates the
witnesses of all positions in one call, then the base mesh, then
``refine_depth`` refinement rounds.  A round builds factor-8 finer local
meshes around every position's leading maxima, screens each against that
position's best value, and evaluates what passes for all positions in one
call; a local mesh's centre is its seed, recorded again with the seed's
value instead of being evaluated twice.  Refined coordinates are kept only
inside the domain: t in [0, 1] and, for lines, theta in the union of the
direction intervals, so a line maximum is a floor for the stated direction
set.
Each returned value is a floor on the supremum, the largest sample
evaluated, never a ceiling; root finding is never used.  Two rules keep this
both honest and affordable:

* Witness injection.  A base grid that resolves a large-frequency datum is
  usually impractical, so sharpness experiments inject analytically matched
  sample points; a grid neither dense enough nor carrying witnesses is
  rejected.
* Certified screening.  Integration by parts bounds |u| by
  4*|amplitude| / (2*pi*A), A the least |p' + s(xi)| over the support, where
  p' = p + linear_phase, s = tau*m*|xi|^(m-1)*sgn(xi) and tau = t +
  fractional_phase (the band amplitude has total variation 2 and peak 1, and
  s is monotone, so A comes from the ends).  The bound beats a position's
  best value iff -R - s+ < p' < R - s-, with R = 4*|amplitude| / (2*pi*best)
  and s-, s+ the smaller and larger end values of s.  No bound is computed:
  a sample is a candidate iff it lies in this window, two comparisons.

Every path is a translate: the path through x sits at x + c, with c =
-theta*t^kappa on a curve and -theta*t on a line depending only on the base
mesh's column, so every base mesh is separable.  It is fed in groups of at
most ``MAX_BASE_SAMPLES`` samples.  For each group the window against each
position's best witness first gives the kept (position, point) pairs: on a
curve by the per-sample test; on a line family, where p = x - theta*t, as
one run of the sorted directions per (position, t) row (a t = 0 row passes
whole or not at all), its ends guessed by binary search and confirmed, or
else found by bisection, with the window test itself, so the kept set is
exactly the per-sample test's.  The engine then takes the cheaper call as
``grid_work`` counts it: the kept samples flat, or the whole group as one
separable mesh (never for a lone position).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Curve, curve_eval
from .spectral import FourierDatum, _end_slopes, grid_work, propagate_grid

__all__ = ["GridSpec", "MAX_BASE_SAMPLES", "maximal_in_time", "maximal_over_lines"]

_SCREEN_NUMERATOR = 4.0  # >= TV(bump) + sup(bump) = 3; margin for squared bumps
_REFINE_FACTOR = 8
_TOP_SEEDS = 3
# Samples, lines-mesh rows or local-mesh samples screened at once.  2**13
# floats (64 KiB) stay below the C allocator's initial mmap threshold
# (128 KiB), so they are reused from the heap instead of being mapped and
# faulted in afresh on every call.
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


def _slopes(datum: FourierDatum, m: float, times):
    """s-, s+: min and max over the support ends of ``spectral._end_slopes`` at
    tau = times + fractional_phase."""
    s = _end_slopes(datum, m, times + datum.fractional_phase)
    return np.minimum(*s), np.maximum(*s)


def _reach(datum: FourierDatum, best):
    """R = 4|amplitude| / (2*pi*best), inf at best = 0, widened by 1e-12 relative."""
    with np.errstate(divide="ignore"):
        return _SCREEN_NUMERATOR * abs(datum.amplitude) / (2.0 * np.pi * best) * (1 + 1e-12)


def _passes(datum: FourierDatum, m: float, reach, positions, times):
    """The screen window: -R - s+ < p' < R - s-, with p' = positions + linear_phase."""
    s_lo, s_hi = _slopes(datum, m, times)
    p = positions + datum.linear_phase
    return (p + s_lo < reach) & (p + s_hi > -reach)


def _ranked(owners, values):
    """Indices by owner, then by value descending, the later of equal values first."""
    return len(owners) - 1 - np.lexsort((-values[::-1], owners[::-1]))


def _first_true(test, guess, n):
    """Per row, the least k in [0, n] where ``test(rows, k)`` holds, n where it
    never does, for a test that is false and then true along each row: the
    guess where the test confirms it, else a vectorised bisection."""
    rows = np.arange(len(guess))
    k = np.clip(guess, 0, n)
    sure = ((k == 0) | ~test(rows, np.maximum(k - 1, 0))) & (
        (k == n) | test(rows, np.minimum(k, n - 1)))
    rows = rows[~sure]
    lo, hi = np.zeros(len(rows), dtype=np.intp), np.full(len(rows), n)
    for _ in range(n.bit_length() if len(rows) else 0):
        mid = (lo + hi) // 2
        ok, open_ = test(rows, np.minimum(mid, n - 1)), lo < hi
        hi = np.where(open_ & ok, mid, hi)
        lo = np.where(open_ & ~ok, mid + 1, lo)
    k[rows] = lo
    return k


def _line_window(datum: FourierDatum, m: float, locate, xs, reach, base, n):
    """(j, r) of the samples base[r] at xs[j] that pass, base the mesh of n
    sorted directions by times, in blocks of rows.  Along a row (one position,
    one t >= 0) every rounded step of p' = x - theta*t + linear_phase is
    monotone in theta, so each side of the window test is one cut in the row:
    guessed by binary search on the solved inequality, and confirmed, or else
    found by bisection, with the test itself.  The kept set is exactly that of
    the per-sample test."""
    thetas, times = base[:n, 0], base[::n, 1]
    s_lo, s_hi = _slopes(datum, m, times)
    hits, rows = [], len(xs) * len(times)
    for lo in range(0, rows, _SCREEN_BLOCK):
        q, it = np.divmod(np.arange(lo, min(rows, lo + _SCREEN_BLOCK)), len(times))

        def p(sel, k):   # p' of direction k in the rows sel
            return locate(xs[q[sel]], base[it[sel] * n + k])[0] + datum.linear_phase

        def below(sel, k):   # p' + s- < R: false, then true as theta grows
            return p(sel, k) + s_lo[it[sel]] < reach[q[sel]]

        def beyond(sel, k):   # not p' + s+ > -R: false, then true
            return ~(p(sel, k) + s_hi[it[sel]] > -reach[q[sel]])

        x, t = xs[q] + datum.linear_phase, times[it]
        with np.errstate(divide="ignore", invalid="ignore"):   # t = 0 rows guess anything
            first = _first_true(below, np.searchsorted(
                thetas, (x + s_lo[it] - reach[q]) / t, "right"), n)
            stop = _first_true(beyond, np.searchsorted(
                thetas, (x + s_hi[it] + reach[q]) / t), n)
        count = np.maximum(stop - first, 0)
        q = np.repeat(q, count)
        hits.append((q, np.repeat(it * n + first - np.cumsum(count) + count, count)
                     + np.arange(len(q))))
    return tuple(map(np.concatenate, zip(*hits)))


def _mesh(*axes):
    """Rows of the mesh of the axes, the first axis varying fastest.

    For up to two axes this is the row order of ``np.meshgrid`` ('xy').
    """
    rows = np.empty([len(a) for a in reversed(axes)] + [len(axes)])
    for j, a in enumerate(axes):
        rows[..., j] = np.reshape(a, (-1,) + (1,) * j)
    return rows.reshape(-1, len(axes))


def _time_axis(grid: GridSpec):
    return np.linspace(0.0, 1.0, grid.t_base), 1.0 / (grid.t_base - 1)


def _in_unit_time(coords):
    return (coords[:, -1] >= 0.0) & (coords[:, -1] <= 1.0)


def _grid_sup(datum, m, grid, xs, axes, locate, inside, witnesses):
    """Grid suprema of |u| over a mesh of path coordinates, one per position.

    ``axes`` holds one (nodes, spacing) pair per coordinate, (t,) for a curve
    or (theta, t) for lines; their mesh is the base grid of every position in
    ``xs``.  ``locate(x, rows)`` maps coordinate rows (last axis) to
    (positions, times) on the paths through x, broadcasting against the rows'
    leading axes, with locate(x, rows) = x + locate(0.0, rows)[0].  ``inside``
    tells which refined rows lie in the domain; ``witnesses[i]`` are the rows
    of position i, evaluated first and unscreened.  Screening, base groups,
    routes and refinement rounds are those of the module docstring.
    """
    need = grid.required_t_base(datum)
    if grid.t_base < need and not witnesses.shape[1]:
        raise ValueError(
            f"time grid under-resolved for this datum (have {grid.t_base}, "
            f"need {need}) and no witness points were injected")
    k, d = len(xs), len(axes)
    best = np.zeros(k)
    # (position, row, value) of each position's _TOP_SEEDS leading samples so
    # far, in the order they were recorded
    lead = np.empty(0, dtype=np.intp), np.empty((0, d)), np.empty(0)

    def record(j, rows, vals):
        """Take evaluated samples into best and into the leading samples."""
        nonlocal lead
        np.maximum.at(best, j, vals)
        j, rows, vals = map(np.concatenate, zip(lead, (j, rows, vals)))
        order = _ranked(j, vals)
        rank = np.arange(len(j)) - np.searchsorted(j[order], j[order])
        keep = np.sort(order[rank < _TOP_SEEDS])
        lead = j[keep], rows[keep], vals[keep]

    def screen(ids, rows):
        """(j, r) of the samples rows[r] at xs[ids[j]] in the window, by position."""
        reach = _reach(datum, best[ids, None])
        step = max(1, _SCREEN_BLOCK // len(ids))
        j, r = [], []
        for lo in range(0, len(rows), step):
            hit_j, hit_r = np.nonzero(_passes(datum, m, reach, *locate(
                xs[ids, None], rows[lo:lo + step])))
            j.append(hit_j)
            r.append(hit_r + lo)
        order = np.argsort(np.concatenate(j), kind="stable")
        return np.concatenate(j)[order], np.concatenate(r)[order]

    def feed(ids, rows, j, r):
        """Evaluate and record the samples rows[j % len(rows), r] at xs[ids[j]]."""
        if not len(j):
            return
        points, vals = locate(xs[ids][j], rows[j % len(rows), r]), None
        # shared rows as one mesh: its column factor alone gives every column
        # a rule no smaller than a kept sample's, so it can only win past n
        if len(rows) == 1 and len(j) > rows.shape[1]:
            shift, t = locate(0.0, rows[0])
            mesh = xs[ids, None], t[None], shift[None]
            if grid_work(datum, m, *mesh) < grid_work(datum, m, *points):
                vals = propagate_grid(datum, m, *mesh)[j, r]
        vals = propagate_grid(datum, m, *points) if vals is None else vals
        record(ids[j], rows[j % len(rows), r], np.abs(vals))

    w = witnesses.shape[1]
    feed(np.arange(k), witnesses, *np.divmod(np.arange(k * w), w))
    base = _mesh(*(nodes for nodes, _ in axes))
    group = max(1, MAX_BASE_SAMPLES // len(base))
    for lo in range(0, k, group):
        ids = np.arange(lo, min(k, lo + group))
        feed(ids, base[None], *(_line_window(
            datum, m, locate, xs[ids], _reach(datum, best[ids]), base, len(axes[0][0]))
            if d == 2 else screen(ids, base)))
    spacings = [spacing for _, spacing in axes]
    for _ in range(grid.refine_depth):
        # local meshes _REFINE_FACTOR times finer across one spacing each side of
        # every leading sample, screened a block of seeds at a time
        order = _ranked(lead[0], lead[2])
        owners, seeds, seed_vals = (part[order] for part in lead)
        offsets = _mesh(*(np.arange(-_REFINE_FACTOR, _REFINE_FACTOR + 1)
                          * (spacing / _REFINE_FACTOR) for spacing in spacings))
        per_block = max(1, _SCREEN_BLOCK // len(offsets))
        parts = []
        for lo in range(0, len(seeds), per_block):
            rows = (seeds[lo:lo + per_block, None] + offsets).reshape(-1, d)
            j = np.repeat(owners[lo:lo + per_block], len(offsets))
            known = np.full(len(rows), np.nan)   # offset 0: the seed's value
            known[len(offsets) // 2::len(offsets)] = seed_vals[lo:lo + per_block]
            keep = inside(rows)
            keep[keep] = _passes(datum, m, _reach(datum, best[j[keep]]),
                                 *locate(xs[j[keep]], rows[keep]))
            parts.append((j[keep], rows[keep], known[keep]))
        if not parts:
            break
        j, rows, known = map(np.concatenate, zip(*parts))
        # one row per distinct sample of a position, lexicographic, a seed's own first
        order = np.lexsort((np.isnan(known), *rows.T[::-1], j))
        j, rows, known = j[order], rows[order], known[order]
        first = np.concatenate([[True], (j[1:] != j[:-1])
                                | np.any(rows[1:] != rows[:-1], axis=1)])
        j, rows, known = j[first], rows[first], known[first]
        new = np.isnan(known)
        if new.any():
            known[new] = np.abs(propagate_grid(datum, m, *locate(xs[j[new]], rows[new])))
        record(j, rows, known)
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
    rule.  The base mesh is screened, then its kept samples or, where that
    counts as less work, the whole group go in one call (flat for a scalar
    x).  Refinement adds factor-8 finer local grids around each position's
    top maxima, so a value never decreases with depth.  len(x) * t_base may
    not exceed ``MAX_BASE_SAMPLES``.
    """
    xs, t_w = _positions(x, extra_t, "extra_t", 1)
    if xs.size * grid.t_base > MAX_BASE_SAMPLES:
        raise ValueError(f"len(x) * t_base must be <= {MAX_BASE_SAMPLES} base "
                         f"samples, got {xs.size} * {grid.t_base}")

    def locate(x, c):
        t = c[..., 0]
        return curve_eval(curve, x, t), t

    sups = _grid_sup(datum, m, grid, xs.reshape(-1), [_time_axis(grid)], locate,
                     _in_unit_time, t_w)
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
    x.shape + (w, 2) for an array x.  The base mesh is fed in groups of at
    most ``MAX_BASE_SAMPLES`` samples, screened and evaluated as in
    :func:`maximal_in_time`, and so is refinement.
    """
    xs, pairs = _positions(x, extra, "extra", 2)
    bounds = np.asarray(theta_intervals, dtype=float).reshape(-1, 2)
    thetas = _theta_nodes(bounds, grid.theta_per_component)
    d_theta = float(np.max(np.diff(thetas))) if len(thetas) > 1 else 0.0
    sups = _grid_sup(
        datum, m, grid, xs.reshape(-1), [(thetas, d_theta), _time_axis(grid)],
        lambda x, c: (x - c[..., 0] * c[..., 1], c[..., 1]),
        lambda c: _in_unit_time(c) & _in_intervals(c[:, 0], bounds), pairs)
    return float(sups[0]) if xs.ndim == 0 else sups
