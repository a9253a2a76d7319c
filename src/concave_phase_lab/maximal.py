"""Grid maxima of |u| along paths x - theta*t^kappa, from one engine.

Every path is x - theta*t^kappa on a mesh of (theta, t): a curve is the
one-direction set {theta} with its own kappa, a line family is kappa = 1 with
theta in a union of closed intervals.  The engine takes one or more positions
x, each with its own (theta, t) witness rows, and runs three stages: the
witnesses of all positions in one call (``_along``), the base mesh (the
direction nodes by uniform times, ``_base_stage``), then ``refine_depth``
refinement rounds (``_refine_stage``).  Each returns the (position, theta, t,
|u|) it evaluated, and ``_take`` folds them into one record (best, lead):
each position's best value and its ``_TOP_SEEDS`` leading samples.  A round
builds factor-8 finer local meshes around every position's leading samples,
screens them against that position's best value and evaluates what passes,
for all positions in one call.  A local mesh steps theta only where the
directions are spaced, so a one-direction set does the work of its curve.  It
is screened by rows, one per t step, and only the samples the window keeps
are tested against the direction intervals.  The centre of a local mesh is
its seed, taken again with the seed's value, and a sample two local meshes
share belongs to the first seed that reaches it.  At kappa = 1 the call is
``spectral.propagate_lattice``, which gives each distinct seed its own rule
and its table or per-sample sums (``quadrature.lattice_batch``), so a
position's floors do not depend on the other positions; other rounds go flat.
Witnesses and refined samples stay inside the domain, t in [0, 1] and theta
in the direction set, so a maximum is a floor for the stated set.  Each
returned value is a floor on the supremum, the largest sample evaluated,
never a ceiling; root finding is never used.  Two rules keep this honest and
affordable:

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
  Along a row (one position, one t >= 0) p' is monotone in theta, so the
  window keeps one run of the row's sorted directions, and nothing unless
  p' + s- < R at the last direction and p' + s+ > -R at the first.  A row
  that fails this end test is dropped before any search.

Every path is a translate: the path through x sits at x + c, with c =
-theta*t^kappa depending only on the base mesh's column, so every base mesh
is separable.  It is fed in groups of at most ``MAX_BASE_SAMPLES`` samples.
For each group the window against each position's best witness first gives
the kept (position, t, direction) samples, as one run of the sorted
directions per (position, t) row (a t = 0 row passes whole or not at all).
Rows that fail the end test are dropped; on the rest the run's ends are
guessed by binary search and confirmed, or else found by bisection, with
the window test itself.  The same window, given a row of times per seed
(a time outside [0, 1] keeps nothing), screens every local mesh, and the
kept set is exactly the per-sample test's.  Each group is then one
``propagate_grid`` call at its kept samples: flat, or off the group's mesh
where ``grid_work`` counts that cheaper (never for a lone position).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Curve
from .spectral import FourierDatum, _end_slopes, propagate_grid, propagate_lattice

__all__ = ["GridSpec", "MAX_BASE_SAMPLES", "MAX_REFINE_DEPTH", "maximal_in_time",
           "maximal_over_lines"]

_SCREEN_NUMERATOR = 4.0  # >= TV(bump) + sup(bump) = 3; margin for squared bumps
_REFINE_FACTOR = 8
_TOP_SEEDS = 3
# Mesh rows screened at once by _mesh_window, in whole x rows (positions of a
# base mesh, seeds of local meshes), or in runs of one x row's times where it
# has more.  2**13
# floats (64 KiB) stay below the C allocator's initial mmap threshold
# (128 KiB), so they are reused from the heap instead of being mapped and
# faulted in afresh on every call.
_SCREEN_BLOCK = 2 ** 13
# Largest len(x) * t_base that maximal_in_time accepts, and the most base
# samples fed at once.  The separable route holds a sum per base sample;
# larger maximal_in_time requests are refused before anything is allocated.
MAX_BASE_SAMPLES = 2 ** 20
# Most refinement rounds a GridSpec accepts: round k steps 8^-k of a spacing of
# at most 1, so from round 18 on a step is at most half the spacing of doubles
# in [1/2, 1) and finds nothing new (3,000 rounds took 2.2 s on 4 x cells).
MAX_REFINE_DEPTH = 17


@dataclass(frozen=True)
class GridSpec:
    """Sampling plan for maximal-function evaluation.

    t_base is the uniform time resolution on [0, 1]; the sampling rule
    requires t_base >= 4 * (max frequency magnitude) * (support diameter)
    unless the caller injects witness points.  refine_depth (2 to
    ``MAX_REFINE_DEPTH``) rounds of factor-8 local refinement run around the
    leading maxima.
    max(2, theta_per_component) direction nodes sample each direction interval
    (one node for a point), so 1 and 2 give the same mesh.
    """

    t_base: int = 257
    refine_depth: int = 2
    theta_per_component: int = 2

    def __post_init__(self):
        if self.t_base < 2:
            raise ValueError("t_base must be >= 2")
        if not 2 <= self.refine_depth <= MAX_REFINE_DEPTH:
            raise ValueError(f"refine_depth must lie in [2, {MAX_REFINE_DEPTH}], "
                             f"got {self.refine_depth}")
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


def _window_side(rows, k, lp, thetas, beyond, x, power, s, edge, origin):
    """One side of the window test at direction k on the rows ``rows``, false and
    then true as theta grows: p' + s- < R, or with ``beyond`` not p' + s+ > -R,
    for (s, edge) = (s-, R) or (s+, -R); p' = x - (origin +) theta*power + lp."""
    theta = thetas[k] if origin is None else origin[rows] + thetas[k]
    q = x[rows] - theta * power[rows] + lp + s[rows]
    return ~(q > edge[rows]) if beyond else q < edge[rows]


def _first_true(side, n):
    """Per row, the least k in [0, n] where ``_window_side(rows, k, *side)`` holds,
    n where it never does: the binary-search guess on the solved inequality
    where the test confirms it, else a vectorised bisection."""
    lp, thetas, beyond, x, power, s, edge, origin = side
    k = np.clip(np.searchsorted(thetas, (x + lp + s - edge) / power
                                - (0.0 if origin is None else origin),
                                "left" if beyond else "right"), 0, n)
    sure = ((k == 0) | ~_window_side(..., np.maximum(k - 1, 0), *side)) & (
        (k == n) | _window_side(..., np.minimum(k, n - 1), *side))
    rows = np.flatnonzero(~sure)
    if len(rows):
        lo, hi = np.zeros(len(rows), dtype=np.intp), np.full(len(rows), n)
        for _ in range(n.bit_length()):
            mid = (lo + hi) // 2
            ok, open_ = _window_side(rows, np.minimum(mid, n - 1), *side), lo < hi
            hi = np.where(open_ & ok, mid, hi)
            lo = np.where(open_ & ~ok, mid + 1, lo)
        k[rows] = lo
    return k


def _at(a, rows):
    """a, broadcast to the shape of the row indices ``rows``, at those rows (an
    array, also where every axis of a has length 1)."""
    at = a[tuple(i if d > 1 else 0 for i, d in zip(rows[len(rows) - a.ndim:], a.shape))]
    return at if at.ndim else np.full(len(rows[0]), at)


def _row_window(datum: FourierDatum, thetas, x, power, s_lo, s_hi, reach, origin=None):
    """The samples that pass the window on rows (x, t^kappa, s-, s+, R and
    origin, broadcast together) of the sorted directions origin + thetas[k]:
    each one's row index, a tuple as ``np.nonzero`` gives it, and k, in row
    then k order.  Every rounded step of p' = x - theta*t^kappa +
    linear_phase is monotone in theta for any kappa > 0, so each side of the
    window test (``_window_side``) is false and then true along a row.  Rows
    where below fails at the last direction or beyond holds at the first are
    dropped (for a lone direction, the per-sample test); on the rest each side
    is one cut, ``_first_true``.  The kept set is exactly the per-sample test's."""
    n = len(thetas)
    sides = ((datum.linear_phase, thetas, False, x, power, s_lo, reach, origin),
             (datum.linear_phase, thetas, True, x, power, s_hi, -reach, origin))
    ends = _window_side(..., n - 1, *sides[0]) & ~_window_side(..., 0, *sides[1])
    live = np.unravel_index(np.flatnonzero(ends), ends.shape)
    if n == 1 or not len(live[0]):
        return live, np.zeros(len(live[0]), dtype=np.intp)
    # on the live rows; a guess may be anything (t = 0 rows divide by 0, tiny
    # t^kappa overflow)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        first, stop = (_first_true(side[:3] + tuple(a if a is None else _at(a, live)
                                                    for a in side[3:]), n) for side in sides)
    count = np.maximum(stop - first, 0)
    k = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
    return tuple(np.repeat(i, count) for i in live), k


def _mesh_window(datum: FourierDatum, m: float, kappa, x, reach, thetas, times,
                 origin=None):
    """(j, i, k) of the samples of the rows (x[j], times[j, i]) along the sorted
    directions (origin[j] +) thetas[k] that pass the window, in row-major
    order, by ``_row_window``.  ``times`` is (1, c) where every row shares
    its times (a base mesh) or (len(x), c) (local meshes).  t^kappa, s- and
    s+ are computed once per entry of ``times``; a time outside [0, 1] gets
    t^kappa = nan, which fails the end test, so its row keeps nothing.  Rows
    go in blocks of whole x rows, or of one x row's times where it has more."""
    inside = (times >= 0.0) & (times <= 1.0)
    power = np.where(inside, np.power(np.maximum(times, 0.0), kappa), np.nan)
    s_lo, s_hi = _slopes(datum, m, times)
    width = min(times.shape[1], _SCREEN_BLOCK)
    per_block, hits = _SCREEN_BLOCK // width, []
    for lo in range(0, len(x), per_block):
        rows = slice(lo, lo + per_block)
        own = rows if len(times) > 1 else 0   # shared times: one 1-D row
        for at in range(0, times.shape[1], width):
            cut = own, slice(at, at + width)
            (j, i), k = _row_window(datum, thetas, x[rows, None], power[cut], s_lo[cut],
                                    s_hi[cut], reach[rows, None],
                                    None if origin is None else origin[rows, None])
            hits.append((lo + j, at + i, k))
    return tuple(map(np.concatenate, zip(*hits)))


def _along(datum, m, x, theta, t, kappa):
    """|u| at (x - theta*t^kappa, t), the position bit for bit as ``geometry.curve_eval``."""
    return np.abs(propagate_grid(datum, m, x - theta * np.power(t, kappa), t))


def _take(best, lead, j, theta, t, vals):
    """Take samples (position j, theta, t, |u|) into ``best``, in place, and return
    the new ``lead``: each position's ``_TOP_SEEDS`` largest of ``lead`` and the
    samples, the later of equal values first, kept in taken order."""
    np.maximum.at(best, j, vals)
    j, theta, t, vals = map(np.concatenate, zip(lead, (j, theta, t, vals)))
    order = len(j) - 1 - np.lexsort((-vals[::-1], j[::-1]))   # by j, then value descending
    rank = np.arange(len(j)) - np.searchsorted(j[order], j[order])
    keep = np.sort(order[rank < _TOP_SEEDS])
    return j[keep], theta[keep], t[keep], vals[keep]


def _base_stage(datum, m, kappa, xs, ids, best, thetas, times, cols):
    """(position, theta, t, |u|) of the base mesh's samples at xs[ids] that pass
    the screen against best[ids], from one ``propagate_grid`` call at those samples
    on the group's separable mesh of (1, c) ``cols``, times and shifts; empty,
    without a call, if none pass."""
    j, i, a = _mesh_window(datum, m, kappa, xs[ids], _reach(datum, best[ids]),
                           thetas, times[None])
    theta, t = thetas[a], times[i]
    if not len(j):
        return j, theta, t, t
    vals = propagate_grid(datum, m, xs[ids, None], *cols, at=(j, i * len(thetas) + a))
    return ids[j], theta, t, np.abs(vals)


def _refine_stage(datum, m, kappa, xs, bounds, n, best, lead, steps):
    """(position, theta, t, |u|) of one refinement round: the local meshes at
    ``steps`` around ``lead``, screened against ``best``, kept inside ``bounds``
    (for n > 1 directions) and evaluated once per distinct sample of a position."""
    owners, seed_theta, seed_t, seed_vals = lead
    ticks = np.arange(-_REFINE_FACTOR, _REFINE_FACTOR + 1)
    # (a, b) steps of a local mesh, stepping theta only between spaced directions
    a_ticks = ticks if n > 1 else ticks[_REFINE_FACTOR:_REFINE_FACTOR + 1]
    d_theta, local_t = a_ticks * steps[0], seed_t[:, None] + ticks * steps[1]
    s, b, a = _mesh_window(datum, m, kappa, xs[owners], _reach(datum, best)[owners],
                           d_theta, local_t, seed_theta)
    theta, t = seed_theta[s] + d_theta[a], local_t[s, b]
    if n > 1:   # a lone direction never leaves its set
        inside = _in_intervals(theta, bounds)
        s, b, a, theta, t = (c[inside] for c in (s, b, a, theta, t))
    j, a, b = owners[s], a_ticks[a], ticks[b]
    known = np.where((a == 0) & (b == 0), seed_vals[s], np.nan)   # the seed's own
    # one sample per distinct (theta, t) of a position: a seed's own, else the first seed's
    order = np.lexsort((np.isnan(known), t, theta, j))
    j, theta, t, known, s, a, b = (c[order] for c in (j, theta, t, known, s, a, b))
    first = np.concatenate([[True], (j[1:] != j[:-1]) | (theta[1:] != theta[:-1])
                            | (t[1:] != t[:-1])])
    j, theta, t, known, s, a, b = (c[first] for c in (j, theta, t, known, s, a, b))
    new = np.isnan(known)
    if new.any() and kappa != 1.0:
        known[new] = _along(datum, m, xs[j[new]], theta[new], t[new], kappa)
    elif new.any():   # lines: from the distinct seeds' factor tables
        ids, s = np.unique(s[new], return_inverse=True)
        known[new] = np.abs(propagate_lattice(
            datum, m, xs[owners[ids]], seed_theta[ids], seed_t[ids], steps,
            (s, a[new], b[new])))
    return j, theta, t, known


def _grid_sup(datum, m, grid, xs, bounds, thetas, kappa, witnesses):
    """Grid suprema of |u| along the paths x - theta*t^kappa, one per position.

    ``bounds`` holds the closed direction intervals as (lo, hi) rows and
    ``thetas`` their sorted, distinct nodes; the mesh of ``thetas`` by
    ``grid.t_base`` uniform times on [0, 1] is the base grid of every
    position in ``xs``.  ``witnesses[i]`` are the (theta, t) rows of position
    i, evaluated first and unscreened; like every refined sample they must
    lie in the domain, t in [0, 1] and theta in the intervals.  Stages and
    record are those of the module docstring.
    """
    need = grid.required_t_base(datum)
    if grid.t_base < need and len(xs) and not witnesses.shape[1]:
        raise ValueError(
            f"time grid under-resolved for this datum (have {grid.t_base}, "
            f"need {need}) and no witness points were injected")
    w_theta, w_t = witnesses.reshape(-1, 2).T
    if not np.all((w_t >= 0.0) & (w_t <= 1.0) & _in_intervals(w_theta, bounds)):
        raise ValueError("witnesses (extra_t or extra) must have t in [0, 1] and theta "
                         "in the direction set")
    k, n = len(xs), len(thetas)
    times = np.linspace(0.0, 1.0, grid.t_base)
    steps = np.array([np.max(np.diff(thetas)) if n > 1 else 0.0, 1.0 / (grid.t_base - 1)])
    # the record (best, lead); lead holds (position, theta, t, value) rows, in taken order
    best = np.zeros(k)
    lead = np.empty(0, dtype=np.intp), np.empty(0), np.empty(0), np.empty(0)
    if w_t.size:
        j = np.repeat(np.arange(k), witnesses.shape[1])
        lead = _take(best, lead, j, w_theta, w_t, _along(datum, m, xs[j], w_theta, w_t, kappa))
    group = max(1, MAX_BASE_SAMPLES // (n * len(times)))
    shift = np.multiply.outer(np.power(times, kappa), thetas)   # column i*n + a: (t_i, theta_a)
    cols = np.repeat(times, n)[None], np.subtract(0.0, shift, out=shift).reshape(1, -1)
    for lo in range(0, k, group):
        ids = np.arange(lo, min(k, lo + group))
        lead = _take(best, lead, *_base_stage(datum, m, kappa, xs, ids, best, thetas, times, cols))
    for _ in range(grid.refine_depth):
        if not len(lead[0]):
            break
        steps = steps / _REFINE_FACTOR
        lead = _take(best, lead, *_refine_stage(datum, m, kappa, xs, bounds, n, best, lead, steps))
    return best


def _positions(x, extra, name, d):
    """x, a finite scalar or 1-D, and its witnesses as rows of shape (len(x), w, d)."""
    xs, rows = np.asarray(x, dtype=float), np.asarray(extra, dtype=float)
    rows = rows[..., None] if d == 1 else rows
    if xs.ndim > 1 or (rows.size and (rows.shape[:-2] != xs.shape or rows.shape[-1] != d)):
        tail = "(w,)" if d == 1 else f"(w, {d})"
        raise ValueError(f"x must be a scalar or 1-D, with {name} of shape x.shape + "
                         f"{tail}; got {xs.shape} and {np.shape(extra)}")
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    return xs, rows.reshape(xs.size, rows.size and -1, d)   # no -1 on an empty x


def maximal_in_time(datum: FourierDatum, m: float, curve: Curve, x,
                    grid: GridSpec, extra_t=()):
    """Grid supremum over t in [0,1] of |u(x - theta*t^kappa, t)|, per position.

    The curve is the one-direction set {theta} of the engine, with its kappa.
    x is one position (returns a float) or a 1-D array of positions (returns
    an array, one floor per position); extra_t holds witness times in [0, 1],
    a sequence for a scalar x and shape x.shape + (w,) for an array x.
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
    sups = _grid_sup(datum, m, grid, xs.reshape(-1), np.full((1, 2), curve.theta, float),
                     np.full(1, curve.theta, float), curve.kappa,
                     np.concatenate((np.full_like(t_w, curve.theta), t_w), axis=-1))
    return float(sups[0]) if xs.ndim == 0 else sups


def _theta_nodes(bounds, per_component):
    if len(bounds) == 0 or not np.all(np.isfinite(bounds) & (bounds[:, :1] <= bounds[:, 1:])):
        raise ValueError("theta_intervals must be nonempty and finite, with lo <= hi")
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

    The lines are the engine's paths at kappa = 1.  theta ranges over a union
    of intervals (points allowed), sampled at theta_per_component nodes each;
    refined directions stay inside the union.  x is one position (returns a
    float) or a 1-D array of positions (returns an array, one floor per
    position); extra holds (theta, t) witness pairs in the domain, a sequence
    of pairs for a scalar x and shape x.shape + (w, 2) for an array x.  The
    base mesh is fed in groups of at most ``MAX_BASE_SAMPLES`` samples,
    screened and evaluated as in :func:`maximal_in_time`, and so is
    refinement.
    """
    xs, pairs = _positions(x, extra, "extra", 2)
    bounds = np.asarray(theta_intervals, dtype=float).reshape(-1, 2)
    sups = _grid_sup(datum, m, grid, xs.reshape(-1), bounds,
                     _theta_nodes(bounds, grid.theta_per_component), 1.0, pairs)
    return float(sups[0]) if xs.ndim == 0 else sups
