"""Oscillatory quadrature on bounded intervals.

Two independent evaluation routes for integrals of the form

    I = int_a^b  amplitude(x) * exp(i * phase(x)) dx

with a smooth compactly supported amplitude and a real phase:

* :func:`integrate` -- the fast path: the interval is seeded with cells small
  enough that the sampled phase varies by at most ~2*pi per cell, each cell
  is handled by a nested Gauss-Kronrod 7/15 rule (vectorized across cells),
  and the worst cells are bisected until the Kronrod error estimate meets
  max(``ABS_TOL``, ``REL_TOL``*|I|), within ``MAX_SUBDIVISIONS`` bisections.
  A phase that needs more than ``MAX_CELLS`` starting cells (about 1e5 rad of
  sampled variation) raises :class:`ResolutionLimitError` before any cell is
  laid out.
* :func:`oracle_integrate` -- the deliberately naive cross-check: a single
  composite Simpson rule on a dense uniform grid.  Slow, simple, trustworthy.
  It keeps the last grid and amplitude * weights, so a sweep of phases
  against one amplitude evaluates the amplitude once.

The two routes share no code beyond function evaluation, so their agreement is
a meaningful certificate.  ``spectral.propagate`` settles non-stationary band
integrals before it calls :func:`integrate`, with an integration-by-parts
bound that meets this engine's ``ABS_TOL``; the generic callable API here does
not, since only the band form knows its phase slope in closed form.

A third entry point, :func:`two_phase_batch`, evaluates whole families of
integrals whose phases are linear combinations ``(P + shift)*L(v) + T*S(v)``
of two fixed profiles.  Grid scans (kernel grids, time scans in the
maximal-function experiments) are dominated by such families.  It has two
routes, chosen from the shapes of P, T and shift alone:

* flat -- the coefficients pair up per integral (same shape, or any
  broadcast that is not an outer mesh), with P + shift in place of P.
  Points are sorted by their total phase variation W and grouped into
  buckets that share one trapezoid rule, sized from the bucket's largest W.
  A bucket holds at most ``BUCKET`` points and ends before its rule passes
  twice the node count of its first point, so every point gets at least its
  own rule and at most twice its nodes, whatever else shares the call; a
  point's sum depends only on the node count it gets.
* mesh -- P varies along other axes than T and shift, e.g. P of shape
  (r, 1) and T and shift of shape (1, c).  Then every trapezoid sum is an
  entry of ``E_row @ (amp_w * E_col).T``, ``E_row = exp(i*P*L)`` (r x n)
  and ``E_col = exp(i*(shift*L + T*S))`` (c x n): (r + c)*n complex
  exponentials instead of r*c*n.  Rows go by |P| into groups of at most
  ``BUCKET`` points (``BUCKET // c`` rows, at least one), each sized from
  W = |P|*span L of its last row plus the largest |shift|*span L +
  |T|*span S of a column; groups with one node count share one rule and
  one ``E_col``.

One planner lays out the runs of both routes, the flat buckets or the mesh
row groups of one node count, and :func:`batch_work` counts what those runs
build before any rule is built.

Both routes use the same rule: trapezoid weights h*(1/2, 1, ..., 1, 1/2) on
n = max(``N_MIN``, ceil(``NODES_PER_RADIAN`` * W) | 1) uniform nodes, one per
radian of W above a floor of 257.  The band amplitude vanishes with all its
derivatives at both ends, so the trapezoid rule converges super-algebraically
once the spacing is below the Nyquist spacing (Trefethen & Weideman 2014).
Against the dense oracle its error measured at most 1.6e-13 absolute on the
band integrals of the five CLI data families with W up to 1e4 rad, largest
where W is close to the node count; off those families, random (P, T) at
m = 0.3 deviated by up to 3.8e-13 at W near 257.  A rule that would need
more than ``N_MAX`` nodes raises :class:`ResolutionLimitError` instead of
losing accuracy.  The mesh route holds its temporaries to ``CHUNK_ELEMS``
elements and the flat route to ``FLAT_CHUNK_ELEMS``.
The mesh contraction is ``np.einsum``, a single-threaded loop with a fixed
summation order, so its sums do not depend on the BLAS thread count (a BLAS
``zgemm`` may regroup the sum when it changes how it splits the work).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureError",
    "InvalidIntegrandError",
    "ToleranceNotMetError",
    "ResolutionLimitError",
    "SmoothFunction1D",
    "integrate",
    "oracle_integrate",
    "two_phase_batch",
    "batch_work",
    "simpson_weights",
]


class QuadratureError(Exception):
    """Base class for quadrature failures."""


class InvalidIntegrandError(QuadratureError):
    """The integrand produced NaN or infinity inside the interval."""


class ResolutionLimitError(QuadratureError):
    """A rule would need more than ``N_MAX`` batch nodes or ``MAX_CELLS``
    starting cells of the adaptive engine."""


class ToleranceNotMetError(QuadratureError):
    """The adaptive engine ran out of subdivisions.

    Carries the best estimate and its error bound so callers can decide
    whether the partial result is still usable.
    """

    def __init__(self, message: str, estimate: complex, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class SmoothFunction1D:
    """A smooth function with an explicit compact support interval.

    Parameters
    ----------
    fn : callable
        Vectorized rule; only ever queried inside ``support``.
    support : (float, float)
        Closed interval outside of which the function is exactly zero.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.support
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"support must be a bounded interval, got {self.support}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        inside = (x >= lo) & (x <= hi)
        out = np.zeros(x.shape, dtype=float)
        if np.any(inside):
            out[inside] = self.fn(x[inside])
        return out


# The adaptive engine's target |error| <= max(ABS_TOL, REL_TOL*|I|), its cell
# bisections before ToleranceNotMetError, and its most starting cells, past
# which it raises ResolutionLimitError: cells of ~2*pi over 128 segments hold
# a sampled variation of about 2*pi*(16,384 - 128) = 1.0e5 rad.
REL_TOL = 1e-8
ABS_TOL = 1e-12
MAX_SUBDIVISIONS = 50_000
MAX_CELLS = 16_384


# Gauss-Kronrod 7/15 on [-1, 1]: Kronrod nodes (odd indices are the embedded
# Gauss-7 nodes), Kronrod weights, Gauss-7 weights.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


def _eval_cells(amplitude, phase, lo, hi):
    """Gauss-Kronrod 7/15 on each cell [lo_i, hi_i]; returns (values, errors)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _XK[None, :]
    amp = np.asarray(amplitude(nodes.ravel()), dtype=float).reshape(nodes.shape)
    ph = np.asarray(phase(nodes.ravel()), dtype=float).reshape(nodes.shape)
    if not (np.all(np.isfinite(amp)) and np.all(np.isfinite(ph))):
        raise InvalidIntegrandError("integrand produced non-finite values")
    f = amp * np.exp(1j * ph)
    k15 = (f * _WK[None, :]).sum(axis=1) * half
    g7 = (f[:, 1::2] * _WG[None, :]).sum(axis=1) * half
    return k15, np.abs(k15 - g7)


def _seed_cells(phase, a, b):
    """Split [a,b] so the sampled phase varies by <= ~2*pi per cell.

    Each of 128 equal segments gets ceil(dphi/2pi) + 1 equal cells for its
    sampled phase change dphi.  The cell count is summed in floats, so it
    cannot wrap, and past ``MAX_CELLS`` it raises :class:`ResolutionLimitError`
    before any edge is laid out.  Segment i's edges xs[i] + step_i * k,
    k = 1..c_i, are built for all segments in one pass.
    """
    xs = np.linspace(a, b, 129)
    ph = np.asarray(phase(xs), dtype=float)
    if not np.all(np.isfinite(ph)):
        raise InvalidIntegrandError("phase produced non-finite values")
    dph = np.abs(np.diff(ph))
    counts = np.ceil(dph / (2.0 * np.pi)) + 1.0
    if not counts.sum() <= MAX_CELLS:
        raise ResolutionLimitError(
            f"sampled phase variation {dph.sum():.6g} rad needs {counts.sum():.6g} "
            f"starting cells, more than MAX_CELLS = {MAX_CELLS}")
    counts = counts.astype(int)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    offsets = np.arange(1, len(starts) + 1) - starts
    steps = np.diff(xs) / counts
    edges = np.concatenate(([a], np.repeat(xs[:-1], counts)
                                 + np.repeat(steps, counts) * offsets))
    edges[-1] = b
    return edges


def integrate(amplitude, phase, interval) -> complex:
    """Adaptive Gauss-Kronrod evaluation of ``int amp * exp(i*phase)``.

    Parameters
    ----------
    amplitude : SmoothFunction1D or callable
    phase : callable
        Real-valued; evaluated only inside the (clipped) interval.
    interval : (float, float)

    Returns
    -------
    complex

    Raises
    ------
    InvalidIntegrandError
        On NaN/inf from either factor.
    ResolutionLimitError
        If the phase needs more than ``MAX_CELLS`` starting cells.
    ToleranceNotMetError
        If ``MAX_SUBDIVISIONS`` bisections do not meet the tolerance.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("interval must be bounded")
    if isinstance(amplitude, SmoothFunction1D):
        a = max(a, amplitude.support[0])
        b = min(b, amplitude.support[1])
    if b <= a:
        return 0.0 + 0.0j
    edges = _seed_cells(phase, a, b)
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _eval_cells(amplitude, phase, lo, hi)
    splits = 0
    while True:
        total = vals.sum()
        err = errs.sum()
        tol = max(ABS_TOL, REL_TOL * abs(total))
        if err <= tol:
            return complex(total)
        # bisect every cell holding more than its share of the error budget
        bad = errs > tol / max(len(errs), 1)
        n_bad = int(bad.sum())
        if n_bad == 0:
            bad = errs == errs.max()
            n_bad = int(bad.sum())
        if splits + n_bad > MAX_SUBDIVISIONS:
            raise ToleranceNotMetError(
                f"tolerance not met after {splits} subdivisions "
                f"(estimate {total!r}, error bound {err:.3e})",
                complex(total), float(err))
        splits += n_bad
        blo, bhi = lo[bad], hi[bad]
        bmid = 0.5 * (blo + bhi)
        nlo = np.concatenate([lo[~bad], blo, bmid])
        nhi = np.concatenate([hi[~bad], bmid, bhi])
        nvals, nerrs = _eval_cells(amplitude, phase, nlo[len(lo[~bad]):],
                                   nhi[len(hi[~bad]):])
        vals = np.concatenate([vals[~bad], nvals])
        errs = np.concatenate([errs[~bad], nerrs])
        lo, hi = nlo, nhi


def oracle_integrate(amplitude, phase, interval, node_count: int = 1_000_001) -> complex:
    """Composite-Simpson cross-check on a dense uniform grid of ``node_count``
    nodes (made odd if needed).

    Intentionally has no adaptivity and shares nothing with :func:`integrate`
    beyond the integrand itself.  The grid and amplitude * Simpson weights of
    the last call are kept for the next call with an equal amplitude, interval
    and node count, so the amplitude must be a fixed function: a sweep of
    phases against one amplitude evaluates it once.
    """
    n = int(node_count)
    if n % 2 == 0:
        n += 1
    a, b = float(interval[0]), float(interval[1])
    if b <= a:
        return 0.0 + 0.0j
    x, amp_w = _oracle_grid(amplitude, a, b, n)
    ph = np.asarray(phase(x), dtype=float)
    if not np.all(np.isfinite(ph)):
        raise InvalidIntegrandError("integrand produced non-finite values")
    h = (b - a) / (n - 1)
    return complex(h * np.sum(amp_w * np.exp(1j * ph)))


_oracle_memo = None   # (amplitude, a, b, n), grid, amplitude * Simpson weights


def _oracle_grid(amplitude, a, b, n):
    """Grid and amplitude * Simpson weights of :func:`oracle_integrate`, memoized
    for one (amplitude, a, b, n)."""
    global _oracle_memo
    key = (amplitude, a, b, n)
    memo = _oracle_memo
    if memo is None or memo[0] != key:
        x = np.linspace(a, b, n)
        amp = np.asarray(amplitude(x))  # may be complex (data carry unimodular phases)
        if not np.all(np.isfinite(amp)):
            raise InvalidIntegrandError("integrand produced non-finite values")
        memo = _oracle_memo = (key, x, amp * simpson_weights(n))
    return memo[1], memo[2]


def simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights (1,4,2,...,4,1)/3 for n odd nodes."""
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd node count >= 3")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


# Rule of the batch route: trapezoid nodes per radian of the phase-variation
# bound W, the amplitude-resolving node floor, the node-count limit past which
# the rule refuses (ResolutionLimitError), the most points that share one rule
# on the flat route, and the element budget of one block of temporaries: the
# mesh route's (its sums depend on the block) and the flat route's, sized to
# stay in cache (each flat row is summed on its own, so no value depends on
# it).  The rule's measured error, 1.6e-13 on the CLI families and up to
# 3.8e-13 off them, is stated in the module docstring.
NODES_PER_RADIAN = 1.0
N_MIN = 257
N_MAX = 2_097_153
BUCKET = 4096
CHUNK_ELEMS = 2 ** 23
FLAT_CHUNK_ELEMS = 2 ** 17
# One multiply-add of the mesh route's `einsum` contraction, in complex
# exponentials: 1.5-3.4 ns against 50-61 ns measured, numpy 2.4 on a 2-CPU Xeon.
CONTRACT_WEIGHT = 1.0 / 18.0


def _rule_nodes(w):
    """Node counts max(N_MIN, ceil(NODES_PER_RADIAN * w) | 1), as floats, for bounds w."""
    n = np.ceil(np.multiply(w, NODES_PER_RADIAN))
    return np.maximum(N_MIN, n + (n % 2 == 0))


def batch_work(P, T, L_of, S_of, interval, shift=0.0) -> float:
    """Work of ``two_phase_batch`` on these coefficients in complex exponentials,
    counted from the runs it executes before any rule is built: a run of N
    nodes and k points (rows on the mesh route) costs N*(c + (1 +
    ``CONTRACT_WEIGHT``*c)*k), c the column count on the mesh route (N*c
    exponentials for ``E_col``, and per row N for ``E_row`` and N*c
    multiply-adds) and 0 on the flat route (N exponentials per point)."""
    P, T, shift = (np.asarray(c, dtype=float) for c in (P, T, shift))
    spans = [float(np.ptp(f(np.asarray(interval, dtype=float)))) for f in (L_of, S_of)]
    *_, c, runs = _plan(P, T, shift, *spans)
    return float(sum(_rule_nodes(run[-1][0]) * (c + (1 + CONTRACT_WEIGHT * c)
                                                * sum(len(idx) for _, idx in run))
                     for run in runs))


def _batch_rule(w_max, amplitude, a, b):
    """Trapezoid nodes and weighted amplitude sized for phase variation ``w_max``."""
    n = int(_rule_nodes(w_max))
    if n > N_MAX:
        raise ResolutionLimitError(
            f"phase variation W = {w_max:.6g} rad needs {n} trapezoid nodes, "
            f"more than N_MAX = {N_MAX}")
    v = np.linspace(a, b, n)
    w = np.full(n, (b - a) / (n - 1))
    w[[0, -1]] *= 0.5
    amp_w = np.asarray(amplitude(v), dtype=float) * w
    if not np.all(np.isfinite(amp_w)):
        raise InvalidIntegrandError("amplitude produced non-finite values")
    return v, amp_w


def two_phase_batch(P, T, L_of, S_of, amplitude, interval, shift=0.0) -> np.ndarray:
    """Vectorized ``I = int amp(v) exp(i*((P + shift)*L(v) + T*S(v))) dv``.

    P, T and shift must broadcast against each other; the result has their
    broadcast shape.  Routes and rule are those of the module docstring.
    Every returned value is finite: a NaN or infinite coefficient raises
    :class:`InvalidIntegrandError` before any rule is sized, and a rule of
    more than ``N_MAX`` nodes raises :class:`ResolutionLimitError`.  For grid
    scans; single contract-grade values should use :func:`integrate`.  L_of
    and S_of must be monotone on the interval (their end values give W).
    """
    P, T, shift = (np.asarray(c, dtype=float) for c in (P, T, shift))
    try:
        shape = np.broadcast(P, T, shift).shape
    except ValueError:
        raise ValueError(f"P, T and shift must broadcast, got shapes {P.shape}, "
                         f"{T.shape} and {shift.shape}") from None
    if not all(np.all(np.isfinite(c)) for c in (P, T, shift)):
        raise InvalidIntegrandError("phase coefficients P, T and shift must be finite")
    a, b = float(interval[0]), float(interval[1])
    spans = (float(np.ptp(f(np.array([a, b])))) for f in (L_of, S_of))
    col_shape = np.broadcast(T, shift).shape
    rows, T, shift, c, runs = _plan(P, T, shift, *spans)
    if c:
        sums = _mesh_batch(rows, T, shift, runs, L_of, S_of, amplitude, a, b)
        return sums[np.arange(P.size).reshape(P.shape), np.arange(c).reshape(col_shape)]
    out = np.empty(rows.shape, dtype=complex)
    for (w, idx), in runs:
        v, amp_w = _batch_rule(w, amplitude, a, b)
        L = np.asarray(L_of(v), dtype=float)
        S = np.asarray(S_of(v), dtype=float)
        block = max(1, FLAT_CHUNK_ELEMS // len(v))
        for k in range(0, len(idx), block):
            sel = idx[k:k + block]
            e = _unit_phase(rows[sel], L, T[sel], S)
            e *= amp_w
            out[sel] = e.sum(axis=1)
    return out.reshape(shape)


def _unit_phase(coeffs, profile, coeffs2=None, profile2=None):
    """``exp(1j * (coeffs[..., None] * profile [+ coeffs2[..., None] * profile2]))``.

    Built in its own output array, the optional second product in its real
    part: one complex temporary instead of three or more keeps the peak
    memory at 16 bytes per element, and the values are those of the
    expression.
    """
    out = np.zeros(coeffs.shape + profile.shape, dtype=complex)
    np.multiply(coeffs[..., None], profile, out=out.imag)
    if coeffs2 is not None:
        np.multiply(coeffs2[..., None], profile2, out=out.real)
        out.imag += out.real
        out.real = 0.0
    return np.exp(out, out=out)


def _plan(P, T, shift, spanL, spanS):
    """What :func:`two_phase_batch` runs, read by both routes and by
    :func:`batch_work`: (P, T, shift, c, runs), a run being the (W, point
    indices) groups of one rule, sized from its last W.

    Mesh, when P varies on other axes than T and shift: P as (r, 1) rows, T
    and shift as (1, c) columns, and runs of consecutive row groups with one
    node count.  Flat (c = 0): P + shift and T raveled, shift None, and one
    bucket per run.
    """
    cols = np.broadcast(T, shift).size
    if P.size > 1 and cols > 1 and P.size * cols == np.broadcast(P, T, shift).size:
        rows = P.reshape(-1, 1)
        T, shift = (c.reshape(1, -1) for c in np.broadcast_arrays(T, shift))
        col_part = float((np.abs(shift) * spanL + np.abs(T) * spanS).max())
        order = np.argsort(np.abs(rows[:, 0]), kind="stable")
        per_group = max(1, BUCKET // T.size)
        groups = [order[i:i + per_group] for i in range(0, len(order), per_group)]
        widths = [abs(rows[idx[-1], 0]) * spanL + col_part for idx in groups]
        runs = itertools.groupby(zip(widths, groups), key=lambda g: _rule_nodes(g[0]))
        return rows, T, shift, T.size, [list(run) for _, run in runs]
    P, T, shift = np.broadcast_arrays(P, T, shift)
    P, T = (P + shift).ravel(), T.ravel()
    W = np.abs(P) * spanL + np.abs(T) * spanS
    order = np.argsort(W, kind="stable")
    nodes = _rule_nodes(W[order])
    runs, i = [], 0
    while i < len(order):   # a bucket ends before its rule doubles its first point's
        j = min(i + BUCKET, int(np.searchsorted(nodes, 2.0 * nodes[i], "right")))
        runs.append([(W[order[j - 1]], order[i:j])])
        i = j
    return P, T, None, 0, runs


def _mesh_batch(rows, T, shift, runs, L_of, S_of, amplitude, a, b):
    """Mesh route of :func:`two_phase_batch` on a plan of :func:`_plan`: the
    (r, c) sums, with one rule and one ``E_col`` (per block of nodes) per run."""
    block = max(1, CHUNK_ELEMS // (len(runs[0][0][1]) + T.size))
    sums = np.zeros((rows.size, T.size), dtype=complex)
    for run in runs:
        v, amp_w = _batch_rule(run[-1][0], amplitude, a, b)
        L = np.asarray(L_of(v), dtype=float)
        S = np.asarray(S_of(v), dtype=float)
        for k in range(0, len(v), block):
            sl = slice(k, k + block)
            e_col = _unit_phase(T, S[sl], shift, L[sl])
            e_col *= amp_w[sl]
            for _, idx in run:
                sums[idx] += np.einsum("...n,...n->...", _unit_phase(rows[idx], L[sl]), e_col)
    return sums
