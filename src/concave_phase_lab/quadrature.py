"""Oscillatory quadrature on bounded intervals.

Two independent evaluation routes for integrals of the form

    I = int_a^b  amplitude(x) * exp(i * phase(x)) dx

with a smooth compactly supported amplitude and a real phase:

* :func:`integrate` -- single values: the batch rule below, doubled until
  two successive trapezoid sums agree.  Its contract is a real amplitude
  that vanishes with all its derivatives at both ends and a phase with a
  monotone derivative.  Its reach is a first comparison of ``N_MAX`` nodes,
  about 1e6 rad of sampled phase variation.
* :func:`oracle_integrate` -- the deliberately naive cross-check: a single
  composite Simpson rule on a dense uniform grid.  Slow, simple, trustworthy.
  It keeps the last grid and amplitude * weights, so a sweep of phases
  against one amplitude evaluates the amplitude once.

:func:`integrate` and the batch routes share one rule; the oracle shares no
code with either beyond function evaluation, so their agreement is a
meaningful certificate.  ``spectral.propagate`` settles non-stationary band
integrals before it calls :func:`integrate`, with an integration-by-parts
bound that meets ``ABS_TOL``; the generic callable API here does not, since
only the band form knows its phase slope in closed form.

A third entry point, :func:`two_phase_batch`, evaluates whole families of
integrals with phases ``(P + shift)*L(v) + T*S(v)`` of two fixed profiles,
which dominate grid scans (kernel grids, time scans of the maximal
functions).  Its route follows the shapes of P, T and shift alone:

* flat -- coefficients paired per integral (any broadcast that is not an
  outer mesh), with P + shift in place of P.  Points sorted by their phase
  variation W go into buckets of at most ``BUCKET`` points that share the
  rule of their largest W and end before it passes twice the node count of
  their first point: every point gets between its own node count and twice
  it, whatever shares the call, and its sum depends only on that count.
* mesh -- P varies along other axes than T and shift, e.g. (r, 1) against
  (1, c).  Every sum is an entry of ``E_row @ E_col.T``, with ``E_row =
  exp(i*P*L)`` and ``E_col = amp_w * exp(i*(shift*L + T*S))``.  Rows go by
  |P| into groups of ``BUCKET // c`` rows (at least one), each sized from its
  last row's |P|*span L plus the largest |shift|*span L + |T|*span S of a
  column; groups with one node count share one rule and one ``E_col`` per
  block of nodes.  Columns affine in their index (uniform times), and rows of
  a group affine in group order (kernel grids), are direct every 2h + 1 <= 33
  and multiplied out between, a row within 2*``AFFINE_ULPS``*eps*max|P|*max|L|
  + h*eps of its phase.  Where :func:`batch_work` counts it cheaper, uniform
  times are summed at N Chebyshev points per fast column instead (14-30 on
  vertical paths) and interpolated (Trefethen 2013, Thm 8.2; Berrut & Trefethen
  2004), within (2**-52 + Lambda_N*2*``AFFINE_ULPS``*eps*(max|T|*max|S| +
  max|shift|*max|L|))*sum|amp_w|, Lambda_N <= 1 + (2/pi)*ln N.  Exponentials:
  (r/33 + c/33 + 2)*n, (r + N*f)*n or (r + c)*n, not r*c*n.

One planner lays out the runs of both routes, and :func:`batch_work` counts
what they build before any rule is built.  Given ``at``, :func:`two_phase_batch`
takes some entries of a mesh by the route counted cheaper, and where an exact
bound already rules the mesh out, flat without planning it.

:func:`lattice_batch` sums the refinement meshes of ``maximal``: a time-only
lattice as a mesh of its seeds against one centre column and its powers,
lines from per-seed factor tables (``TABLE_WEIGHT`` per entry), both built by
multiplication and within 2e-17*(1 + W)*sum|amp*w| of direct sums on the same
rule at W from 7e2 to 3e4 rad.

All three use one rule: trapezoid weights h*(1/2, 1, ..., 1, 1/2) on
n = max(``N_MIN``, ceil(``NODES_PER_RADIAN`` * W) | 1) uniform nodes, one per
radian of W above a floor of 257.  The band amplitude vanishes with all its
derivatives at both ends, so the trapezoid rule converges super-algebraically
once the spacing is below the Nyquist spacing (Trefethen & Weideman 2014).
Against the dense oracle its error measured at most 1.6e-13 absolute on the
band integrals of the five CLI data families with W up to 1e4 rad, largest
where W is close to the node count; off those families, random (P, T) at
m = 0.3 deviated by up to 3.8e-13 at W near 257.  A rule that would need
more than ``N_MAX`` nodes raises :class:`ResolutionLimitError` instead of
losing accuracy.  Both routes build their exponentials in blocks of at most
``CHUNK_ELEMS`` elements, small enough to stay in cache: flat rows, or mesh
nodes.  Meshes and time-only lattices share one contraction: one ``zdotc``
per (row, column) pair and block of at most ``DOT_NODES`` nodes, which
OpenBLAS runs on one thread, so the sums do not depend on the BLAS thread
count (a threaded ``zgemm`` or a longer dot product may regroup the sum).
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

__all__ = [
    "QuadratureError",
    "InvalidIntegrandError",
    "ToleranceNotMetError",
    "ResolutionLimitError",
    "integrate",
    "oracle_integrate",
    "two_phase_batch",
    "lattice_batch",
    "batch_work",
    "simpson_weights",
]


class QuadratureError(Exception):
    """Base class for quadrature failures."""


class InvalidIntegrandError(QuadratureError):
    """The integrand produced NaN or infinity inside the interval."""


class ResolutionLimitError(QuadratureError):
    """A rule, or the first comparison of :func:`integrate`, would need more
    than ``N_MAX`` trapezoid nodes."""


class ToleranceNotMetError(QuadratureError):
    """:func:`integrate` reached ``N_MAX`` nodes before two sums agreed.

    Carries the finest sum and the difference from the one before it, so
    callers can decide whether the partial result is still usable.
    """

    def __init__(self, message: str, estimate: complex, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


# Target of integrate: successive sums within max(ABS_TOL, REL_TOL*|I|).
REL_TOL = 1e-8
ABS_TOL = 1e-12


def _weighted_sum(amp_w, phase, v):
    """``sum(amp_w * exp(i*phase(v)))``, refusing non-finite factors."""
    ph = np.asarray(phase(v), dtype=float)
    if not (np.all(np.isfinite(amp_w)) and np.all(np.isfinite(ph))):
        raise InvalidIntegrandError("integrand produced non-finite values")
    return complex(np.sum(amp_w * np.exp(1j * ph)))


def integrate(amplitude, phase, interval) -> complex:
    """Nested trapezoid value of ``int amplitude * exp(i*phase)`` on ``interval``.

    The first sum is ``_batch_rule``'s for the phase variation W sampled at
    129 points; each pass adds the midpoints of the last, and the finer sum
    is returned once two successive sums differ by at most
    max(``ABS_TOL``, ``REL_TOL``*|I|).  Contract, met by every caller: the
    amplitude is real and vanishes with all its derivatives at both ends
    (``spectral.BUMP``, the Sobolev weight), and the phase has a monotone
    derivative, so 129 samples give W.  Under it the difference bounds the
    coarser sum's error (module docstring).

    Raises :class:`InvalidIntegrandError` on NaN/inf from either factor,
    :class:`ResolutionLimitError` before the amplitude is evaluated if the
    first comparison needs more than ``N_MAX`` nodes, and
    :class:`ToleranceNotMetError` if the sums still differ when the next pass
    would exceed ``N_MAX``.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("interval must be bounded")
    if b <= a:
        return 0.0 + 0.0j
    ph = np.asarray(phase(np.linspace(a, b, 129)), dtype=float)
    if not np.all(np.isfinite(ph)):
        raise InvalidIntegrandError("phase produced non-finite values")
    w = float(np.abs(np.diff(ph)).sum())
    n = float(_rule_nodes(w))
    if not 2.0 * n - 1.0 <= N_MAX:
        raise ResolutionLimitError(
            f"sampled phase variation {w:.6g} rad needs {2.0 * n - 1.0:.6g} trapezoid "
            f"nodes for two sums, more than N_MAX = {N_MAX}")
    n = int(n)
    v, amp_w = _batch_rule(w, amplitude, a, b)
    total = _weighted_sum(amp_w, phase, v)
    while True:
        h = (b - a) / (n - 1)
        mid = np.linspace(a + 0.5 * h, b - 0.5 * h, n - 1)
        amp_w = np.asarray(amplitude(mid), dtype=float) * (0.5 * h)
        finer = 0.5 * total + _weighted_sum(amp_w, phase, mid)
        err = abs(finer - total)
        if err <= max(ABS_TOL, REL_TOL * abs(finer)):
            return finer
        n = 2 * n - 1
        total = finer
        if 2 * n - 1 > N_MAX:
            raise ToleranceNotMetError(
                f"sums still differ by {err:.3e} at {n} nodes, and the next pass would "
                f"exceed N_MAX = {N_MAX} (estimate {finer!r})", finer, err)


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


@functools.lru_cache(maxsize=1)
def _oracle_grid(amplitude, a, b, n):
    """Grid and amplitude * Simpson weights of :func:`oracle_integrate`, kept for
    the last (amplitude, a, b, n); a non-finite amplitude raises and is not kept."""
    x = np.linspace(a, b, n)
    amp = np.asarray(amplitude(x))  # may be complex (data carry unimodular phases)
    if not np.all(np.isfinite(amp)):
        raise InvalidIntegrandError("integrand produced non-finite values")
    return x, amp * simpson_weights(n)


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
# on the flat route, and the element budget of one block of temporaries on
# both routes, sized to stay in cache.  Each flat row is summed on its own, so
# no flat value depends on the block; a mesh sum adds its node blocks in turn.
# The rule's measured error, 1.6e-13 on the CLI families and up to 3.8e-13
# off them, is stated in the module docstring.
NODES_PER_RADIAN = 1.0
N_MIN = 257
N_MAX = 2_097_153
BUCKET = 4096
CHUNK_ELEMS = 2 ** 17
# Most nodes in one `_dot_sums` block: OpenBLAS (0.3.31) runs a `zdotc` of at
# most 10,000 elements on one thread, and splits and regroups a longer one.
DOT_NODES = 8192
# One multiply-add of the `_dot_sums` contraction, in complex exponentials:
# 0.32-0.60 ns against 32-35 ns measured on mesh-route shapes, numpy 2.4.6 and
# OpenBLAS 0.3.31 on a 2-CPU Xeon; 1/53 at the dearest pair.  Also one of `_interpolate`:
# 0.17-0.70 ns against 14-17 ns on 31 x 513 x 20 to 64 x 4,369 x 40 maps, all included.
CONTRACT_WEIGHT = 1.0 / 50.0


# One entry of a line lattice's factor table in exponentials (multiply, sum,
# Python steps): 0.077-0.085 on 1 x 17 and 17 x 17 tables of 257 to 2,049 nodes
# against flat samples, numpy 2.4.6 on a 2-CPU Xeon.  Its node blocks depend on
# the node count alone, and a 17 x 17 table of one fits in CHUNK_ELEMS.
TABLE_WEIGHT = 1.0 / 12.0
LATTICE_NODES = CHUNK_ELEMS // 289
# Mesh columns and rows by recurrence (_affine): within AFFINE_ULPS ulps of an affine
# fit and h <= COLUMN_HALF_WIDTH unimodular products from a direct one, a phase is within
# 2*AFFINE_ULPS*eps*(max|T|*max|S| + max|shift|*max|L|) + h*eps (rows: max|P|*max|L|);
# Chebyshev columns (_columns) drop the h*eps and multiply the rest by Lambda_N.
COLUMN_HALF_WIDTH = 16
AFFINE_ULPS = 4


def _rule_nodes(w):
    """Node counts max(N_MIN, ceil(NODES_PER_RADIAN * w) | 1), as floats, for bounds w."""
    n = np.ceil(np.multiply(w, NODES_PER_RADIAN))
    return np.maximum(N_MIN, n + (n % 2 == 0))


def batch_work(P, T, L_of, S_of, interval, shift=0.0) -> float:
    """Work of ``two_phase_batch`` on these coefficients in complex exponentials,
    counted from the runs it executes before any rule is built: a run of N
    nodes and k points (rows on the mesh route) costs N*(e + r + ``CONTRACT_WEIGHT``*c'*k):
    on the mesh route, e (columns) and r (rows) are one per direct one and step factor
    plus ``TABLE_WEIGHT`` per one multiplied out, c' the columns built; on the flat route
    e = c' = 0, r = k; Chebyshev columns add their interpolation at ``CONTRACT_WEIGHT``.  Work
    past the float range counts as inf, without a warning, so that budgets refuse it.  The
    ``at`` route of ``two_phase_batch`` is chosen by these counts, or by a bound on them."""
    P, T, shift = (np.asarray(c, dtype=float) for c in (P, T, shift))
    spans = [float(np.ptp(f(np.asarray(interval, dtype=float)))) for f in (L_of, S_of)]
    with np.errstate(over="ignore", invalid="ignore"):
        return _work(*_plan(P, T, shift, *spans)[2:])


def _work(cols, runs):
    """:func:`batch_work`'s count of a :func:`_plan`'s columns and runs."""
    h, (T, _), fit = cols or (0, np.zeros((2, 0)), None)
    e = T.size + (fit[0].size if h else 0) + TABLE_WEIGHT * 2 * h * T.size
    dots = CONTRACT_WEIGHT * (2 * h + 1) * T.size
    interp = CONTRACT_WEIGHT * fit[0] * T.size if fit is not None and not h else 0   # c x N
    def rows(layout, k):   # k direct rows, or q centres, 1 step factor and the products
        g, q = (layout[0], layout[1].size) if layout else (0, k)
        return q + 1 + TABLE_WEIGHT * (2 * g + (2 * g + 1) * q) if g else k
    return float(sum(_rule_nodes(run[-1][0]) * (e + sum(rows(lay, len(i)) + dots * len(i)
                                                       for _, i, lay in run))
                     + interp * sum(len(i) for _, i, _ in run) for run in runs))


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


def two_phase_batch(P, T, L_of, S_of, amplitude, interval, shift=0.0, at=None) -> np.ndarray:
    """Vectorized ``I = int amp(v) exp(i*((P + shift)*L(v) + T*S(v))) dv``.

    P, T and shift must broadcast against each other; the result has their
    broadcast shape.  Routes and rule are those of the module docstring.
    Given ``at = (i, j)``, it holds only the entries (i, j) of an (r, 1) x (1, c)
    mesh, in the shape of i and j: flat, or read off the whole mesh where
    :func:`batch_work` counts that less work (never for one row), each route
    planned at most once.  With n_k the entries' own node counts and f the fast
    columns, f*max(``N_MIN``, max n_k - 2) >= 2*sum n_k sends them flat unweighed
    (every column layout builds f exponentials per node or more, on a rule at
    most one odd step short of any entry's own; no flat entry gets more than
    twice its own), and the flat entries are counted only if the mesh counts in
    [sum n_k, 2*sum n_k).
    Every returned value is finite: a NaN or infinite coefficient raises
    :class:`InvalidIntegrandError` before any rule is sized, and a rule of
    more than ``N_MAX`` nodes raises :class:`ResolutionLimitError`.  For grid
    scans; single contract-grade values should use :func:`integrate`.  L_of
    and S_of must be monotone on the interval (their end values give W).
    """
    P, T, shift = (np.asarray(c, dtype=float) for c in (P, T, shift))
    try:
        np.broadcast(P, T, shift)
    except ValueError:
        raise ValueError(f"P, T and shift must broadcast, got shapes {P.shape}, "
                         f"{T.shape} and {shift.shape}") from None
    if not all(np.all(np.isfinite(c)) for c in (P, T, shift)):
        raise InvalidIntegrandError("phase coefficients P, T and shift must be finite")
    a, b = float(interval[0]), float(interval[1])
    spans = [float(np.ptp(f(np.array([a, b])))) for f in (L_of, S_of)]
    columns, plan = np.broadcast(T, shift), None
    if at is None:
        at = np.arange(P.size).reshape(P.shape), np.arange(columns.size).reshape(columns.shape)
        plan = _plan(P, T, shift, *spans)
    else:
        i, j = at = np.broadcast_arrays(*at)
        T_c, shift_c = (np.broadcast_to(c, columns.shape).ravel() for c in (T, shift))
        P_k, T_k, s_k = entries = P.ravel()[i], T_c[j], shift_c[j]
        own = _rule_nodes(np.abs(P_k + s_k) * spans[0] + np.abs(T_k) * spans[1])
        f, n = np.gcd(T_c.size, np.argmax(T_c != T_c[0]) or 1), own.sum()   # as _columns
        if P.size > 1 and 2.0 * n > f * max(N_MIN, own.max(initial=0.0) - 2.0):
            mesh = _plan(P, T, shift, *spans)
            work = _work(*mesh[2:]) if mesh[2] else np.inf
            if work < 2.0 * n:   # the flat count lies in [n, 2n]
                flat = None if work < n else _plan(*entries, *spans)
                plan = mesh if flat is None or work < _work(*flat[2:]) else flat
        plan = plan or _plan(*entries, *spans)
    rows, T, cols, runs = plan
    if cols:
        return _mesh_batch(rows, cols, runs, L_of, S_of, amplitude, a, b)[at]
    out = np.empty(rows.shape, dtype=complex)
    for (w, idx, _), in runs:
        v, amp_w, L, S = _profiled_rule(w, L_of, S_of, amplitude, a, b)
        out[idx] = _flat_sums(rows[idx], L, T[idx], S, amp_w)
    return out.reshape(np.broadcast(*at).shape)


def _profiled_rule(w_max, L_of, S_of, amplitude, a, b):
    """``_batch_rule``'s nodes and weighted amplitude, with L and S on the nodes."""
    v, amp_w = _batch_rule(w_max, amplitude, a, b)
    return v, amp_w, np.asarray(L_of(v), dtype=float), np.asarray(S_of(v), dtype=float)


def _flat_sums(P, L, T, S, amp_w):
    """``sum(amp_w * exp(i*(P*L + T*S)))`` per point, rows of one rule built in
    blocks of at most ``CHUNK_ELEMS`` elements and each summed on its own."""
    out = np.empty(len(P), dtype=complex)
    block = max(1, CHUNK_ELEMS // len(L))
    for k in range(0, len(P), block):
        e = _unit_phase(P[k:k + block], L, T[k:k + block], S)
        e *= amp_w
        out[k:k + block] = e.sum(axis=1)
    return out


def lattice_batch(seeds, steps, samples, L_of, S_of, amplitude, interval) -> np.ndarray:
    """Band integrals of small affine lattices around seeds, from factor tables.

    Sample (s, a, b) of ``samples`` (integer arrays), with ``seeds`` =
    (P, T, P_a, P_b) per seed and ``steps`` = (P_ab, T_b), has the phase
    (P_s + a*P_a_s + b*P_b_s + a*b*P_ab)*L + (T_s + b*T_b)*S.  Each seed gets
    the rule of its own largest W, and its samples one exponential per node
    each, as on the flat route, or sums from tables, whichever counts fewer
    exponentials for that seed alone.  Time-only (P_a = P_ab = 0 and one P_b:
    vertical paths, curves of order one), a rule's seeds are a mesh of rows
    exp(i*(P*L + T*S)) and columns amp_w*B^b, B = exp(i*(T_b*S + P_b*L)), in
    the mesh route's contraction; a seed costs one exponential and
    ``CONTRACT_WEIGHT`` per multiply-add, 2|b| + 1 per node for its largest
    |b|.  Otherwise: the seed's table E_0*A^a*B^b*C^(a*b), at one exponential
    each for E_0, A, B and C, the exponentials of the phase's four parts, and
    ``TABLE_WEIGHT`` per entry of the seed's box of offsets.  Tables are built
    by multiplication outward from offset 0, at most 8 steps in ``maximal``,
    and node blocks depend on the node count alone.
    """
    P, T, P_a, P_b = (np.asarray(c, dtype=float) for c in seeds)
    P_ab, T_b = (float(c) for c in steps)
    s, a, b = (np.asarray(c, dtype=np.intp) for c in samples)
    if not all(np.all(np.isfinite(c)) for c in (P, T, P_a, P_b, P_ab, T_b)):
        raise InvalidIntegrandError("lattice coefficients must be finite")
    lo, hi = float(interval[0]), float(interval[1])
    spans = [float(np.ptp(f(np.array([lo, hi])))) for f in (L_of, S_of)]
    time_only = not (P_ab or np.any(P_a)) and np.all(P_b == P_b[:1])
    P_k, T_k = P[s] + a * P_a[s] + b * P_b[s] + (a * b) * P_ab, T[s] + b * T_b
    box = np.zeros((3, len(P)))   # per seed: largest W, |a| and |b|
    for row, value in zip(box, (np.abs(P_k) * spans[0] + np.abs(T_k) * spans[1],
                                np.abs(a), np.abs(b))):
        np.maximum.at(row, s, value)
    cost = (1 + CONTRACT_WEIGHT * (2 * box[2] + 1) if time_only
            else 3 + TABLE_WEIGHT * (2 * box[1] + 1) * (2 * box[2] + 1))
    tabled = np.bincount(s, minlength=len(P)) > cost
    nodes, (h, g) = _rule_nodes(box[0]), box[1:].max(axis=1, initial=0).astype(int)
    out = np.zeros(len(s), dtype=complex)
    order = np.lexsort((s, nodes[s]))   # by rule, then by seed
    for idx in np.split(order, np.flatnonzero(np.diff(nodes[s[order]])) + 1):
        v, amp_w, L, S = _profiled_rule(box[0, s[idx]].max(initial=0.0), L_of, S_of,
                                        amplitude, lo, hi)
        per, idx = idx[~tabled[s[idx]]], idx[tabled[s[idx]]]
        out[per] = _flat_sums(P_k[per], L, T_k[per], S, amp_w)
        if not len(idx):
            continue
        ids, local = np.unique(s[idx], return_inverse=True)
        if time_only:   # a mesh: one centre of phase 0, g powers of B = exp(i*(T_b*S + P_b*L))
            nb = min(len(v), DOT_NODES)
            r, sums = max(1, CHUNK_ELEMS // nb), np.zeros((len(ids), 2 * g + 1), dtype=complex)
            _dot_sums(sums, [(lambda sl, p=P[ids[i:i + r]], t=T[ids[i:i + r]]:
                              _unit_phase(p, L[sl], t, S[sl]), slice(i, i + r))
                             for i in range(0, len(ids), r)],
                      (g, np.zeros((2, 1, 1)), np.array([[T_b], P_b[:1]])), L, S, amp_w, nb)
            out[idx] = sums[local, b[idx] + g]
            continue
        nb = min(len(v), LATTICE_NODES)
        per_block = max(1, CHUNK_ELEMS // ((2 * h + 1) * (2 * g + 1) * nb))
        for k in range(0, len(v), nb):
            sl = slice(k, k + nb)
            C = _unit_phase(np.array([P_ab]), L[sl])[0]
            for first in range(0, len(ids), per_block):
                blk = ids[first:first + per_block]
                i, j = np.searchsorted(local, [first, first + per_block])
                e0 = _unit_phase(P[blk], L[sl], T[blk], S[sl])
                e0 *= amp_w[sl]
                A = _unit_phase(P_a[blk], L[sl])
                B = _unit_phase(P_b[blk], L[sl], np.full(len(blk), T_b), S[sl])
                sel, hb = idx[i:j], int(np.abs(b[idx[i:j]]).max())
                # entry (a, b) is e0 * A^a * (B * C^a)^b, summed over the nodes
                sums = _powers(_powers(e0, A, h), _powers(B, C, h), hb).sum(axis=-1)
                out[sel] += sums[b[sel] + hb, a[sel] + h, local[i:j] - first]
    return out


def _powers(x, r, h):
    """x * r**k for k = -h..h along a new first axis, by repeated multiplication
    outward from k = 0 (r is unimodular, so conj(r) stands for 1/r)."""
    out = np.empty((2 * h + 1,) + np.broadcast(x, r).shape, dtype=complex)
    out[h] = x
    inverse = np.conjugate(r)
    for k in range(1, h + 1):
        np.multiply(out[h + k - 1], r, out=out[h + k])
        np.multiply(out[h - k + 1], inverse, out=out[h - k])
    return out


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
    :func:`batch_work`: (P, T, cols, runs), a run being the (W, point indices, row
    layout) groups of one rule, sized from its last W.  Mesh, when P varies on other
    axes than T and shift: P and T raveled, the column layout of :func:`_columns`, and
    runs of consecutive row groups with one node count and the :func:`_affine` layout
    of their P.  Flat: P + shift and T raveled, cols None, one bucket per run."""
    cols = np.broadcast(T, shift).size
    if P.size > 1 and cols > 1 and P.size * cols == np.broadcast(P, T, shift).size:
        rows, (T, shift) = P.ravel(), (c.ravel() for c in np.broadcast_arrays(T, shift))
        col_part = float((np.abs(shift) * spanL + np.abs(T) * spanS).max())
        order = np.argsort(np.abs(rows), kind="stable")
        per_group = max(1, BUCKET // T.size)
        groups = [order[i:i + per_group] for i in range(0, len(order), per_group)]
        widths = [abs(rows[idx[-1]]) * spanL + col_part for idx in groups]
        layouts = [_affine(rows[idx][None, :, None]) for idx in groups]
        runs = [list(run) for _, run in itertools.groupby(
            zip(widths, groups, layouts), key=lambda g: _rule_nodes(g[0]))]
        return rows, T, _columns(T, shift, spanL, spanS, runs), runs
    P, T, shift = np.broadcast_arrays(P, T, shift)
    P, T = (P + shift).ravel(), T.ravel()
    W = np.abs(P) * spanL + np.abs(T) * spanS
    order = np.argsort(W, kind="stable")
    nodes = _rule_nodes(W[order])
    runs, i = [], 0
    while i < len(order):   # a bucket ends before its rule doubles its first point's
        j = min(i + BUCKET, int(np.searchsorted(nodes, 2.0 * nodes[i], "right")))
        runs.append([(W[order[j - 1]], order[i:j], None)])
        i = j
    return P, T, None, runs


def _affine(grid):
    """(h, centres, steps) of a (k, n, f) grid: if n > 2 and each of its f fast columns
    is within ``AFFINE_ULPS`` ulps of affine in the step, 2h + 1 <=
    2*``COLUMN_HALF_WIDTH`` + 1 steps share a centre, else h = 0."""
    n, q = grid.shape[1], -(-grid.shape[1] // (2 * COLUMN_HALF_WIDTH + 1))   # q centres
    ulps = AFFINE_ULPS * 2.0 ** -52 * np.abs(grid).max(axis=(1, 2), keepdims=True)
    first, mid, last = (float(grid[0, i, 0]) for i in (0, n // 2, -1))   # test one sample
    if n < 3 or not abs(mid - (first + n // 2 * ((last - first) / (n - 1)))) <= ulps[0, 0, 0]:
        return 0, grid, None   # first, in floats: off its line, every step a centre
    with np.errstate(over="ignore", invalid="ignore"):   # huge coefficients: h = 0, refused
        steps = (grid[:, -1] - grid[:, 0]) / (n - 1)
        line = grid[:, :1] + np.arange(n + COLUMN_HALF_WIDTH)[:, None] * steps[:, None]
        h = -(-n // q) // 2 if np.all(np.abs(grid - line[:, :n]) <= ulps) else 0
    k = np.arange(h, n + h, 2 * h + 1)   # centre steps of the blocks that start before n
    return h, np.where(k[:, None] < n, grid[:, k.clip(0, n - 1)], line[:, k]), steps if h else None


def _columns(T, shift, spanL, spanS, runs):
    """Layout of c columns (T, shift) as n steps of f, f the first index where T changes if
    it divides c: :func:`_affine`'s, or where :func:`_work` counts it cheaper on the runs,
    (0, centres, (n, x, steps)) at x = cos(pi*k/(N - 1)), the steps on [-1, 1], N < n the
    least with 4*exp(B*(rho - 1/rho)/2)*rho**(1 - N)/(rho - 1) <= 2**-52 at some rho, B =
    (n - 1)*max(|dT|*span S + |dshift|*span L)/4 the sums' half-band in x."""
    f = np.gcd(T.size, np.argmax(T != T[0]) or 1)
    cols = h, centres, steps = _affine(np.stack((T, shift)).reshape(2, -1, f))
    n, rho = T.size // f, 1.0 + 2.0 ** np.arange(-10.0, 10.0, 0.1)   # ellipses tried
    with np.errstate(over="ignore", invalid="ignore"):   # h = 0 or a huge band: N = inf
        band = (n - 1) / 4 * np.max([spanS, spanL] @ np.abs(steps)) if h else np.inf
        N = 1.0 + np.ceil(np.min((np.log(2.0 ** 54 / (rho - 1.0))
                                  + band * (rho - 1.0 / rho) / 2.0) / np.log(rho)))
    if not N < n:
        return cols
    x = np.sin(np.pi * np.arange(N - 1.0, -N, -2.0) / (2.0 * (N - 1.0)))   # symmetric, exact 0
    cheb = 0, centres[:, :1] + steps[:, None] * ((n - 1) / 2 * (1 + x) - h)[:, None], (n, x, steps)
    return cheb if _work(cheb, runs) < _work(cols, runs) else cols


def _interpolate(sums, fit, S, L):
    """(r, n*f) sums at the steps from (r, N*f) at the Chebyshev columns of ``fit``: demodulated,
    mapped by barycentric weights per block of steps (a one-thread ``dgemm``), remodulated."""
    n, x, steps = fit
    r, f, y = len(sums), steps.shape[1], np.arange(n) / ((n - 1) / 2) - 1.0
    omega = (n - 1) / 4 * (steps[0] * (S[0] + S[-1]) + steps[1] * (L[0] + L[-1]))   # centre
    z = (sums.reshape(r, -1, f) * np.exp(-1j * np.multiply.outer(x, omega))).swapaxes(0, 1).copy()
    w = np.resize([1.0, -1.0], len(x)) * np.r_[0.5, np.ones(len(x) - 2), 0.5]
    out, block = np.empty((n, r, f), dtype=complex), max(1, CHUNK_ELEMS // z.size)
    for j in range(0, n, block):   # (block, N) @ (N, 2rf) reals: at most 2**18 multiply-adds
        d = y[j:j + block, None] - x
        with np.errstate(divide="ignore", invalid="ignore"):
            m = w / d / (w / d).sum(axis=1, keepdims=True)
        m = np.where((d == 0.0).any(axis=1, keepdims=True), d == 0.0, m)   # exact hits
        out[j:j + block] = (m @ z.view(float).reshape(len(x), -1)).view(complex).reshape(-1, r, f)
    out *= np.exp(1j * np.multiply.outer(y, omega))[:, None]
    return out.swapaxes(0, 1).reshape(r, -1)


def _mesh_batch(rows, cols, runs, L_of, S_of, amplitude, a, b):
    """Mesh route of :func:`two_phase_batch` on a :func:`_plan`: the (r, c') sums of the
    c' >= c columns built, one rule per run, by :func:`_dot_sums`, or their interpolant."""
    h, (T, _), _ = cols
    width = (2 * h + 1) * T.size
    block = min(DOT_NODES, max(1, CHUNK_ELEMS // (len(runs[0][0][1]) + width)))
    sums = np.zeros((rows.size, width), dtype=complex)   # columns by (k, centre, f)
    for run in runs:
        v, amp_w, L, S = _profiled_rule(run[-1][0], L_of, S_of, amplitude, a, b)
        _dot_sums(sums, [(lambda sl, lay=lay, n=len(idx): _affine_rows(lay, L[sl], n), idx)
                         for _, idx, lay in run], cols, L, S, amp_w, block)
    return (_interpolate(sums, cols[2], S, L) if not h and cols[2] is not None else
            sums.reshape(-1, 2 * h + 1, *T.shape).swapaxes(1, 2).reshape(rows.size, width))


def _affine_rows(layout, L, n):
    """The n mesh rows exp(i*P*L) of an :func:`_affine` layout of P, in P's order:
    direct at its centres, times the powers of one step factor."""
    h, (P,), steps = layout
    rows = _unit_phase(P, L)
    if h:
        rows = rows * _powers(1.0, _unit_phase(steps[0], L)[0], h)
    return rows.reshape(-1, rows.shape[-1])[:n]


def _dot_sums(sums, groups, cols, L, S, amp_w, block):
    """Adds to ``sums[idx]`` one rule's sums of row groups (rows, idx), ``rows(sl)`` their
    rows on the nodes ``sl``: per block of ``block`` nodes, ``E_col`` = amp_w*exp(i*(T*S
    + shift*L)) at the centres of ``cols`` (:func:`_columns`' layout) times powers of
    one step factor per fast column if h > 0, and one ``zdotc`` per sum."""
    h, (T, shift), steps = cols
    for k in range(0, len(L), block):
        sl = slice(k, k + block)
        e_col = _unit_phase(T, S[sl], shift, L[sl])
        e_col *= amp_w[sl]
        e_col = _powers(e_col, _unit_phase(steps[0], S[sl], steps[1], L[sl])
                        if h else 1.0, h).reshape(-1, e_col.shape[-1])
        for rows, idx in groups:
            e_row = rows(sl)
            sums[idx] += np.vecdot(np.conjugate(e_row, out=e_row)[:, None], e_col)
