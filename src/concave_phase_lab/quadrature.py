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
losing accuracy.  Both routes build their exponentials in blocks of at most
``CHUNK_ELEMS`` elements, small enough to stay in cache: flat rows, or mesh
nodes.
The mesh contraction is one BLAS ``zdotc`` per (row, column) pair and block
(``np.vecdot`` of the conjugated row factor).  A block holds at most
``DOT_NODES`` nodes, and OpenBLAS runs a dot product that short on one
thread, so the sums do not depend on the BLAS thread count (a threaded
``zgemm`` or a longer dot product may regroup the sum when it splits the work).
"""
from __future__ import annotations

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
# Most nodes in one mesh block.  Each mesh sum is one BLAS `zdotc` per block,
# and OpenBLAS (0.3.31) runs a dot product of at most 10,000 elements on one
# thread; a longer one is split across threads and its sum regrouped, so its
# bits would depend on OPENBLAS_NUM_THREADS.
DOT_NODES = 8192
# One multiply-add of the mesh route's `zdotc` contraction, in complex
# exponentials: 0.32-0.60 ns against 32-35 ns measured on mesh-route shapes,
# numpy 2.4.6 and OpenBLAS 0.3.31 on a 2-CPU Xeon; 1/53 at the dearest pair.
CONTRACT_WEIGHT = 1.0 / 50.0


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
    multiply-adds) and 0 on the flat route (N exponentials per point).
    Work past the float range counts as inf, without a warning, so that a
    caller's budget refuses it."""
    P, T, shift = (np.asarray(c, dtype=float) for c in (P, T, shift))
    spans = [float(np.ptp(f(np.asarray(interval, dtype=float)))) for f in (L_of, S_of)]
    with np.errstate(over="ignore", invalid="ignore"):
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
        block = max(1, CHUNK_ELEMS // len(v))
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
    (r, c) sums, with one rule and one ``E_col`` (per block of nodes) per run.
    Each sum adds one single-threaded ``zdotc`` of ``E_row`` and
    ``amp_w * E_col`` per block of at most ``DOT_NODES`` nodes."""
    block = min(DOT_NODES, max(1, CHUNK_ELEMS // (len(runs[0][0][1]) + T.size)))
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
                e_row = _unit_phase(rows[idx], L[sl])
                sums[idx] += np.vecdot(np.conjugate(e_row, out=e_row), e_col)
    return sums
