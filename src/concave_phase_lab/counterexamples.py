"""Extremal data and matched space-time points for sharpness experiments.

Each lower-bound argument needs two ingredients: a band-limited datum whose
built-in modulation is tuned to the propagator phase, and a rule selecting,
for each position x, a time (and possibly a line direction) at which the
total phase nearly cancels so the solution modulus stays comparable to the
datum's mass.  This module builds both:

* frequency-side data: the temporally concentrated and spatially spread
  vertical-line examples, the modulated datum for tilted/steeper paths, and
  the Cantor-scale datum for line families;
* matched points: for paths x - theta*t^kappa the matching time comes from
  inverting a truncated binomial expansion h(tau) of the path's time power
  around t = 1/2; for Cantor line families it comes from snapping x to the
  right endpoint of its prefractal component.

Matching quality is always certified numerically: the curve constructor
reports the maximal phase residual over the datum band and rejects
parameters that leave more than 0.6 radians.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .geometry import CantorSet
from .spectral import FourierDatum

__all__ = [
    "TaylorCoefficients",
    "MatchedPoint",
    "taylor_coeffs",
    "h_N_eval",
    "h_N_invert",
    "knapp_vertical_temporal",
    "knapp_vertical_spatial",
    "knapp_curve",
    "matched_point_curve",
    "matching_order",
    "cantor_data",
    "cantor_selectors",
]


@dataclass(frozen=True)
class TaylorCoefficients:
    """Leading binomial coefficients of (1 + u)^kappa: a_j = C(kappa, j)."""

    kappa: float
    coefficients: tuple[float, ...]


def taylor_coeffs(kappa: float, order: int) -> TaylorCoefficients:
    """First ``order`` binomial coefficients by the product recursion."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if order < 1 or int(order) != order:
        raise ValueError("order must be a positive integer")
    coeffs = [1.0]
    for j in range(1, int(order)):
        coeffs.append(coeffs[-1] * (kappa - j + 1) / j)
    return TaylorCoefficients(kappa=float(kappa), coefficients=tuple(coeffs))


def h_N_eval(tau, coeffs: TaylorCoefficients):
    """The matching profile h(tau) = 2^-kappa * sum_{j>=1} a_j (2*tau)^j.

    This is 2^-kappa*((2*tau+1)^kappa - 1) up to the truncation tail; it maps
    the matching time offset tau to the position x it compensates.
    """
    tau = np.asarray(tau, dtype=float)
    two_tau = 2.0 * tau
    out = np.zeros(tau.shape)
    for j in range(len(coeffs.coefficients) - 1, 0, -1):
        out = (out + coeffs.coefficients[j]) * two_tau
    out = out * 2.0 ** (-coeffs.kappa)
    return float(out) if out.ndim == 0 else out


def h_N_invert(x: float, coeffs: TaylorCoefficients, tau_max: float,
               tol: float = 1e-12) -> float:
    """Invert h on [0, tau_max] by bisection.

    h is strictly increasing there (a_1 = kappa > 0 dominates for small
    tau); a non-monotone sample is a hard error, and x outside the image is
    rejected.
    """
    if tau_max <= 0:
        raise ValueError("tau_max must be positive")
    sample = h_N_eval(np.linspace(0.0, tau_max, 257), coeffs)
    if np.any(np.diff(sample) <= 0):
        raise ArithmeticError("matching profile is not increasing on the domain")
    hi_val = float(sample[-1])
    if not 0.0 <= x <= hi_val:
        raise ValueError(f"out of range: x={x} not in [0, {hi_val:.6g}]")
    lo, hi = 0.0, float(tau_max)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if h_N_eval(mid, coeffs) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class MatchedPoint:
    """A position with its phase-cancelling time (and line direction)."""

    x: float
    tau: float
    theta: float
    lam: float
    t: float


def knapp_vertical_temporal(lam: float, m: float) -> FourierDatum:
    """Low-frequency-side datum concentrated where the time phase is linear.

    fhat(xi) = lam^(m-2) * bump(lam^(m-2)*xi + lam^m).  Needs lam large
    enough that the band clears 0; below lam = 2 the construction
    degenerates outright, and slightly above the datum validator still
    rejects scales whose band straddles 0.
    """
    if not 0 < m < 1:
        raise ValueError(f"dispersion exponent must lie in (0, 1), got {m}")
    if not lam >= 2:
        raise ValueError(f"degenerate support: needs lam >= 2, got {lam}")
    factor = lam ** (m - 2.0)
    return FourierDatum(amplitude=factor, scale=factor, shift=lam ** m)


def knapp_vertical_spatial(lam: float) -> FourierDatum:
    """Spatially spread datum fhat(xi) = bump(xi/lam), support [lam/2, 2*lam]."""
    if not lam >= 1:
        raise ValueError(f"scale must be >= 1, got {lam}")
    return FourierDatum(scale=1.0 / lam)


def knapp_curve(lam: float, m: float, kappa: float, theta: float) -> FourierDatum:
    """Modulated datum for paths x - theta*t^kappa.

    fhat(xi) = exp(i*(2^-kappa*theta*xi - |xi|^m/2)) * lam^-1 * bump(xi/lam):
    the linear modulation pre-translates to the path position at t = 1/2 and
    the fractional one cancels the propagator phase there.
    """
    if not lam >= 1:
        raise ValueError(f"scale must be >= 1, got {lam}")
    if not 0 < m < 1:
        raise ValueError(f"dispersion exponent must lie in (0, 1), got {m}")
    if not kappa >= 1:
        raise ValueError(f"steepness must be >= 1, got {kappa}")
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    return FourierDatum(amplitude=1.0 / lam, scale=1.0 / lam,
                        linear_phase=2.0 ** (-kappa) * theta,
                        fractional_phase=-0.5, m=m)


def matching_order(m: float) -> int:
    """Truncation order for the matching profile: least N with m*N > 1, plus 1."""
    return math.ceil(1.0 / m) + 1


def _band_residual(a: float, b: float, m: float) -> float:
    """max over v in [1/2, 2] of |a*v + b*v^m|, b >= 0: the function is
    concave, so the ends, or v* = (-a/(b*m))^(1/(m-1)) when a < 0 < b."""
    ends = [0.5, 2.0]
    if a < 0.0 < b:
        v_star = (-a / (b * m)) ** (1.0 / (m - 1.0))
        if 0.5 < v_star < 2.0:
            ends.append(v_star)
    return float(max(abs(a * v + b * v ** m) for v in ends))


def matched_point_curve(x: float, lam: float, m: float, kappa: float,
                        theta: float = 1.0):
    """Select the time at which the curve datum's phase nearly cancels at x.

    Solves theta*h(tau) = x for tau in [0, lam^-m/100] and sets t = 1/2+tau.
    Returns (MatchedPoint, residual) where residual is the maximum over the
    datum band of the absolute total phase, taken exactly; the construction
    keeps it well under 1/2 and anything above 0.6 is rejected as a mismatch.
    """
    if not lam >= 1:
        raise ValueError(f"scale must be >= 1, got {lam}")
    if not 0 < m < 1:
        raise ValueError(f"dispersion exponent must lie in (0, 1), got {m}")
    if not kappa >= 1:
        raise ValueError(f"steepness must be >= 1, got {kappa}")
    if theta <= 0:
        raise ValueError("matching needs theta > 0")
    if x < 0:
        raise ValueError("matching window is x >= 0")
    coeffs = taylor_coeffs(kappa, matching_order(m))
    tau = h_N_invert(x / theta, coeffs, lam ** (-m) / 100.0)
    t = 0.5 + tau
    # total phase of the propagated datum along the path, in band coordinates
    linear_coef = lam * (x - theta * t ** kappa + 2.0 ** (-kappa) * theta)
    frac_coef = lam ** m * tau
    residual = _band_residual(linear_coef, frac_coef, m)
    if residual > 0.6:
        raise ArithmeticError(f"phase mismatch: residual {residual:.3g} > 0.6")
    return MatchedPoint(x=float(x), tau=tau, theta=float(theta),
                        lam=float(lam), t=t), residual


def cantor_data(lam_k: float, m: float) -> FourierDatum:
    """Datum at Cantor scale lam_k = r^-k: modulated bump on [lam_k^(1/m)/2, 2*lam_k^(1/m)].

    The fractional modulation cancels the propagator phase at t = 1, so the
    matched times t = 1 - tau sit near the end of the unit interval.
    """
    if not lam_k >= 1:
        raise ValueError(f"scale must be >= 1, got {lam_k}")
    if not 0 < m < 1:
        raise ValueError(f"dispersion exponent must lie in (0, 1), got {m}")
    return FourierDatum(scale=lam_k ** (-1.0 / m), fractional_phase=-1.0, m=m)


def cantor_selectors(x: float, cantor: CantorSet) -> MatchedPoint:
    """Match a position in the prefractal window to a component endpoint.

    For x in the level-k prefractal intersected with (1/2, 1), the direction
    theta(x) is the right endpoint of the component containing x (so it
    survives in every deeper level), tau(x) = (theta - x)/theta is in
    [0, 2*r^k], and the matched time is t = 1 - tau.  The components are
    in increasing order, as ``cantor_level`` builds them, so a bisection finds
    the last one with lo <= x; it, or else the next, is taken if within ``snap``
    of x, so a gap below the snap cannot hand x to the component before it.
    """
    snap = 1e-12
    if not 0.5 < x < 1.0 + snap:
        raise ValueError(f"not in prefractal window: x={x} outside (1/2, 1)")
    i = bisect.bisect_right(cantor.intervals, x, key=lambda iv: iv[0])
    for lo, hi in cantor.intervals[max(i - 1, 0):i + 1]:
        if lo - snap <= x <= hi + snap:
            tau = (hi - x) / hi
            return MatchedPoint(x=float(x), tau=float(tau), theta=float(hi),
                                lam=cantor.ratio ** (-cantor.level),
                                t=1.0 - float(tau))
    raise ValueError(f"not in prefractal window: x={x} misses every component")
