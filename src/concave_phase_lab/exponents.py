"""Closed-form regularity thresholds, critical exponents, and dimension bounds.

Pure total functions over the regime parameters (dispersion exponent m,
regularity s, measure dimension alpha, integrability q, curve steepness
kappa, direction-set dimension beta).  They serve as ground truth for the
scaling experiments: measured log-log slopes are compared against these
values.  Domain violations raise; nothing is clamped.
"""
from __future__ import annotations

import math

__all__ = [
    "KAPPA_INF",
    "threshold_vertical",
    "s_star_vertical",
    "s_star_curve",
    "s_star_lines",
    "dim_bound_vertical",
    "dim_bound_curve",
    "threshold_lines",
    "dim_bound_lines",
    "summary_thresholds",
    "summary_dim_bound",
]

# Marker for the vertical-line case (the steepness limit of x - theta*t^kappa).
# A genuinely separate case, not an approximation by a large finite value.
KAPPA_INF = math.inf


def _need_m_positive(m):
    if not (isinstance(m, (int, float)) and math.isfinite(m) and m > 0):
        raise ValueError(f"dispersion exponent must be a positive real, got {m}")


def _need_m_concave(m):
    _need_m_positive(m)
    if not m < 1:
        raise ValueError(f"out of theorem range: requires m in (0, 1), got m={m}")


def _need_alpha_q(alpha, q):
    if not 0 < alpha <= 1:
        raise ValueError(f"measure dimension must lie in (0, 1], got {alpha}")
    if not q >= 2:
        raise ValueError(f"integrability exponent must be >= 2, got {q}")


def _need_beta(beta):
    if not 0 <= beta <= 1:
        raise ValueError(f"direction-set dimension must lie in [0, 1], got {beta}")


def _need_kappa(kappa):
    if not (kappa == KAPPA_INF or (math.isfinite(kappa) and kappa > 0)):
        raise ValueError(f"steepness must be positive or KAPPA_INF, got {kappa}")


def threshold_vertical(m: float, alpha: float, q: float) -> float:
    """Sufficiency threshold for the maximal bound along vertical lines."""
    _need_m_positive(m)
    _need_alpha_q(alpha, q)
    return max(0.5 - m / 4 - (1 - m) * alpha / q, 0.5 - alpha / q)


def s_star_vertical(m: float, alpha: float, q: float) -> float:
    """Critical exponent driving the vertical-line envelope decay."""
    _need_m_positive(m)
    _need_alpha_q(alpha, q)
    return min(m / 4 + (1 - m) * alpha / q, alpha / q)


def s_star_curve(m: float, alpha: float, q: float) -> float:
    """Critical exponent for maximal bounds along non-tangential curves."""
    _need_m_positive(m)
    _need_alpha_q(alpha, q)
    return min(m / 4, m * alpha / q)


def s_star_lines(m: float, alpha: float, q: float) -> float:
    """Critical exponent for maximal bounds along a set of tilted lines."""
    _need_m_positive(m)
    _need_alpha_q(alpha, q)
    return min(m / 4, alpha / q)


def dim_bound_vertical(s: float, m: float) -> float:
    """Divergence-set dimension bound, vertical lines, concave regime.

    Valid for s in (m/4, 1/2); the two branches cross at s = 1/4 with value
    1/2.
    """
    _need_m_concave(m)
    if not m / 4 < s < 0.5:
        raise ValueError(f"out of theorem range: requires s in (m/4, 1/2), got s={s}")
    return max(1 - 2 * s, 0.5 + (1 - 4 * s) / (2 * (1 - m)))


def dim_bound_curve(s: float, m: float) -> float:
    """Divergence-set dimension bound along non-tangential curves."""
    _need_m_concave(m)
    if not 0.5 - m / 4 < s < 0.5:
        raise ValueError(
            f"out of theorem range: requires s in (1/2 - m/4, 1/2), got s={s}")
    return (1 - 2 * s) / m


def threshold_lines(m: float, beta: float) -> float:
    """Sufficiency threshold along lines spanned by a direction set."""
    _need_m_positive(m)
    _need_beta(beta)
    return 0.5 - m / 4 + m * beta / 4


def dim_bound_lines(s: float, m: float, beta: float) -> float:
    """Divergence-set dimension bound along lines spanned by a direction set.

    Valid for s in ((2 - m + m*beta)/4, 1/2); there 4s - 2 + m > m*beta >= 0
    so both branches are finite and positive.
    """
    _need_m_concave(m)
    _need_beta(beta)
    if not (2 - m + m * beta) / 4 < s < 0.5:
        raise ValueError(
            "out of theorem range: requires s in ((2 - m + m*beta)/4, 1/2), "
            f"got s={s}")
    return max((1 - 2 * s + m * beta) / m, m * beta / (4 * s - 2 + m))


def _need_summary_regime(m):
    _need_m_positive(m)
    if m == 1:
        raise ValueError("the case summary covers m < 1 and m > 1 only")


def summary_thresholds(m: float, kappa: float) -> float:
    """Sufficiency threshold from the case summary, all regimes.

    Covers m > 1 and m < 1 with steepness kappa in (0, KAPPA_INF].  The
    vertical line (kappa = KAPPA_INF) is its own case, strictly nicer than
    any finite steepness when m < 1.
    """
    _need_summary_regime(m)
    _need_kappa(kappa)
    if m > 1:
        return max(0.25, (1 - m * kappa) / 2)
    if kappa == KAPPA_INF:
        return m / 4
    return max(0.5 - m / 4, (1 - m * kappa) / 2)


def summary_dim_bound(s: float, m: float, kappa: float) -> float:
    """Divergence-set dimension bound from the case summary, all regimes.

    Requires s above the matching :func:`summary_thresholds` value.
    """
    _need_summary_regime(m)
    _need_kappa(kappa)
    if not s > summary_thresholds(m, kappa):
        raise ValueError(
            f"out of theorem range: requires s > {summary_thresholds(m, kappa)}, "
            f"got s={s}")
    if m < 1 and kappa == KAPPA_INF:
        return max(0.0, 1 - 2 * s, 0.5 + (1 - 4 * s) / (2 * (1 - m)))
    return max(0.0, 1 - 2 * s, (1 - 2 * s) / (m * kappa))
