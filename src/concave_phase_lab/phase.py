"""Frequency-band splits, decay envelopes, and phase-derivative bounds.

The kernel estimates behind the maximal bounds rest on three ingredients,
each realized here numerically:

* a split of the frequency band (1/2, 2) into the region where the time
  term of the phase dominates (second-derivative lower bound applies) and
  its complement (first-derivative lower bound applies);
* explicit decay envelopes J(x) = lam * (near-field indicator + algebraic
  tail) that are claimed to dominate |K_lam(x, t)| uniformly in t;
* exact first/second phase-derivative minima over the split pieces,
  certifying the advertised lower bounds with stable fitted constants.

The envelope's singular tail is clamped at its value on the indicator
boundary |x| = lam^(-q*s_star/alpha): inside that region the indicator term
is what carries the estimate, and clamping keeps J finite and the
domination ratio meaningful at every grid point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import s_star_curve, s_star_vertical
from .fitting import LogLogFit, fit_loglog
from .spectral import kernel_grid

__all__ = [
    "EnvelopeParams",
    "split_vertical",
    "envelope_J_vertical",
    "envelope_J_curve",
    "phase_derivative_min",
    "EnvelopeReport",
    "MAX_ENVELOPE_POINTS",
    "check_kernel_envelope",
    "DerivativeBoundSample",
    "sample_derivative_constants",
]


@dataclass(frozen=True)
class EnvelopeParams:
    """Scale, regime parameters, and derived critical exponent for envelopes.

    Build with :meth:`vertical` or :meth:`curve` so that s_star matches the
    regime formula.
    """

    lam: float
    m: float
    alpha: float
    q: float
    eps: float
    s_star: float

    def __post_init__(self):
        if not self.lam >= 1:
            raise ValueError(f"scale must be >= 1, got {self.lam}")
        if not 0 < self.m < 1:
            raise ValueError(f"dispersion exponent must lie in (0, 1), got {self.m}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"measure dimension must lie in (0, 1], got {self.alpha}")
        if not self.q >= 2:
            raise ValueError(f"integrability exponent must be >= 2, got {self.q}")
        if not self.eps >= 0:
            raise ValueError(f"envelope epsilon must be >= 0, got {self.eps}")

    @classmethod
    def vertical(cls, lam, m, alpha, q, eps=0.05):
        return cls(lam=lam, m=m, alpha=alpha, q=q, eps=eps,
                   s_star=s_star_vertical(m, alpha, q))

    @classmethod
    def curve(cls, lam, m, alpha, q, eps=0.05):
        return cls(lam=lam, m=m, alpha=alpha, q=q, eps=eps,
                   s_star=s_star_curve(m, alpha, q))

    @property
    def indicator_radius(self) -> float:
        """Near-field radius lam^(-q*s_star/alpha) of the envelope indicator."""
        return self.lam ** (-self.q * self.s_star / self.alpha)


def split_vertical(params: EnvelopeParams, x: float, t: float):
    """Partition the band (1/2, 2) by which phase term dominates.

    Returns (V1, V2): V1 is where the time term is large,
    2*lam^m*|t|*xi^(m-1) >= lam^(4*s_star)*|x|^(4*alpha/q), and V2 its
    complement.  The left side decreases in xi, so each piece is a single
    interval, returned as an endpoint pair or None when empty.
    """
    if x == 0:
        raise ValueError("degenerate point: the split needs x != 0")
    lo, hi = 0.5, 2.0
    if t == 0:
        return None, (lo, hi)
    threshold = params.lam ** (4 * params.s_star) * abs(x) ** (4 * params.alpha / params.q)
    boundary = (threshold / (2.0 * params.lam ** params.m * abs(t))) ** (1.0 / (params.m - 1.0))
    if boundary <= lo:
        return None, (lo, hi)
    if boundary >= hi:
        return (lo, hi), None
    return (lo, boundary), (boundary, hi)


def _envelope(params: EnvelopeParams, x, tail_exponent: float):
    ax = np.abs(np.asarray(x, dtype=float))
    edge = params.indicator_radius
    indicator = (ax <= edge).astype(float)
    # singular tail clamped at the indicator boundary (see module docstring)
    tail = params.lam ** (-2 * params.s_star + params.eps) * np.maximum(ax, edge) ** tail_exponent
    out = params.lam * (indicator + tail)
    return float(out) if out.ndim == 0 else out


def envelope_J_vertical(params: EnvelopeParams, x):
    """Vertical-line envelope: lam * (indicator + lam^(-2s*+eps)*|x|^(-2a/q+eps))."""
    return _envelope(params, x, -2.0 * params.alpha / params.q + params.eps)


def envelope_J_curve(params: EnvelopeParams, x):
    """Curve envelope: lam * (indicator + lam^(-2s*+eps)*|x|^(-2s*+eps))."""
    return _envelope(params, x, -2.0 * params.s_star + params.eps)


def phase_derivative_min(params: EnvelopeParams, region: str, x: float, t: float):
    """Exact min |phi'| and min |phi''| over one piece of the vertical split.

    phi(xi) = lam*x*xi + lam^m*t*xi^m on the band.  Both phi' and |phi''| are
    monotone in xi > 0, so the minima come from the piece's two ends, and
    min |phi'| is 0 when phi' changes sign between them.  ``region`` picks
    "V1" or "V2" from :func:`split_vertical`; an empty piece raises.
    """
    v1, v2 = split_vertical(params, x, t)
    if region == "V1":
        interval = v1
    elif region == "V2":
        interval = v2
    else:
        raise ValueError(f"region must be 'V1' or 'V2', got {region!r}")
    if interval is None:
        raise ValueError(f"empty region: {region} is empty at this (x, t)")
    lam, m, xi = params.lam, params.m, np.array(interval, dtype=float)
    first = lam * x + m * lam ** m * t * xi ** (m - 1.0)
    second = m * (m - 1.0) * lam ** m * t * xi ** (m - 2.0)
    min_first = 0.0 if np.sign(first[0]) != np.sign(first[1]) else np.min(np.abs(first))
    return float(min_first), float(np.min(np.abs(second)))


@dataclass(frozen=True)
class EnvelopeReport:
    """Per-scale envelope domination ratios and their fitted scaling."""

    variant: str
    m: float
    alpha: float
    q: float
    eps: float
    lams: tuple[float, ...]
    sup_ratios: tuple[float, ...]
    failed_points: tuple[int, ...]
    fit: LogLogFit


# Largest grid_n**2 that check_kernel_envelope accepts (grid_n <= 1024).  The
# scan holds grid_n**2 complex kernel values and as many ratios per scale;
# larger requests are refused before anything is allocated.
MAX_ENVELOPE_POINTS = 2 ** 20


def check_kernel_envelope(variant: str, m: float, alpha: float, q: float,
                          lam_ladder, eps: float = 0.05,
                          grid_n: int = 64) -> EnvelopeReport:
    """Measure sup over a space-time grid of |K_lam(x, t)| / J(x) per scale.

    The grid is the midpoint lattice of (0,1)^2 (for the curve variant the
    coordinates are read as path differences).  Domination predicts the
    per-scale supremum stays bounded, so the fitted slope of the suprema
    against lam should not exceed a small epsilon margin.  Non-finite kernel
    evaluations are excluded from the supremum and counted per scale.
    Raises ValueError, before any allocation, unless grid_n >= 1 and
    grid_n**2 <= MAX_ENVELOPE_POINTS.
    """
    if not (grid_n >= 1 and grid_n ** 2 <= MAX_ENVELOPE_POINTS):
        raise ValueError(f"grid_n must be >= 1 with grid_n**2 <= "
                         f"{MAX_ENVELOPE_POINTS} mesh points, got {grid_n}")
    if variant == "vertical":
        make, envelope = EnvelopeParams.vertical, envelope_J_vertical
    elif variant == "curve":
        make, envelope = EnvelopeParams.curve, envelope_J_curve
    else:
        raise ValueError(f"variant must be 'vertical' or 'curve', got {variant!r}")
    grid = (np.arange(grid_n) + 0.5) / grid_n
    lams = tuple(float(l) for l in lam_ladder)
    sups, fails = [], []
    for lam in lams:
        params = make(lam, m, alpha, q, eps)
        kernel = kernel_grid(lam, m, grid[:, None], grid[None, :])
        ratio = np.abs(kernel) / envelope(params, grid)[:, None]
        ok = np.isfinite(ratio)
        fails.append(int(ratio.size - ok.sum()))
        sups.append(float(ratio[ok].max()))
    fit = fit_loglog(lams, sups)
    return EnvelopeReport(variant=variant, m=m, alpha=alpha, q=q, eps=eps,
                          lams=lams, sup_ratios=tuple(sups),
                          failed_points=tuple(fails), fit=fit)


@dataclass(frozen=True)
class DerivativeBoundSample:
    """Fitted phase-derivative constants over a randomized configuration set.

    c_first[i] = min over V2 of |phi'| divided by lam*|x|;
    c_second[i] = min over V1 of |phi''| divided by lam^(4s*)*|x|^(4a/q).
    """

    configs: tuple[tuple[float, float, float, float, float, float], ...]
    c_first: tuple[float, ...]
    c_second: tuple[float, ...]


def sample_derivative_constants(count: int = 100, seed: int = 20240801,
                                max_tries: int = 10_000) -> DerivativeBoundSample:
    """Draw configurations with both split regions active and fit the constants.

    Sampling is conditioned so the certified bounds are actually in force:
    the split boundary is placed inside the band interior (both regions
    nonempty) and the time term is kept below the level at which phi' could
    vanish inside V2.  Configurations failing either condition are redrawn.
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    configs, c_first, c_second = [], [], []
    tries = 0
    while len(configs) < count:
        if tries >= max_tries:
            raise RuntimeError(f"sampler accepted only {len(configs)} of {count} "
                               f"configurations in {max_tries} tries")
        tries += 1
        m = rng.uniform(0.2, 0.9)
        alpha = rng.uniform(0.3, 1.0)
        q = rng.uniform(2.0, 4.0)
        lam = float(2.0 ** rng.integers(4, 13))
        s_star = s_star_vertical(m, alpha, q)
        radius = lam ** (-q * s_star / alpha)
        x = float(np.exp(rng.uniform(np.log(radius), 0.0))) * float(rng.choice([-1.0, 1.0]))
        strength = lam ** (4 * s_star) * abs(x) ** (4 * alpha / q)
        # aim the split boundary at a band-interior target
        target = rng.uniform(0.6, 1.9)
        t_abs = strength * target ** (1.0 - m) / (2.0 * lam ** m)
        if not 1e-4 < t_abs < 1.0:
            continue
        if not strength < 2.0 * lam * abs(x) / m:
            continue
        t = t_abs * float(rng.choice([-1.0, 1.0]))
        params = EnvelopeParams(lam=lam, m=m, alpha=alpha, q=q, eps=0.05, s_star=s_star)
        min_first = phase_derivative_min(params, "V2", x, t)[0]
        min_second = phase_derivative_min(params, "V1", x, t)[1]
        configs.append((m, alpha, q, lam, x, t))
        c_first.append(min_first / (lam * abs(x)))
        c_second.append(min_second / strength)
    return DerivativeBoundSample(configs=tuple(configs),
                                 c_first=tuple(c_first),
                                 c_second=tuple(c_second))
