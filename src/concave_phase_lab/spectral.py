"""Band-limited data and the concave-dispersion propagator.

Frequency-side objects shared by every experiment in the package: a fixed
reference bump supported on [1/2, 2], band-limited data whose Fourier
transform is an affine rescaling of that bump times a unimodular phase, the
propagator with dispersion relation |xi|^m for 0 < m < 1, inhomogeneous
Sobolev norms, and the localized kernel obtained by testing the propagator
against the squared bump at a single dyadic scale.

Every frequency integral here reduces to the fixed band [1/2, 2] by the
substitution v = scale*xi + shift, after which the phase is a two-term
combination P*L(v) + T*S(v) of a linear and a concave-power profile.  Single
values go through ``quadrature.integrate``, the batch rule doubled until two
sums agree; grid scans go through the batch rule itself, whose mesh route
evaluates an x-by-column mesh separably, and lattices of lines around seeds
through its factor tables.  The raw-variable oracle route
(dense Simpson in xi, unimodular factors kept inside the amplitude) is
retained as an independent cross-check.

Ahead of ``integrate``, :func:`propagate` tries an integration-by-parts
certificate.  Its phase slope phi' is monotone on the band, so when phi' has
one sign at both ends the band integral is bounded by B_k = int |D^k a| dv,
D f = (f/phi')', for k = 1..8 (every boundary term vanishes on the flat-ended
bump).  A gate names the Taylor degree K: the first k whose leading term
||a^(k)||_1 / min|phi'|^k meets ``quadrature.ABS_TOL``, the absolute
tolerance of ``integrate``.  When some B_k with k <= K meets it, the value
is 0 with that error bound.  Otherwise ``integrate`` runs.  On 180 calls on
the CLI data families it settles the 53 with min |phi'| >= 1.27e3, each at
the gate's own k: k = 2..8 on 4, 15, 12, 9, 10, 2 and 1 of them, at about
56, 80, 114, 154, 191, 254 and 320 us per call (2-CPU Xeon, numpy 2.4.6).
``integrate`` would take up to 0.14 s on 46 of them (W up to 9.8e5 rad) and
refuse the other 7 (W from 1.5e6 rad) past ``N_MAX``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import (ABS_TOL, batch_work, integrate, lattice_batch,
                         oracle_integrate, two_phase_batch)

__all__ = [
    "BUMP",
    "BUMP_SQUARED",
    "BUMP_SUPPORT",
    "FourierDatum",
    "bump_profile",
    "propagate",
    "propagate_grid",
    "propagate_lattice",
    "grid_work",
    "sobolev_norm",
    "kernel_grid",
]

BUMP_SUPPORT = (0.5, 2.0)


def _eta(u):
    # C^inf cutoff: exp(1 - 1/(1-u^2)) on |u| < 1, zero outside, peak value 1.
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


def bump_profile(xi):
    """Reference bump: smooth, positive exactly on (1/2, 2), equal to 1 at 5/4."""
    return _eta((np.asarray(xi, dtype=float) - 1.25) / 0.75)


# Band amplitudes, zero off BUMP_SUPPORT; fixed objects, so the oracle memo keys on them.
BUMP = bump_profile


def BUMP_SQUARED(xi):
    """Squared reference bump, the amplitude of the localized kernel."""
    return bump_profile(xi) ** 2


# Integration-by-parts certificate for band integrals I = int a*exp(i*phi) dv
# with a non-vanishing phi': |I| <= B_k = int |D^k a| dv, D f = (f/phi')', since
# the bump is flat at both ends and every boundary term vanishes (Stein 1993,
# ch. VIII).  D^k a is taken exactly in truncated Taylor arithmetic (Griewank &
# Walther 2008, ch. 13) at the midpoints of _IBP_NODES cells of the band, and
# B_k is their midpoint sum.  _IBP_ORDER caps the gate's k, which sets the
# degree of every series of a call: B_k takes k + 1 rows.  On the 28 CLI-family
# calls with min |phi'| from 3.6e3 to 1.6e7, the certificate stops at
# k = 2..5 with B_k <= 8.5e-13, and B_k on these 1,025 nodes is within 6.3e-4
# relative of B_k on 30,001 nodes.  Calls with smaller slopes need higher k:
# k = 8 settles one at min |phi'| = 1.27e3.
_IBP_ORDER = 8
_IBP_NODES = 1025


def _series_reciprocal(c):
    """Taylor coefficients of 1/f from those of f (rows are degrees)."""
    r = np.empty_like(c)
    r[0] = 1.0 / c[0]
    for k in range(1, len(c)):
        r[k] = -r[0] * np.einsum("kn,kn->n", c[1:k + 1], r[k - 1::-1])
    return r


@functools.cache
def _bump_taylor():
    """Midpoints and cell width of the certificate grid, the bump's Taylor
    coefficients there (degree by node), and the midpoint sums of |a^(k)|."""
    h = (BUMP_SUPPORT[1] - BUMP_SUPPORT[0]) / _IBP_NODES
    v = BUMP_SUPPORT[0] + h * (np.arange(_IBP_NODES) + 0.5)
    u = (v - 1.25) / 0.75
    w = np.zeros((_IBP_ORDER + 1, _IBP_NODES))    # 1 - u^2 about each node
    w[0], w[1], w[2] = 1.0 - u * u, -2.0 * u / 0.75, -1.0 / 0.75 ** 2
    s = -_series_reciprocal(w)                    # exponent 1 - 1/(1 - u^2)
    s[0] += 1.0
    a = np.empty_like(s)                          # a = exp(s), term by term
    a[0] = np.exp(s[0])
    for k in range(1, _IBP_ORDER + 1):
        a[k] = np.einsum("k,kn,kn->n", np.arange(1, k + 1), s[1:k + 1], a[k - 1::-1]) / k
    norms = [h * math.factorial(k) * float(np.abs(a[k]).sum())
             for k in range(_IBP_ORDER + 1)]
    return v, h, a, norms


def _end_slopes(datum, m, tau):
    """tau*m*|xi|^(m-1)*sgn(xi), the time part of the phase slope in xi, at
    the lower and upper support ends xi, for tau a scalar or an array.

    At an end where the support touches xi = 0, |xi|^(m-1) is infinite: the
    value there is its limit, 0 at tau = 0 and sgn(tau)*sgn(support)*inf
    otherwise.
    """
    lo, hi = datum.support
    return [np.where(tau == 0.0, 0.0, np.copysign(np.inf, tau * (lo + hi))) if xi == 0.0
            else tau * m * np.abs(xi) ** (m - 1.0) * np.sign(xi) for xi in (lo, hi)]


def _ibp_bounds(datum, m, p, t, order):
    """Yield B_1, ..., B_order for a band phase whose phi' keeps one sign,
    from series of degree ``order``, or nothing if a coefficient of phi' is
    not finite.  Row r of each series depends on rows <= r alone, summed in
    the same order at any degree, so B_k is the same float for every order
    >= k.  Overflow is silent only under the caller's ``np.errstate``.
    """
    v, h, a, _ = _bump_taylor()
    c = np.zeros((order + 1, _IBP_NODES))   # phi' about each node
    c[0] = p / datum.scale
    if t != 0.0:
        xi = (v - datum.shift) / datum.scale
        q = 1.0 / (v - datum.shift)      # |xi| = |xi_j| * (1 + q*dv)
        term = t * m * np.sign(xi) * np.abs(xi) ** (m - 1.0) / datum.scale
        for k in range(order + 1):       # binomial series of (1 + q*dv)^(m-1)
            c[k] += term
            term = term * q * ((m - 1.0 - k) / (k + 1))
    if not np.isfinite(c).all():
        return
    g = _series_reciprocal(c)
    f = a[:order + 1]
    for d in range(order - 1, -1, -1):       # f -> (f*g)', one degree fewer each time
        prod = np.zeros((d + 1, _IBP_NODES))   # (f*g) coefficients 1..d+1
        for lag in range(d + 2):
            prod[max(lag - 1, 0):] += g[lag] * f[max(1 - lag, 0):d + 2 - lag]
        f = prod * np.arange(1.0, d + 2.0)[:, None]
        yield h * float(np.abs(f[0]).sum())


def _nonstationary_bound(datum: FourierDatum, m: float, x: float, t: float):
    """(k, B_k) with B_k <= ``ABS_TOL`` bounding the band
    integral of ``propagate(datum, m, x, t)``, or None.

    Declines when phi' changes sign on the band, or when no leading term
    ||a^(k)||_1 / min|phi'|^k meets the tolerance (the exact B_k for a
    constant phi').  Otherwise the first k whose term does is the degree K
    of the Taylor series, and the certificate declines as soon as B_k stops
    falling, or when none of B_1..B_K meets the tolerance.  A non-finite
    coefficient declines too; :func:`propagate` calls this under an
    ``np.errstate`` that keeps such overflow quiet.  A decline only costs
    time: the caller integrates.
    """
    p, t = x + datum.linear_phase, t + datum.fractional_phase
    lo, hi = (float(p + s) / datum.scale for s in _end_slopes(datum, m, t))   # phi' at ends
    slope = min(abs(lo), abs(hi))
    if not (lo * hi > 0.0 and slope < math.inf):
        return None
    norms = _bump_taylor()[3]
    inverse = min(1.0 / slope, 1.0)   # no norm meets ABS_TOL, so no slope < 1 passes
    order = next((k for k in range(1, _IBP_ORDER + 1)
                  if norms[k] * inverse ** k <= ABS_TOL), None)
    if order is None:
        return None
    previous = math.inf
    for k, bound in enumerate(_ibp_bounds(datum, m, p, t, order), 1):
        if bound <= ABS_TOL:
            return k, bound
        if not bound < previous:
            return None
        previous = bound
    return None


@dataclass(frozen=True)
class FourierDatum:
    """A band-limited datum, described entirely on the frequency side.

    The Fourier transform is

        fhat(xi) = amplitude * exp(i*(linear_phase*xi + fractional_phase*|xi|^m))
                   * bump(scale*xi + shift)

    so the frequency support is the closed interval where scale*xi + shift
    lies in [1/2, 2].  The support may touch 0 at an endpoint (the bump
    vanishes there) but must not contain 0 in its interior, so that |xi|^m
    stays smooth on it.

    Parameters
    ----------
    amplitude : complex
        Overall scale factor on the frequency side.
    scale, shift : float
        Affine bump argument; ``scale`` must be nonzero.  Negative ``scale``
        mirrors the band to negative frequencies.
    linear_phase : float
        Coefficient of xi in the phase (a spatial translation).
    fractional_phase : float
        Coefficient of |xi|^m in the phase (a time translation).  Requires
        ``m`` to be set when nonzero.
    m : float, optional
        The dispersion exponent the datum's own phase refers to, in (0, 1).
        Data with ``fractional_phase == 0`` need not carry one.
    """

    amplitude: complex = 1.0 + 0.0j
    scale: float = 1.0
    shift: float = 0.0
    linear_phase: float = 0.0
    fractional_phase: float = 0.0
    m: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.scale) or self.scale == 0.0:
            raise ValueError("scale must be finite and nonzero")
        if not (np.isfinite(self.shift) and np.isfinite(self.linear_phase)
                and np.isfinite(self.fractional_phase) and np.isfinite(self.amplitude)):
            raise ValueError("datum parameters must be finite")
        if self.m is not None and not 0.0 < self.m < 1.0:
            raise ValueError(f"dispersion exponent must lie in (0, 1), got {self.m}")
        if self.fractional_phase != 0.0 and self.m is None:
            raise ValueError("fractional_phase requires the datum to carry an exponent m")
        lo, hi = self.support
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"frequency support ({lo:.6g}, {hi:.6g}) is not finite")
        if lo < 0.0 < hi:
            raise ValueError(
                f"frequency support ({lo:.6g}, {hi:.6g}) contains 0 in its "
                "interior; |xi|^m is not smooth there")

    @property
    def support(self) -> tuple[float, float]:
        """Frequency support: the interval where scale*xi + shift is in [1/2, 2]."""
        ends = ((BUMP_SUPPORT[0] - self.shift) / self.scale,
                (BUMP_SUPPORT[1] - self.shift) / self.scale)
        return (min(ends), max(ends))

    def band_to_frequency(self, v):
        """Map band coordinate v in [1/2, 2] back to the frequency xi."""
        return (np.asarray(v, dtype=float) - self.shift) / self.scale

    def band_maps(self, m: float):
        """Linear and concave-power phase profiles in the band coordinate."""
        def linear(v):
            return self.band_to_frequency(v)

        def power(v):
            return np.abs(self.band_to_frequency(v)) ** m

        return linear, power

    def fourier_transform(self, xi):
        """Evaluate fhat(xi); vectorized, zero off the support."""
        xi = np.asarray(xi, dtype=float)
        phase = self.linear_phase * xi
        if self.fractional_phase != 0.0:
            phase = phase + self.fractional_phase * np.abs(xi) ** self.m
        out = self.amplitude * np.exp(1j * phase) * bump_profile(self.scale * xi + self.shift)
        return complex(out) if out.ndim == 0 else out


def _check_exponent(datum: FourierDatum, m: float):
    if not 0.0 < m < 1.0:
        raise ValueError(f"dispersion exponent must lie in (0, 1), got {m}")
    if datum.m is not None and datum.m != m:
        raise ValueError(f"exponent {m} disagrees with the datum's {datum.m}")


def propagate(datum: FourierDatum, m: float, x: float, t: float,
              method: str = "adaptive") -> complex:
    """Evaluate the propagator u(x, t) for a band-limited datum.

    Computes (2*pi)^{-1} * int exp(i*(x*xi + t*|xi|^m)) * fhat(xi) dxi.  At
    t = 0 this is the inverse Fourier transform of fhat at x.

    Parameters
    ----------
    datum : FourierDatum
    m : float
        Dispersion exponent in (0, 1); must agree with the datum's own
        exponent when the datum carries one.
    x, t : float
        Space-time point.
    method : {"adaptive", "oracle"}
        "adaptive" substitutes v = scale*xi + shift and runs
        ``quadrature.integrate`` on the fixed band, unless the band phase is
        non-stationary and an integration-by-parts bound B_k (module
        docstring) meets its absolute tolerance ``quadrature.ABS_TOL``: then
        the value is 0, with |band integral| <= B_k <= ``ABS_TOL``.
        Phases past the float range raise no warning: the certificate
        declines and ``integrate`` refuses them.
        "oracle" runs dense Simpson in the raw frequency variable with the
        datum's phase kept inside the amplitude.  The two share no reduction
        steps.

    Returns
    -------
    complex
    """
    _check_exponent(datum, m)
    if method == "adaptive":
        linear, power = datum.band_maps(m)
        p_coef = x + datum.linear_phase
        t_coef = t + datum.fractional_phase

        def phase(v):
            return p_coef * linear(v) + t_coef * power(v)

        with np.errstate(over="ignore", invalid="ignore"):   # non-finite: declined or refused
            if _nonstationary_bound(datum, m, x, t) is not None:
                return 0j
            value = integrate(BUMP, phase, BUMP_SUPPORT)
        return datum.amplitude * value / (2.0 * np.pi * abs(datum.scale))
    if method == "oracle":
        def phase(xi):
            return x * xi + t * np.abs(xi) ** m

        value = oracle_integrate(datum.fourier_transform, phase, datum.support)
        return value / (2.0 * np.pi)
    raise ValueError(f"unknown method {method!r}")


def _band_coefficients(datum: FourierDatum, m: float, x, t):
    """P, T, L and S of the band integrals of u at broadcast (x, t)."""
    _check_exponent(datum, m)
    return (np.asarray(x, dtype=float) + datum.linear_phase,
            np.asarray(t, dtype=float) + datum.fractional_phase, *datum.band_maps(m))


def propagate_grid(datum: FourierDatum, m: float, x, t, shift=0.0) -> np.ndarray:
    """Propagator values u(x + shift, t) on broadcast arrays.

    Same reduction as :func:`propagate` with ``method="adaptive"``, all band
    integrals in one :func:`two_phase_batch` call, whose routes follow the
    shapes: an x-by-column mesh (x of shape (r, 1), t and shift of shape
    (1, c)) is separable, paired arrays of one shape are flat.
    """
    values = two_phase_batch(*_band_coefficients(datum, m, x, t), BUMP, BUMP_SUPPORT, shift)
    return datum.amplitude / (2.0 * np.pi * abs(datum.scale)) * values


def propagate_lattice(datum: FourierDatum, m: float, x, theta, t, steps,
                      samples) -> np.ndarray:
    """u(x_s - theta*t, t) at theta = theta_s + a*d_theta, t = t_s + b*d_t for
    the samples (s, a, b), (d_theta, d_t) = ``steps``: the local meshes of a
    line family, or of a curve of order one at d_theta = 0, in one
    :func:`quadrature.lattice_batch` call."""
    x, theta, t = (np.asarray(c, dtype=float) for c in (x, theta, t))
    d_theta, d_t = steps
    P, T, L_of, S_of = _band_coefficients(datum, m, x - theta * t, t)
    values = lattice_batch((P, T, -d_theta * t, -d_t * theta), (-d_theta * d_t, d_t),
                           samples, L_of, S_of, BUMP, BUMP_SUPPORT)
    return datum.amplitude / (2.0 * np.pi * abs(datum.scale)) * values


def grid_work(datum: FourierDatum, m: float, x, t, shift=0.0, limit=None) -> float:
    """Work of ``propagate_grid(datum, m, x, t, shift)``, as :func:`batch_work`."""
    return batch_work(*_band_coefficients(datum, m, x, t), BUMP_SUPPORT, shift, limit)


def sobolev_norm(datum: FourierDatum, s: float) -> float:
    """Inhomogeneous Sobolev norm ((2*pi)^{-1} int (1+xi^2)^s |fhat|^2 dxi)^{1/2}.

    The phase factors are unimodular so they never enter: the integrand is
    |amplitude|^2 * (1+xi^2)^s * bump(scale*xi+shift)^2, which makes the norm
    exactly invariant under changes of linear_phase and fractional_phase.
    """
    lo, hi = datum.support

    def weight(xi):
        return (1.0 + xi ** 2) ** s * bump_profile(datum.scale * xi + datum.shift) ** 2

    value = integrate(weight, lambda xi: np.zeros_like(xi), (lo, hi))
    return abs(datum.amplitude) * float(np.sqrt(value.real / (2.0 * np.pi)))


def kernel_grid(lam: float, m: float, x, t) -> np.ndarray:
    """Localized kernel lam * int exp(i*(lam*x*xi + lam^m*t*|xi|^m)) bump(xi)^2 dxi.

    The single-scale building block of the maximal-function estimates, for a
    dyadic scale lam >= 1 and m in (0, 1): its value at (0, 0) is lam times
    the mass of the squared bump.  One :func:`two_phase_batch` call gives it
    on broadcast arrays of (x, t), in their broadcast shape.  An x-by-t mesh
    (x of shape (r, 1), t of shape (1, c)) takes the separable mesh route: on
    uniform t, (r + c/33 + 1)*n exponentials for an n-node rule, not r*c*n.
    """
    if not lam >= 1.0:
        raise ValueError(f"scale must be >= 1, got {lam}")
    if not 0.0 < m < 1.0:
        raise ValueError(f"dispersion exponent must lie in (0, 1), got {m}")
    values = two_phase_batch(
        lam * np.asarray(x, dtype=float), lam ** m * np.asarray(t, dtype=float),
        lambda v: v, lambda v: np.abs(v) ** m,
        BUMP_SQUARED, BUMP_SUPPORT)
    return lam * values
