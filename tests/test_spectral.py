"""Reference bump, band-limited data, propagator, Sobolev norms, kernel."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from concave_phase_lab import experiments, maximal, quadrature, spectral
from concave_phase_lab.counterexamples import knapp_curve, knapp_vertical_spatial
from concave_phase_lab.experiments import RunConfig
from concave_phase_lab.fitting import fit_loglog
from concave_phase_lab.quadrature import (ABS_TOL, InvalidIntegrandError, ResolutionLimitError,
                                          integrate, oracle_integrate)
from concave_phase_lab.spectral import (BUMP, BUMP_SQUARED, BUMP_SUPPORT, FourierDatum,
                                        bump_profile, kernel_grid, propagate,
                                        propagate_grid, sobolev_norm)

TWO_PI = 2.0 * np.pi

# frozen composite-Simpson constants (10^6+1 nodes)
M_PSI = 0.905175241828407
H0_NORM = 0.342611205286094
M_PSI2 = 0.7375356096845448


def test_bump_support_and_peak():
    assert BUMP_SUPPORT == (0.5, 2.0)
    assert bump_profile(1.25) == 1.0
    assert bump_profile(0.5) == 0.0
    assert bump_profile(2.0) == 0.0
    assert bump_profile(0.49) == 0.0
    assert bump_profile(2.01) == 0.0
    v = np.linspace(0.5, 2.0, 101)
    vals = bump_profile(v)
    assert np.all(vals >= 0.0) and vals.max() == 1.0


def test_datum_rejects_zero_in_support_interior():
    # support (v - b)/a straddling 0 breaks the |xi|^m phase split
    with pytest.raises(ValueError):
        FourierDatum(scale=1.0, shift=1.0)   # support [-0.5, 1]
    FourierDatum(scale=1.0, shift=0.5)       # touching endpoint is fine


def test_datum_fractional_phase_needs_exponent():
    with pytest.raises(ValueError):
        FourierDatum(fractional_phase=1.0)
    FourierDatum(fractional_phase=1.0, m=0.5)


def test_propagate_at_origin_is_bump_mass():
    val = propagate(FourierDatum(), 0.5, 0.0, 0.0)
    assert abs(val - M_PSI / TWO_PI) < 1e-10


def test_modulation_equals_translation():
    # e^{i*theta*xi} on the data shifts the profile to x = -theta
    base = propagate(FourierDatum(), 0.5, 0.0, 0.0)
    moved = propagate(FourierDatum(linear_phase=5.0), 0.5, -5.0, 0.0)
    assert abs(base - moved) < 1e-10


def test_dilated_bump_change_of_variables():
    lam = 2.0 ** 6
    datum = FourierDatum(amplitude=1.0 / lam, scale=1.0 / lam)
    val = propagate(datum, 0.5, 0.0, 0.0)
    assert abs(val - M_PSI / TWO_PI) < 1e-10


def test_t_zero_identity_three_families():
    families = [FourierDatum(),
                knapp_vertical_spatial(2.0 ** 5),
                knapp_curve(2.0 ** 4, 0.5, 1.0, 1.0)]
    xs = np.linspace(-1.0, 1.0, 17)
    for datum in families:
        for x in xs:
            fast = propagate(datum, 0.5, x, 0.0)
            slow = propagate(datum, 0.5, x, 0.0, method="oracle")
            assert abs(fast - slow) <= 1e-8 * (1.0 + abs(slow))


def test_propagate_grid_matches_pointwise():
    datum = knapp_vertical_spatial(2.0 ** 5)
    xs = np.linspace(-0.5, 0.5, 9)
    ts = np.linspace(0.0, 1.0, 9)
    grid_vals = propagate_grid(datum, 0.5, xs, ts)
    for i in range(len(xs)):
        ref = propagate(datum, 0.5, xs[i], ts[i])
        assert abs(grid_vals[i] - ref) <= 1e-6 * (1.0 + abs(ref))


def test_propagate_checks_datum_exponent():
    datum = FourierDatum(fractional_phase=-0.5, m=0.5)
    with pytest.raises(ValueError):
        propagate(datum, 0.7, 0.0, 0.0)


def test_sobolev_norm_h0_frozen_value():
    assert abs(sobolev_norm(FourierDatum(), 0.0) - H0_NORM) < 1e-10


def test_sobolev_norm_modulation_invariance():
    plain = sobolev_norm(FourierDatum(), 0.35)
    dressed = sobolev_norm(FourierDatum(linear_phase=1e3, fractional_phase=-1e3,
                                        m=0.5), 0.35)
    assert abs(plain - dressed) <= 1e-12 * plain


def test_sobolev_ladder_slope():
    lams = [2.0 ** j for j in range(4, 11)]
    norms = [sobolev_norm(FourierDatum(amplitude=1 / lam, scale=1 / lam), 0.4)
             for lam in lams]
    fit = fit_loglog(np.array(lams), np.array(norms))
    assert abs(fit.slope - (-0.1)) < 0.02


def test_kernel_at_origin():
    val = kernel_grid(16.0, 0.5, 0.0, 0.0)
    assert abs(val - 16.0 * M_PSI2) < 1e-8


def test_kernel_requires_unit_scale():
    with pytest.raises(ValueError, match="scale must be >= 1"):
        kernel_grid(0.5, 0.5, 0.0, 0.0)


@pytest.mark.parametrize("m", [0.0, 1.0, 1.5, -0.5, math.nan])
def test_kernel_requires_a_concave_exponent(m):
    with pytest.raises(ValueError, match=r"dispersion exponent must lie in \(0, 1\)"):
        kernel_grid(16.0, m, 0.1, 0.1)


def test_kernel_conjugate_symmetry():
    for lam, x, t in [(4.0, 0.3, -0.2), (64.0, -0.7, 0.4), (2.0 ** 10, 0.01, 0.9)]:
        k = kernel_grid(lam, 0.5, x, t)
        assert abs(kernel_grid(lam, 0.5, -x, -t) - np.conj(k)) <= 1e-8 * (1 + abs(k))


def test_kernel_scaling_identity():
    m = 0.5
    lam = 32.0
    lhs = kernel_grid(lam, m, 0.01, 0.02)
    rhs = lam * kernel_grid(1.0, m, lam * 0.01, lam ** m * 0.02)
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_kernel_nonstationary_decay_ladder():
    m = 0.5
    x = 0.5
    lams = np.array([2.0 ** j for j in range(6, 13)])
    vals = np.array([abs(kernel_grid(lam, m, x, 0.0)) for lam in lams])
    fit = fit_loglog(lams, vals)
    assert fit.slope < -0.9    # modulus <= C/(lam |x|)


# One Simpson node count for every kernel oracle value, so the oracle memo
# evaluates the squared bump once: h*max|phi'| <= 1.5e-5 * 260 at lam = 256.
KERNEL_ORACLE_NODES = 100_001


def _kernel_oracle(lam, m, x, t):
    """The kernel at one (x, t) by the dense Simpson oracle, which shares no
    code with the batch rule."""
    def phase(xi):
        return lam * x * xi + lam ** m * t * np.abs(xi) ** m

    return lam * oracle_integrate(BUMP_SQUARED, phase, BUMP_SUPPORT,
                                  node_count=KERNEL_ORACLE_NODES)


def test_kernel_grid_matches_kernel():
    xs = np.array([0.1, 0.2, 0.4])
    ts = np.array([0.0, 0.5, 0.9])
    vals = kernel_grid(64.0, 0.5, xs, ts)
    for i in range(3):
        ref = _kernel_oracle(64.0, 0.5, xs[i], ts[i])
        assert abs(vals[i] - ref) <= 1e-6 * (1 + abs(ref))


def test_kernel_grid_mesh_matches_kernel():
    xs = np.linspace(-0.9, 0.9, 13)
    ts = np.linspace(0.0, 1.0, 11)
    vals = kernel_grid(64.0, 0.5, xs[:, None], ts[None, :])
    assert vals.shape == (13, 11)
    for i, j in ((0, 0), (3, 7), (6, 10), (9, 2), (12, 5)):
        ref = _kernel_oracle(64.0, 0.5, xs[i], ts[j])
        assert abs(vals[i, j] - ref) <= 1e-6 * (1 + abs(ref))


def test_kernel_grid_large_mesh_spot_checks():
    xs = np.linspace(0.0, 1.0, 80)
    ts = np.linspace(0.0, 1.0, 70)
    vals = kernel_grid(256.0, 0.3, xs[:, None], ts[None, :])
    assert vals.size > 4096
    for i, j in ((0, 0), (17, 69), (40, 35), (79, 1), (79, 69)):
        ref = _kernel_oracle(256.0, 0.3, xs[i], ts[j])
        assert abs(vals[i, j] - ref) <= 1e-6 * (1 + abs(ref))


def test_propagate_grid_mesh_matches_propagate():
    datum = knapp_curve(2.0 ** 5, 0.5, 1.0, 1.0)
    xs = np.linspace(-0.5, 0.5, 9)
    ts = np.linspace(0.0, 1.0, 6)
    vals = propagate_grid(datum, 0.5, xs[:, None], ts[None, :])
    assert vals.shape == (9, 6)
    for i in range(len(xs)):
        for j in range(len(ts)):
            ref = propagate(datum, 0.5, xs[i], ts[j])
            assert abs(vals[i, j] - ref) <= 1e-6 * (1.0 + abs(ref))


# --------------------------------------------------------------------------
# the integration-by-parts certificate of propagate(..., method="adaptive")


def _band_integral(datum, m, x, t):
    """Band phase of propagate(datum, m, x, t), exactly as propagate builds it,
    its variation W and its slope phi' at the two band ends (the limit where
    the support touches xi = 0)."""
    L, S = datum.band_maps(m)
    P, T = x + datum.linear_phase, t + datum.fractional_phase
    W = (abs(P) * abs(L(BUMP_SUPPORT[1]) - L(BUMP_SUPPORT[0]))
         + abs(T) * abs(S(BUMP_SUPPORT[1]) - S(BUMP_SUPPORT[0])))
    inner = np.sign((1.25 - datum.shift) / datum.scale)
    slopes = []
    for v in BUMP_SUPPORT:
        xi = (v - datum.shift) / datum.scale
        power = np.inf * inner if xi == 0.0 else np.sign(xi) * abs(xi) ** (m - 1.0)
        slopes.append((P + (T * m * power if T != 0.0 else 0.0)) / datum.scale)
    return (lambda v: P * L(v) + T * S(v)), float(W), slopes


def _min_slope(slopes):
    """min |phi'| over the band when phi' keeps one sign there, else 0."""
    lo, hi = slopes
    return min(abs(lo), abs(hi)) if np.sign(lo) == np.sign(hi) != 0 else 0.0


@pytest.fixture
def integrate_spy(monkeypatch):
    """Records each band integral that propagate hands to ``integrate``; with
    ``run=False`` the engine is not run and the value is 0."""
    seen = []

    def install(run):
        def spy(amplitude, phase, interval):
            seen.append(phase)
            return integrate(amplitude, phase, interval) if run else 0j
        monkeypatch.setattr(spectral, "integrate", spy)
        return seen
    return install


REFUSAL_SLOPE = 3.6e3   # no CLI-family call with a min|phi'| this large reaches integrate


@pytest.mark.parametrize("family", sorted(experiments._FAMILIES))
def test_certificate_settles_non_stationary_cli_calls(family, integrate_spy, monkeypatch):
    # propagate on the CLI families at lambda = 2^4..2^12 and eight (x, t)
    # points; the engine is stubbed out, since a call near its N_MAX reach
    # costs up to 0.14 s.  No call with min|phi'| >= 3.6e3 reaches it, and every
    # settled call is 0 within abs_tol of the band integral: against the
    # oracle at 4 W + 10001 nodes wherever W <= 1e5 rad.  A settled call
    # builds its Taylor series to no more than its own degree k (k + 1 rows).
    seen = integrate_spy(run=False)
    spectral._bump_taylor()   # cached; its own reciprocal series is not the call's
    rows = []
    reciprocal = spectral._series_reciprocal
    monkeypatch.setattr(spectral, "_series_reciprocal",
                        lambda c: rows.append(len(c)) or reciprocal(c))
    tol = ABS_TOL
    settled = checked = 0
    for lam in 2.0 ** np.arange(4, 13):
        cfg = RunConfig(lam=float(lam))
        datum = experiments._FAMILIES[family](cfg)
        unit = abs(datum.amplitude) / (2.0 * np.pi * abs(datum.scale))
        for x in (-0.98, -0.4, 0.53, 0.9):
            for t in (0.1, 0.64):
                phase, W, slopes = _band_integral(datum, cfg.m, x, t)
                before = len(seen)
                rows.clear()
                value = propagate(datum, cfg.m, x, t)
                if len(seen) > before:
                    assert _min_slope(slopes) < REFUSAL_SLOPE, (lam, x, t)
                    continue
                settled += 1
                k, bound = spectral._nonstationary_bound(datum, cfg.m, x, t)
                assert value == 0 and 1 <= k <= 8 and bound <= tol
                assert rows and max(rows) <= k + 1, (lam, x, t, rows)
                if W <= 1e5:
                    ref = oracle_integrate(BUMP, phase, BUMP_SUPPORT,
                                           node_count=int(4 * W) + 10001)
                    assert abs(value - unit * ref) <= 1e-12 * unit, (lam, x, t)
                    checked += 1
    if family in ("temporal-knapp", "cantor"):
        assert settled >= 20 and checked >= 10


def test_certificate_declines_and_leaves_the_engine_values(integrate_spy):
    # phases whose slope changes sign on the band (from 0.2 to -0.15, and from
    # 4e3 to -4e3), and a non-stationary one with a small slope: all reach the
    # engine and keep its value bit for bit
    seen = integrate_spy(run=True)
    datum = FourierDatum()
    for x, t, stationary in ((-0.5, 1.0, True), (-1.2e4, 1.6e4 * np.sqrt(2.0), True),
                             (0.3, 0.7, False)):
        phase, _, slopes = _band_integral(datum, 0.5, x, t)
        assert (_min_slope(slopes) == 0.0) == stationary
        assert spectral._nonstationary_bound(datum, 0.5, x, t) is None
        before = len(seen)
        value = propagate(datum, 0.5, x, t)
        assert len(seen) == before + 1
        engine = integrate(BUMP, phase, BUMP_SUPPORT)
        assert value == datum.amplitude * engine / (2.0 * np.pi * abs(datum.scale))


@pytest.mark.parametrize("scale, shift", [(1.0, 0.5), (-1.0, 2.0), (-0.25, 0.5),
                                          (4.0, 2.0)])
@pytest.mark.parametrize("t", [0.0, 1.0, -3.0])
def test_certificate_on_support_touching_zero(scale, shift, t):
    # |xi|^(m-1) is infinite at the end where the support touches xi = 0; the
    # slope there is a limit, and no 0 * inf, warning or non-finite bound occurs
    datum = FourierDatum(scale=scale, shift=shift)
    inner = np.sign((1.25 - shift) / scale)   # sign of xi on the support
    x = 2e4 * inner * (np.sign(t) or 1.0)     # P and T*sign(xi) agree: no stationary point
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise",
                                                invalid="raise"):
        warnings.simplefilter("error")
        k, bound = spectral._nonstationary_bound(datum, 0.5, x, t)
        value = propagate(datum, 0.5, x, t)
    assert np.isfinite(bound) and bound <= ABS_TOL and value == 0
    if t != 0.0:   # P against T*sign(xi): a stationary point next to the flat end
        assert spectral._nonstationary_bound(datum, 0.5, -x, t) is None


@pytest.mark.parametrize("datum, m, x, t, outcome", [
    (FourierDatum(shift=0.5), 0.5, 0.0, 1e308, ResolutionLimitError),   # phi' series overflows
    (FourierDatum(scale=64.0), 0.5, 0.0, 1e308, ResolutionLimitError),  # end slopes overflow
    (FourierDatum(scale=1 / 4096), 0.5, 0.0, 1e308, InvalidIntegrandError),   # band phase
    (FourierDatum(shift=0.5), 0.1, -1e308, 1e308, ResolutionLimitError),  # its variation
    (FourierDatum(), 0.5, 1e-160, 0.0, complex),   # min|phi'|^-k past the float range
    (FourierDatum(), 0.5, 1e300, 0.0, complex),    # settled at k = 1
])
def test_propagate_near_the_float_range_is_quiet(datum, m, x, t, outcome):
    # finite inputs whose phase leaves the float range: the certificate
    # declines without a warning (a non-finite coefficient never certifies),
    # and integrate refuses or answers as it would without the certificate
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise",
                                                invalid="raise"):
        warnings.simplefilter("error")
        if outcome is complex:
            value = propagate(datum, m, x, t)
            assert np.isfinite(value)
        else:
            with pytest.raises(outcome):
                propagate(datum, m, x, t)


def _certificate_slopes_by_end(datum, m, p, t):
    """phi' at the band ends v = 1/2, 2 in Python floats, the form the
    certificate used before it shared ``spectral._end_slopes`` with the screen."""
    inner = math.copysign(1.0, (1.25 - datum.shift) / datum.scale)   # sign of xi
    slopes = []
    for v in BUMP_SUPPORT:
        xi = (v - datum.shift) / datum.scale
        if t == 0.0:
            slope = p
        elif xi == 0.0:
            slope = math.copysign(math.inf, t * inner)
        else:
            slope = p + t * m * math.copysign(abs(xi) ** (m - 1.0), xi)
        slopes.append(slope / datum.scale)
    return slopes


def _screen_slopes_inline(datum, m, times):
    """s-, s+ as the screen computed them before sharing ``_end_slopes``."""
    lo, hi = datum.support
    tau = times + datum.fractional_phase
    s = [np.where(tau == 0.0, 0.0, np.copysign(np.inf, tau * (lo + hi))) if xi == 0.0
         else tau * m * np.abs(xi) ** (m - 1.0) * np.sign(xi) for xi in (lo, hi)]
    return np.minimum(*s), np.maximum(*s)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(m=st.floats(0.05, 0.95), scale=st.floats(1e-3, 1e3), mirrored=st.booleans(),
       shift=st.sampled_from([0.5, 2.0]) | st.floats(-50.0, 0.5) | st.floats(2.0, 50.0),
       p=st.sampled_from([0.0, -0.0]) | st.floats(-1e6, 1e6),
       tau=st.sampled_from([0.0]) | st.floats(-1e6, 1e6),
       frac=st.sampled_from([0.0]) | st.floats(-1e3, 1e3))
def test_end_slopes_keep_certificate_and_screen_decisions(m, scale, mirrored, shift, p,
                                                          tau, frac):
    # one function gives both callers the slope at the support ends, with the
    # xi = 0 limit (shifts 0.5 and 2.0) and tau = 0; the certificate reads
    # the sign at both ends and min |phi'|, the screen s- and s+, bit for bit
    datum = FourierDatum(scale=-scale if mirrored else scale, shift=shift,
                         fractional_phase=frac, m=m)
    old = _certificate_slopes_by_end(datum, m, p, tau)
    new = [float(p + s) / datum.scale for s in spectral._end_slopes(datum, m, tau)]
    assert (old[0] * old[1] > 0.0) == (new[0] * new[1] > 0.0)
    assert min(map(abs, old)).hex() == min(map(abs, new)).hex()
    assert sorted(old) == sorted(new)
    times = np.array([tau, 0.0, -tau, 0.5 * tau, 1.0])
    for before, after in zip(_screen_slopes_inline(datum, m, times),
                             maximal._slopes(datum, m, times)):
        assert before.tobytes() == after.tobytes()


@settings(derandomize=True, max_examples=80, deadline=None)
@given(m=st.floats(0.1, 0.9), scale=st.sampled_from([1.0, 0.25, 1 / 64, 4.0]),
       mirrored=st.booleans(),
       shift=st.sampled_from([0.5, 2.0]) | st.floats(-3.0, 0.5) | st.floats(2.0, 5.0),
       W=st.floats(1.0, 2e4), share=st.floats(0.0, 1.0),
       signs=st.tuples(st.booleans(), st.booleans()))
def test_certificate_bounds_dominate_the_oracle(m, scale, mirrored, shift, W, share, signs):
    # every B_k the certificate computes bounds the band integral, up to the
    # oracle's own rounding; shifts 0.5 and 2.0 make the support touch xi = 0
    datum = FourierDatum(scale=-scale if mirrored else scale, shift=shift)
    L, S = datum.band_maps(m)
    spans = [abs(f(BUMP_SUPPORT[1]) - f(BUMP_SUPPORT[0])) for f in (L, S)]
    P = (-1.0) ** signs[0] * share * W / spans[0]
    T = (-1.0) ** signs[1] * (1.0 - share) * W / spans[1]
    phase, W, slopes = _band_integral(datum, m, P, T)
    assume(_min_slope(slopes) > 0.0)
    ref = abs(oracle_integrate(BUMP, phase, BUMP_SUPPORT, node_count=int(4 * W) + 10001))
    bounds = list(spectral._ibp_bounds(datum, m, P, T, 8))
    assert len(bounds) == 8
    for bound in bounds:
        assert ref <= bound * (1.0 + 1e-9) + 2.2e-16 * W


def _full_order_bound(datum, m, x, t):
    """(k, B_k) or None by the certificate's rules on series of degree 8,
    whatever order the gate names; the gate only declines."""
    p, t = x + datum.linear_phase, t + datum.fractional_phase
    lo, hi = (float(p + s) / datum.scale for s in spectral._end_slopes(datum, m, t))
    slope = min(abs(lo), abs(hi))
    if not (lo * hi > 0.0 and slope < math.inf):
        return None
    norms = spectral._bump_taylor()[3]
    if all(norms[k] * (1.0 / slope) ** k > ABS_TOL for k in range(1, 9)):
        return None
    previous = math.inf
    for k, bound in enumerate(spectral._ibp_bounds(datum, m, p, t, 8), 1):
        if bound <= ABS_TOL:
            return k, bound
        if not bound < previous:
            return None
        previous = bound
    return None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=st.floats(0.1, 0.9), scale=st.sampled_from([1.0, 0.25, 1 / 64, 4.0, 1 / 4096]),
       mirrored=st.booleans(),
       shift=st.sampled_from([0.5, 2.0]) | st.floats(-3.0, 0.5) | st.floats(2.0, 5.0),
       log_w=st.floats(2.0, 8.0), share=st.floats(0.0, 1.0),
       signs=st.tuples(st.booleans(), st.booleans()), order=st.integers(1, 8))
def test_truncated_certificate_matches_full_order(m, scale, mirrored, shift, log_w, share,
                                                  signs, order):
    # series cut at degree K give B_1..B_K of the degree-8 series bit for bit,
    # stationary phases included; and the certificate, whose degree is the
    # gate's first passing k, settles with the same (k, B_k), or declines, as
    # the degree-8 rules do
    datum = FourierDatum(scale=-scale if mirrored else scale, shift=shift)
    L, S = datum.band_maps(m)
    spans = [abs(f(BUMP_SUPPORT[1]) - f(BUMP_SUPPORT[0])) for f in (L, S)]
    P = (-1.0) ** signs[0] * share * 10.0 ** log_w / spans[0]
    T = (-1.0) ** signs[1] * (1.0 - share) * 10.0 ** log_w / spans[1]
    with np.errstate(all="ignore"):   # a stationary phase's 1/phi' series may overflow
        full = [b.hex() for b in spectral._ibp_bounds(datum, m, P, T, 8)]
        cut = [b.hex() for b in spectral._ibp_bounds(datum, m, P, T, order)]
    assert cut == full[:order]
    ref, got = _full_order_bound(datum, m, P, T), spectral._nonstationary_bound(datum, m, P, T)
    assert (got and (got[0], got[1].hex())) == (ref and (ref[0], ref[1].hex()))


@pytest.mark.parametrize("path", ["lines", "curve", "vertical"])
def test_lattice_tables_match_direct_sums(path):
    # Random seeds with every offset of a 17 x 17 (theta, t) local mesh, or of
    # 17 t offsets on a curve of order one (theta = 1.3) or a vertical path,
    # so every seed goes through its factor table.  Each value must be within
    # 1e-16 * (1 + W) * sum|a*w| of the direct sum of exp(i*(P*L + T*S)) on
    # the seed's own rule, W the seed's largest phase variation, at two
    # scales: W from about 700 to 2e3 and from 1e4 to 3e4 rad.  P stays within
    # a factor 2.5 of x, since rounding x alone moves the phase by up to
    # ulp(x) * L, whatever P is.
    rng = np.random.default_rng(25)
    m, h, count = 0.5, 8, 6
    for scale in (1.0 / 256.0, 1.0 / 4096.0):
        datum = FourierDatum(amplitude=1.5 - 0.5j, scale=scale, linear_phase=0.3,
                             fractional_phase=-0.2, m=m)
        x = rng.uniform(3.0, 5.0, count)
        t = rng.uniform(0.0, 1.0, count)
        if path == "lines":
            theta, steps = rng.uniform(-0.5, 0.5, count), (0.05 / h, 0.02 / h)
            a, b = (g.ravel() for g in np.meshgrid(np.arange(-h, h + 1),
                                                   np.arange(-h, h + 1)))
        else:
            theta = np.full(count, 1.3 if path == "curve" else 0.0)
            steps, b = (0.0, 0.02 / h), np.arange(-h, h + 1)
            a = np.zeros_like(b)
        s = np.repeat(np.arange(count), len(a))
        a, b = np.tile(a, count), np.tile(b, count)
        values = spectral.propagate_lattice(datum, m, x, theta, t, steps, (s, a, b))
        th, tt = theta[s] + a * steps[0], t[s] + b * steps[1]
        P, T = x[s] - th * tt + datum.linear_phase, tt + datum.fractional_phase
        L_of, S_of = datum.band_maps(m)
        span_l, span_s = (np.ptp(f(np.array(BUMP_SUPPORT))) for f in (L_of, S_of))
        W = np.abs(P) * span_l + np.abs(T) * span_s
        unit = abs(datum.amplitude) / (2.0 * np.pi * abs(datum.scale))
        for seed in range(count):
            own = s == seed
            v, amp_w = quadrature._batch_rule(W[own].max(), BUMP, *BUMP_SUPPORT)
            phase = P[own, None] * L_of(v) + T[own, None] * S_of(v)
            direct = datum.amplitude / (2.0 * np.pi * abs(datum.scale)) * (
                np.exp(1j * phase) @ amp_w)
            bound = 1e-16 * (1.0 + W[own].max()) * np.abs(amp_w).sum() * unit
            assert np.abs(values[own] - direct).max() <= bound


@pytest.mark.parametrize("path", ["vertical", "curve", "lines", "kernel", "curve2"])
def test_mesh_columns_match_direct_sums(path):
    # Meshes of positions against 129 uniform times, whose columns are built
    # by recurrence from a centre every 2h + 1 columns: a vertical path
    # (shift 0), a curve of order one (theta = 1.3, shift -theta*t affine in
    # t), the (theta, t) base mesh of lines (theta fastest, one step factor
    # per direction) and a kernel_grid mesh.  On a curve x - 1.3*t^2 the
    # shift is not affine, so every column is direct (h = 0).  Each sum must
    # be within 1e-16*(1 + W)*sum|a*w| of the sum of exp(i*P*L) *
    # exp(i*(shift*L + T*S)), both direct, on its row group's rule, W that
    # rule's phase variation, at two scales: W from about 6e2 to 2e3 and from
    # 2e4 to 8e4 rad (worst measured 0.22 of the bound, on the curve).
    rng = np.random.default_rng(26)
    m, t = 0.5, np.linspace(0.0, 1.0, 129)
    for scale in (1.0 / 512.0, 1.0 / 16384.0):
        if path == "kernel":
            lam, grid = 0.75 / scale, (np.arange(64) + 0.5) / 64
            values = kernel_grid(lam, m, grid[:, None], grid[None, :]) / lam
            P, T, shift = lam * grid, lam ** m * grid, np.zeros(64)
            L_of, S_of, amplitude, unit = (lambda v: v), (lambda v: v ** m), BUMP_SQUARED, 1.0
        else:
            datum = FourierDatum(amplitude=1.5 - 0.5j, scale=scale, linear_phase=0.3,
                                 fractional_phase=-0.2, m=m)
            x, theta, times = rng.uniform(-2.0, 2.0, 8), 1.3, t
            if path == "lines":   # two directions, so two row groups
                theta, times = (g.ravel() for g in np.meshgrid([0.0, 0.5], t))
            shift = {"vertical": 0.0 * times, "curve2": -theta * times ** 2}.get(
                path, -theta * times)
            values = propagate_grid(datum, m, x[:, None], times[None], shift[None])
            P, T, (L_of, S_of) = x + datum.linear_phase, times + datum.fractional_phase, \
                datum.band_maps(m)
            amplitude, unit = BUMP, datum.amplitude / (2.0 * np.pi * abs(datum.scale))
        spans = [float(np.ptp(f(np.array(BUMP_SUPPORT)))) for f in (L_of, S_of)]
        _, _, (h, _, _), runs = quadrature._plan(P[:, None], T[None], shift[None], *spans)
        assert (h == 0) == (path == "curve2")
        for run in runs:
            idx = np.concatenate([i for _, i in run])
            v, amp_w = quadrature._batch_rule(run[-1][0], amplitude, *BUMP_SUPPORT)
            L, S = L_of(v), S_of(v)
            direct = unit * (np.exp(1j * P[idx, None] * L) * amp_w) @ np.exp(
                1j * (shift[:, None] * L + T[:, None] * S)).T
            bound = 1e-16 * (1.0 + run[-1][0]) * np.abs(amp_w).sum() * abs(unit)
            assert np.abs(values[idx] - direct).max() <= bound
