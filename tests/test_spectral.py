"""Reference bump, band-limited data, propagator, Sobolev norms, kernel."""
import numpy as np
import pytest

from concave_phase_lab.counterexamples import knapp_curve, knapp_vertical_spatial
from concave_phase_lab.fitting import fit_loglog
from concave_phase_lab.spectral import (BUMP_SUPPORT, FourierDatum, bump_profile,
                                        kernel_K, kernel_grid, propagate,
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
    val = kernel_K(16.0, 0.5, 0.0, 0.0)
    assert abs(val - 16.0 * M_PSI2) < 1e-8


def test_kernel_requires_unit_scale():
    with pytest.raises(ValueError):
        kernel_K(0.5, 0.5, 0.0, 0.0)


def test_kernel_conjugate_symmetry():
    for lam, x, t in [(4.0, 0.3, -0.2), (64.0, -0.7, 0.4), (2.0 ** 10, 0.01, 0.9)]:
        k = kernel_K(lam, 0.5, x, t)
        assert abs(kernel_K(lam, 0.5, -x, -t) - np.conj(k)) <= 1e-8 * (1 + abs(k))


def test_kernel_scaling_identity():
    m = 0.5
    lam = 32.0
    lhs = kernel_K(lam, m, 0.01, 0.02)
    rhs = lam * kernel_K(1.0, m, lam * 0.01, lam ** m * 0.02)
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_kernel_nonstationary_decay_ladder():
    m = 0.5
    x = 0.5
    lams = np.array([2.0 ** j for j in range(6, 13)])
    vals = np.array([abs(kernel_K(lam, m, x, 0.0)) for lam in lams])
    fit = fit_loglog(lams, vals)
    assert fit.slope < -0.9    # modulus <= C/(lam |x|)


def test_kernel_grid_matches_kernel():
    xs = np.array([0.1, 0.2, 0.4])
    ts = np.array([0.0, 0.5, 0.9])
    vals = kernel_grid(64.0, 0.5, xs, ts)
    for i in range(3):
        ref = kernel_K(64.0, 0.5, xs[i], ts[i])
        assert abs(vals[i] - ref) <= 1e-6 * (1 + abs(ref))


def test_kernel_grid_mesh_matches_kernel():
    xs = np.linspace(-0.9, 0.9, 13)
    ts = np.linspace(0.0, 1.0, 11)
    vals = kernel_grid(64.0, 0.5, xs[:, None], ts[None, :])
    assert vals.shape == (13, 11)
    for i, j in ((0, 0), (3, 7), (6, 10), (9, 2), (12, 5)):
        ref = kernel_K(64.0, 0.5, xs[i], ts[j])
        assert abs(vals[i, j] - ref) <= 1e-6 * (1 + abs(ref))


def test_kernel_grid_large_mesh_spot_checks():
    xs = np.linspace(0.0, 1.0, 80)
    ts = np.linspace(0.0, 1.0, 70)
    vals = kernel_grid(256.0, 0.3, xs[:, None], ts[None, :])
    assert vals.size > 4096
    for i, j in ((0, 0), (17, 69), (40, 35), (79, 1), (79, 69)):
        ref = kernel_K(256.0, 0.3, xs[i], ts[j])
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
