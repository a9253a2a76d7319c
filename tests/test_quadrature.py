"""Oscillatory quadrature: adaptive engine, Simpson oracle, batch rule."""
import numpy as np
import pytest

from concave_phase_lab import quadrature
from concave_phase_lab.quadrature import (InvalidIntegrandError, QuadratureSpec,
                                          SmoothFunction1D, ToleranceNotMetError,
                                          integrate, oracle_integrate,
                                          simpson_weights, two_phase_batch)
from concave_phase_lab.spectral import BUMP, BUMP_SQUARED

# Composite-Simpson value of the reference band bump, 10^6+1 nodes,
# frozen before the engine was written.
M_PSI = 0.905175241828407
M_PSI2 = 0.7375356096845448

BAND = (0.5, 2.0)


def _zero_phase(v):
    return np.zeros_like(np.asarray(v, dtype=float))


def test_zero_amplitude_integrates_to_zero():
    zero = SmoothFunction1D(lambda v: np.zeros_like(np.asarray(v, float)), BAND)
    assert integrate(zero, lambda v: 7.0 * v, BAND) == 0.0


def test_bump_mass_against_frozen_oracle_value():
    val = integrate(BUMP, _zero_phase, BAND)
    assert abs(val.imag) < 1e-12
    assert abs(val.real - M_PSI) < 1e-10


def test_oracle_constant_unit_interval():
    one = SmoothFunction1D(lambda v: np.ones_like(np.asarray(v, float)), (0.0, 1.0))
    assert abs(oracle_integrate(one, _zero_phase, (0.0, 1.0)) - 1.0) < 1e-12


def test_oracle_full_period_cancels():
    one = SmoothFunction1D(lambda v: np.ones_like(np.asarray(v, float)),
                           (0.0, 2.0 * np.pi))
    val = oracle_integrate(one, lambda v: v, (0.0, 2.0 * np.pi))
    assert abs(val) < 1e-8


def test_oracle_bump_mass():
    assert abs(oracle_integrate(BUMP, _zero_phase, BAND) - M_PSI) < 1e-12


def test_nonstationary_phase_decay():
    lam = 2.0 ** 10
    val = integrate(BUMP_SQUARED, lambda v: lam * v, BAND)
    # no stationary point: integration by parts predicts O(1/lam)
    assert abs(val) <= 20.0 / lam


def test_agreement_fast_vs_oracle_randomized():
    rng = np.random.default_rng(7)
    for _ in range(40):
        lam = 2.0 ** rng.uniform(0, 12)
        p = rng.uniform(-1.5, 1.5) * lam
        t = rng.uniform(-1.0, 1.0) * lam ** 0.5
        m = rng.uniform(0.2, 0.9)
        phase = lambda v, p=p, t=t, m=m: p * v + t * v ** m
        fast = integrate(BUMP, phase, BAND)
        slow = oracle_integrate(BUMP, phase, BAND)
        assert abs(fast - slow) <= 1e-6 * (1.0 + abs(slow))


def test_linearity():
    phase = lambda v: 30.0 * v + 11.0 * np.sqrt(v)
    f = integrate(BUMP, phase, BAND)
    g = integrate(BUMP_SQUARED, phase, BAND)
    both = SmoothFunction1D(lambda v: 2.0 * BUMP(v) - 3.0 * BUMP_SQUARED(v), BAND)
    assert abs(integrate(both, phase, BAND) - (2.0 * f - 3.0 * g)) < 1e-9


def test_conjugation():
    phase = lambda v: 101.0 * v + 7.0 * v ** 0.3
    neg = lambda v: -phase(v)
    assert abs(integrate(BUMP, neg, BAND) - np.conj(integrate(BUMP, phase, BAND))) < 1e-10


def test_invalid_integrand_rejected():
    bad = SmoothFunction1D(lambda v: np.where(np.asarray(v) > 1.0, np.nan, 1.0), BAND)
    with pytest.raises(InvalidIntegrandError):
        integrate(bad, _zero_phase, BAND)


def test_tolerance_failure_carries_partial_result():
    # a kink the cell seeding cannot resolve at an absurd tolerance
    spec = QuadratureSpec(rel_tol=1e-16, abs_tol=1e-300, max_subdivisions=4)
    try:
        integrate(BUMP, lambda v: 1e7 * np.abs(v - 1.1), BAND, spec=spec)
    except ToleranceNotMetError as err:
        assert np.isfinite(err.estimate.real)
        assert err.error_bound > 0
    else:
        pytest.skip("engine met the tolerance; nothing to assert")


def test_simpson_weights_structure():
    w = simpson_weights(5)
    assert np.allclose(w, np.array([1, 4, 2, 4, 1]) / 3.0)
    with pytest.raises(ValueError):
        simpson_weights(4)


def test_oracle_even_node_count_is_bumped_to_odd():
    even = oracle_integrate(BUMP, _zero_phase, BAND, node_count=1000)
    odd = oracle_integrate(BUMP, _zero_phase, BAND, node_count=1001)
    assert even == odd


def test_batch_rule_matches_oracle_across_scales():
    rng = np.random.default_rng(3)
    n = 50
    lam = 2.0 ** rng.uniform(2, 12, size=n)
    P = rng.uniform(-1.0, 1.0, size=n) * lam
    T = rng.uniform(-1.0, 1.0, size=n) * np.sqrt(lam)
    m = 0.5
    vals = two_phase_batch(P, T, lambda v: v, lambda v: v ** m, BUMP, BAND)
    for i in range(n):
        phase = lambda v, i=i: P[i] * v + T[i] * v ** m
        ref = oracle_integrate(BUMP, phase, BAND)
        assert abs(vals[i] - ref) <= 1e-6 * (1.0 + abs(ref))


def test_batch_rule_mesh_has_broadcast_shape_and_matches_flat():
    # <= BUCKET points: the mesh gets the node count of the single flat
    # bucket, so the two routes differ only by rounding
    m = 0.5
    P = np.linspace(-300.0, 300.0, 7)
    T = np.linspace(0.0, 20.0, 5)
    flat = two_phase_batch(np.repeat(P, 5), np.tile(T, 7),
                           lambda v: v, lambda v: v ** m, BUMP, BAND).reshape(7, 5)
    scale = np.abs(flat).max()
    for Pm, Tm, layout in ((P[:, None], T[None, :], flat),
                           (P[:, None], T, flat),
                           (P[None, :], T[:, None], flat.T)):
        mesh = two_phase_batch(Pm, Tm, lambda v: v, lambda v: v ** m, BUMP, BAND)
        assert mesh.shape == layout.shape
        assert np.abs(mesh - layout).max() <= 1e-12 * scale


def test_batch_rule_mesh_blocks_of_nodes_agree(monkeypatch):
    P = np.linspace(-600.0, 600.0, 7)[:, None]
    T = np.linspace(0.0, 30.0, 4)[None, :]
    whole = two_phase_batch(P, T, lambda v: v, lambda v: v ** 0.5, BUMP, BAND)
    monkeypatch.setattr(quadrature, "CHUNK_ELEMS", 11 * 997)  # blocks of 997 nodes
    blocks = two_phase_batch(P, T, lambda v: v, lambda v: v ** 0.5, BUMP, BAND)
    assert np.abs(blocks - whole).max() <= 1e-12 * np.abs(whole).max()


def test_batch_rule_mesh_row_groups_match_flat(monkeypatch):
    # 150 x 64 points > BUCKET: rows are sorted by |P| into groups of
    # BUCKET // 64 rows, each with its own rule.  Rows come in shuffled |P|
    # order over five decades; the spy on the row factors sees every row in
    # exactly one group, so a row dropped or repeated at a group edge fails.
    rng = np.random.default_rng(7)
    r, c, m = 150, 64, 0.5
    P = rng.permutation(np.geomspace(1e-2, 300.0, r) * rng.choice([-1.0, 1.0], r))
    T = np.linspace(0.0, 20.0, c)
    row_factors = []
    unit_phase = quadrature._unit_phase

    def spy(coeffs, profile):
        if coeffs.shape[1] == 1:
            row_factors.append(coeffs.ravel().copy())
        return unit_phase(coeffs, profile)

    monkeypatch.setattr(quadrature, "_unit_phase", spy)
    mesh = two_phase_batch(P[:, None], T[None, :], lambda v: v, lambda v: v ** m,
                           BUMP, BAND)
    groups = [np.abs(g) for g in row_factors]
    assert len(groups) == -(-r // (quadrature.BUCKET // c)) > 1
    assert all(len(g) <= quadrature.BUCKET // c for g in groups)
    assert all(a.max() <= b.min() for a, b in zip(groups, groups[1:]))
    assert np.array_equal(np.sort(np.concatenate(row_factors)), np.sort(P))
    monkeypatch.undo()
    flat = two_phase_batch(np.repeat(P, c), np.tile(T, r), lambda v: v,
                           lambda v: v ** m, BUMP, BAND).reshape(r, c)
    assert mesh.shape == (r, c)
    assert np.abs(mesh - flat).max() <= 1e-10 * (BAND[1] - BAND[0])


def test_batch_rule_rejects_shapes_that_do_not_broadcast():
    with pytest.raises(ValueError, match="broadcast"):
        two_phase_batch(np.zeros(3), np.zeros(4), lambda v: v, lambda v: v,
                        BUMP, BAND)
    with pytest.raises(ValueError, match="broadcast"):
        two_phase_batch(np.zeros((3, 1)), np.zeros((2, 4)), lambda v: v,
                        lambda v: v, BUMP, BAND)
