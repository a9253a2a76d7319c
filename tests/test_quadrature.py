"""Oscillatory quadrature: adaptive engine, Simpson oracle, batch rule."""
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concave_phase_lab import experiments, quadrature
from concave_phase_lab.cli import main as cli_main
from concave_phase_lab.experiments import RunConfig
from concave_phase_lab.quadrature import (InvalidIntegrandError, QuadratureError,
                                          ResolutionLimitError, SmoothFunction1D,
                                          ToleranceNotMetError, integrate,
                                          oracle_integrate, simpson_weights,
                                          two_phase_batch)
from concave_phase_lab.counterexamples import knapp_vertical_spatial
from concave_phase_lab.geometry import Curve
from concave_phase_lab.maximal import GridSpec, maximal_in_time
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


def test_tolerance_failure_carries_partial_result(monkeypatch):
    # a kink of 1.5e4 rad, well inside MAX_CELLS, at an absurd tolerance and
    # a budget of four bisections
    monkeypatch.setattr(quadrature, "REL_TOL", 1e-16)
    monkeypatch.setattr(quadrature, "ABS_TOL", 1e-300)
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 4)
    with pytest.raises(ToleranceNotMetError) as err:
        integrate(BUMP, lambda v: 1e4 * np.abs(v - 1.1), BAND)
    assert np.isfinite(err.value.estimate.real)
    assert err.value.error_bound > 0


@pytest.mark.parametrize("scale", [1e6, 1e19, 1e20, 1e21])
def test_integrate_refuses_past_the_cell_limit(monkeypatch, scale):
    # W = 1.5*scale rad, past MAX_CELLS (about 1e5 rad): a typed refusal
    # before any cell is laid out or evaluated.  At 1e20 and 1e21 an int64
    # cell count wraps, which once skipped a cap or sized a negative array.
    def never(*args):
        raise AssertionError("no cell may be evaluated past MAX_CELLS")

    monkeypatch.setattr(quadrature, "_eval_cells", never)
    with pytest.raises(ResolutionLimitError, match="MAX_CELLS = 16384") as err:
        integrate(BUMP, lambda v: scale * v, BAND)
    assert isinstance(err.value, QuadratureError)


def test_seed_cells_limit_is_inclusive():
    # a linear phase of 126.5 turns per coarse segment seeds 128 * 128 =
    # MAX_CELLS cells (W = 1.02e5 rad); 127.5 turns would seed 16,512
    step = (BAND[1] - BAND[0]) / 128
    at, past = (lambda v, c=2.0 * np.pi * turns / step: c * v for turns in (126.5, 127.5))
    assert len(quadrature._seed_cells(at, *BAND)) == quadrature.MAX_CELLS + 1
    with pytest.raises(ResolutionLimitError, match="needs 16512 starting cells"):
        integrate(BUMP, past, BAND)


def _seed_cells_loop(phase, a, b, n_coarse=129):
    """Reference for ``quadrature._seed_cells``: its cells, one segment at a
    time, or None past ``MAX_CELLS``."""
    xs = np.linspace(a, b, n_coarse)
    dph = np.abs(np.diff(np.asarray(phase(xs), dtype=float)))
    counts = np.ceil(dph / (2.0 * np.pi)).astype(int) + 1
    if counts.sum() > quadrature.MAX_CELLS:
        return None
    edges = [a]
    for i, c in enumerate(counts):
        step = (xs[i + 1] - xs[i]) / c
        edges.extend(xs[i] + step * np.arange(1, c + 1))
    edges = np.asarray(edges)
    edges[-1] = b
    return edges


def _assert_seeding_matches_loop(phase, a, b):
    reference = _seed_cells_loop(phase, a, b)
    if reference is None:
        with pytest.raises(ResolutionLimitError, match="MAX_CELLS"):
            quadrature._seed_cells(phase, a, b)
        return None
    edges = quadrature._seed_cells(phase, a, b)
    assert np.array_equal(edges, reference)
    assert edges[0] == a and edges[-1] == b
    assert np.all(np.diff(edges) > 0)
    return edges


def test_seed_cells_zero_phase_is_one_cell_per_segment():
    edges = _assert_seeding_matches_loop(_zero_phase, *BAND)
    assert len(edges) == 129


@settings(max_examples=200, deadline=None)
@given(P=st.floats(-1e5, 1e5), T=st.floats(-1e5, 1e5), m=st.floats(0.1, 0.9))
def test_seed_cells_matches_the_segment_loop(P, T, m):
    # W = |P|*1.5 + |T|*(2^m - 0.5^m) reaches past MAX_CELLS (about 1e5 rad),
    # so refusals are drawn too
    _assert_seeding_matches_loop(lambda v: P * v + T * np.abs(v) ** m, *BAND)


@pytest.mark.parametrize("height", [1e3, 1e5])
def test_seed_cells_phase_change_in_one_segment(height):
    # almost all of the phase variation inside one coarse segment; at the
    # larger height the counts pass MAX_CELLS and the seeding refuses
    h = (BAND[1] - BAND[0]) / 128
    centre = BAND[0] + 77.3 * h

    def phase(v):
        return height * np.arctan((np.asarray(v) - centre) / (1e-3 * h))

    dph = np.abs(np.diff(phase(np.linspace(*BAND, 129))))
    assert dph.max() > 0.99 * dph.sum()
    edges = _assert_seeding_matches_loop(phase, *BAND)
    cells = int((np.ceil(dph / (2.0 * np.pi)) + 1).sum())
    if height < 1e4:
        assert len(edges) - 1 == cells <= quadrature.MAX_CELLS
    else:
        assert cells > quadrature.MAX_CELLS and edges is None


def test_simpson_weights_structure():
    w = simpson_weights(5)
    assert np.allclose(w, np.array([1, 4, 2, 4, 1]) / 3.0)
    with pytest.raises(ValueError):
        simpson_weights(4)


def test_oracle_even_node_count_is_bumped_to_odd():
    even = oracle_integrate(BUMP, _zero_phase, BAND, node_count=1000)
    odd = oracle_integrate(BUMP, _zero_phase, BAND, node_count=1001)
    assert even == odd


def test_oracle_evaluates_each_amplitude_once():
    # a sweep of phases against one amplitude, interval and node count
    # evaluates the amplitude once; any other key evaluates it afresh
    sizes = []

    def counted(v):
        sizes.append(len(v))
        return BUMP(v)

    phases = [lambda v, p=p: p * v for p in (0.0, 3.0, -70.0)]
    values = [oracle_integrate(counted, ph, BAND, node_count=2001) for ph in phases]
    assert sizes == [2001]
    v = np.linspace(*BAND, 2001)
    h = (BAND[1] - BAND[0]) / 2000
    for ph, value in zip(phases, values):
        plain = h * np.sum(simpson_weights(2001) * BUMP(v) * np.exp(1j * ph(v)))
        assert abs(value - plain) <= 1e-15
    oracle_integrate(counted, phases[1], BAND, node_count=4001)
    oracle_integrate(counted, phases[1], (0.75, 2.0), node_count=4001)
    oracle_integrate(BUMP_SQUARED, phases[1], (0.75, 2.0), node_count=4001)
    assert sizes == [2001, 4001, 4001]
    assert oracle_integrate(counted, phases[1], (0.75, 2.0), node_count=4001) != (
        oracle_integrate(BUMP_SQUARED, phases[1], (0.75, 2.0), node_count=4001))


def test_batch_rule_matches_oracle_across_scales():
    rng = np.random.default_rng(3)
    n = 50
    lam = 2.0 ** rng.uniform(2, 12, size=n)
    P = rng.uniform(-1.0, 1.0, size=n) * lam
    T = rng.uniform(-1.0, 1.0, size=n) * np.sqrt(lam)
    m = 0.5
    vals = two_phase_batch(P, T, lambda v: v, lambda v: v ** m, BUMP, BAND)
    W = np.abs(P) * (BAND[1] - BAND[0]) + np.abs(T) * (BAND[1] ** m - BAND[0] ** m)
    for i in range(n):
        phase = lambda v, i=i: P[i] * v + T[i] * v ** m
        ref = oracle_integrate(BUMP, phase, BAND, node_count=int(16 * W[i]) + 10001)
        assert abs(vals[i] - ref) <= 1e-12 * (BAND[1] - BAND[0])


@pytest.mark.parametrize("family", sorted(experiments._FAMILIES))
def test_batch_rule_matches_oracle_on_cli_families(family):
    # the band integrals of `propagate --family ...` at the CLI defaults
    # (m = 0.5, kappa = theta = 1) for lambda = 2^4..2^12, at six (x, t)
    # points each, wherever W <= 1e4 rad; the oracle runs 16 Simpson nodes
    # per radian, far past the trapezoid rule's one
    x, t = (g.ravel() for g in np.meshgrid([-0.7, 0.0, 0.6], [0.25, 0.9]))
    checked = 0
    for lam in 2.0 ** np.arange(4, 13):
        cfg = RunConfig(lam=float(lam))
        datum = experiments._FAMILIES[family](cfg)
        L_of, S_of = datum.band_maps(cfg.m)
        P, T = x + datum.linear_phase, t + datum.fractional_phase
        W = (np.abs(P) * abs(L_of(BAND[1]) - L_of(BAND[0]))
             + np.abs(T) * abs(S_of(BAND[1]) - S_of(BAND[0])))
        keep = W <= 1e4
        P, T, W = P[keep], T[keep], W[keep]
        vals = two_phase_batch(P, T, L_of, S_of, BUMP, BAND)
        for i in range(len(P)):
            phase = lambda v, i=i: P[i] * L_of(v) + T[i] * S_of(v)
            ref = oracle_integrate(BUMP, phase, BAND, node_count=int(16 * W[i]) + 10001)
            assert abs(vals[i] - ref) <= 1e-12 * (BAND[1] - BAND[0])
        checked += len(P)
    assert checked >= 18


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batch_rule_refuses_non_finite_coefficients(monkeypatch, bad):
    def never(*args):
        raise AssertionError("no rule may be sized for a non-finite coefficient")

    monkeypatch.setattr(quadrature, "_batch_rule", never)
    linear = lambda v: v
    good = np.array([1.0, 2.0, 3.0])
    for P, T, shift in ((np.array([1.0, bad, 3.0]), good, 0.0),              # flat
                        (good, np.array([0.5, 0.5, bad]), 0.0),
                        (good, good, np.array([0.0, bad, 0.0])),
                        (np.array([[1.0], [bad]]), np.zeros((1, 3)), 0.0),   # mesh
                        (good[:, None], np.array([[0.0, bad]]), 0.0),
                        (good[:, None], np.zeros((1, 3)), np.array([[0.0, 0.0, bad]]))):
        with pytest.raises(InvalidIntegrandError, match="finite"):
            two_phase_batch(P, T, linear, linear, BUMP, BAND, shift)


def test_batch_rule_refuses_past_node_limit(monkeypatch):
    # W = 1.5 * |P| on the band with T = 0: 3000 rad needs 3001 nodes
    monkeypatch.setattr(quadrature, "N_MAX", 1025)
    linear = lambda v: v
    for P, T in ((np.array([10.0, 2000.0]), np.zeros(2)),
                 (np.array([[10.0], [2000.0]]), np.zeros((1, 3)))):
        with pytest.raises(ResolutionLimitError, match=r"W = 3000 rad.*N_MAX = 1025"):
            two_phase_batch(P, T, linear, linear, BUMP, BAND)


def test_batch_rule_runs_just_under_node_limit(monkeypatch):
    # W = 1024.5 rad needs 1025 nodes: exactly the patched limit
    P = np.array([1.0, 1024.5 / 1.5])
    linear = lambda v: v
    flat = two_phase_batch(P, np.zeros(2), linear, linear, BUMP, BAND)
    mesh = two_phase_batch(P[:, None], np.zeros((1, 3)), linear, linear, BUMP, BAND)
    monkeypatch.setattr(quadrature, "N_MAX", 1025)
    assert np.array_equal(two_phase_batch(P, np.zeros(2), linear, linear, BUMP, BAND),
                          flat)
    assert np.array_equal(two_phase_batch(P[:, None], np.zeros((1, 3)), linear,
                                          linear, BUMP, BAND), mesh)


def test_cli_exits_2_past_node_limit(tmp_path, capsys, monkeypatch):
    argv = ["sharpness-vertical", "--data", "temporal", "--x-cells", "5",
            "--t-base", "33", "--lam-count", "5", "--out-dir", str(tmp_path)]
    widths = []
    batch_rule = quadrature._batch_rule

    def spy(w_max, *args):
        widths.append(w_max)
        return batch_rule(w_max, *args)

    monkeypatch.setattr(quadrature, "_batch_rule", spy)
    assert cli_main(argv) in (0, 1)
    monkeypatch.undo()
    capsys.readouterr()
    for path in tmp_path.iterdir():
        path.unlink()
    # the largest odd node count below the run's widest rule, above the floor
    limit = (int(np.ceil(max(widths))) | 1) - 2
    assert limit > quadrature.N_MIN
    monkeypatch.setattr(quadrature, "N_MAX", limit)
    assert cli_main(argv) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ResolutionLimitError"
    assert f"N_MAX = {limit}" in record["error"]["message"]
    assert not list(tmp_path.iterdir())


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


def test_batch_rule_column_shift():
    # shift = 0 changes no bit on either route; a mesh with a column shift
    # (150 x 64 points: three row groups) matches the flat route on P + shift
    rng = np.random.default_rng(17)
    r, c, m = 150, 64, 0.5
    L_of, S_of = (lambda v: v), (lambda v: v ** m)
    P = rng.uniform(-300.0, 300.0, r)
    T = rng.uniform(0.0, 20.0, c)
    shift = rng.uniform(-200.0, 200.0, c)
    for Pm, Tm, zero in ((P[:, None], T[None, :], np.zeros((1, c))),
                         (np.repeat(P, c), np.tile(T, r), np.zeros(r * c))):
        plain = two_phase_batch(Pm, Tm, L_of, S_of, BUMP, BAND)
        for z in (0.0, zero):
            assert np.array_equal(two_phase_batch(Pm, Tm, L_of, S_of, BUMP, BAND, z),
                                  plain)
    mesh = two_phase_batch(P[:, None], T[None, :], L_of, S_of, BUMP, BAND, shift[None, :])
    flat = two_phase_batch((P[:, None] + shift).ravel(), np.tile(T, r), L_of, S_of,
                           BUMP, BAND).reshape(r, c)
    assert mesh.shape == (r, c)
    assert np.abs(mesh - flat).max() <= 1e-12 * (BAND[1] - BAND[0])


def test_batch_work_counts_what_the_routes_build(monkeypatch):
    # 6 rows x 3000 columns: every row is its own group (3000 > BUCKET / 2),
    # and the rows' |P| give five node counts, the first two rows sharing one
    # rule and one column factor.  The mesh count is the exponentials built
    # plus the contraction's multiply-adds at CONTRACT_WEIGHT; the flat count
    # is the exponentials its buckets build.
    built = {"col": 0, "row": 0}
    unit_phase = quadrature._unit_phase

    def spy(coeffs, profile, *rest):
        out = unit_phase(coeffs, profile, *rest)
        built["col" if rest else "row"] += out.size
        return out

    L_of, S_of = (lambda v: v), (lambda v: v ** 0.5)
    P = np.array([0.0, 10.0, 300.0, 310.0, 600.0, 900.0])[:, None]
    T, shift = np.linspace(0.0, 5.0, 3000)[None], np.linspace(-1.0, 1.0, 3000)[None]
    monkeypatch.setattr(quadrature, "_unit_phase", spy)
    two_phase_batch(P, T, L_of, S_of, BUMP, BAND, shift)
    assert len(set(quadrature._rule_nodes(np.abs(P.ravel()) * 1.5 + 5.0))) == 5
    assert quadrature.batch_work(P, T, L_of, S_of, BAND, shift) == pytest.approx(
        built["col"] + built["row"] * (1 + quadrature.CONTRACT_WEIGHT * T.size), rel=1e-12)
    flat = np.broadcast_arrays(P + shift[:, ::60], T[:, ::60])
    built.update(col=0, row=0)
    two_phase_batch(*flat, L_of, S_of, BUMP, BAND)
    work = quadrature.batch_work(*flat, L_of, S_of, BAND)
    assert built["row"] == 0 and work == built["col"]
    # more than each point's own rule: buckets share their largest point's rule
    span_s = 2.0 ** 0.5 - 0.5 ** 0.5
    own = quadrature._rule_nodes(np.abs(flat[0]) * 1.5 + np.abs(flat[1]) * span_s)
    assert work > own.sum()


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

    def spy(coeffs, profile, *rest):
        if coeffs.shape[1] == 1:
            row_factors.append(coeffs.ravel().copy())
        return unit_phase(coeffs, profile, *rest)

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


def test_mesh_builds_one_e_col_per_node_count(monkeypatch):
    # A vertical rung of 121 positions x 257 times goes into groups of
    # BUCKET // 257 rows by |P|.  Near x = 0 several groups get the node
    # floor; groups with one node count must share one column factor E_col.
    expected, e_cols, groups = [0], [0], [0]
    mesh_batch, unit_phase = quadrature._mesh_batch, quadrature._unit_phase

    def mesh_spy(P, T, shift, runs, L_of, S_of, amplitude, a, b):
        spanL, spanS = (np.ptp(f(np.array([a, b]))) for f in (L_of, S_of))
        order = np.argsort(np.abs(P.ravel()), kind="stable")
        per_group = quadrature.BUCKET // T.size
        widths = [np.abs(P.ravel()[order[i:i + per_group]]).max() * spanL
                  + np.abs(T).max() * spanS for i in range(0, P.size, per_group)]
        nodes = {max(quadrature.N_MIN, int(np.ceil(w)) | 1) for w in widths}
        assert max(nodes) * (per_group + T.size) <= quadrature.CHUNK_ELEMS  # one block
        expected[0] += len(nodes)
        groups[0] += len(widths)
        return mesh_batch(P, T, shift, runs, L_of, S_of, amplitude, a, b)

    def unit_spy(coeffs, profile, *rest):
        if coeffs.ndim == 2 and coeffs.shape[0] == 1 and coeffs.shape[1] > 1:
            e_cols[0] += 1
        return unit_phase(coeffs, profile, *rest)

    monkeypatch.setattr(quadrature, "_mesh_batch", mesh_spy)
    monkeypatch.setattr(quadrature, "_unit_phase", unit_spy)
    xs = np.geomspace(1e-6, 1.0, 121)
    maximal_in_time(knapp_vertical_spatial(2.0 ** 10), 0.5, Curve.vertical(), xs,
                    GridSpec(t_base=257), extra_t=np.zeros((121, 1)))
    assert groups[0] == 9 and 1 < expected[0] < groups[0]
    assert e_cols[0] == expected[0]


def test_flat_buckets_stay_within_twice_each_rule(monkeypatch):
    # 600 flat points with W spread over 1e2..1e4 rad, shuffled: a bucket ends
    # before its rule passes twice its first point's node count, so every
    # point gets at least its own node count and at most twice it, and its
    # value is that of a call on the point alone up to that rule's error (up
    # to 2.5e-13 here, for points with W close to their own node count)
    rng = np.random.default_rng(5)
    m, n = 0.5, 600
    L_of, S_of = (lambda v: v), (lambda v: v ** m)
    span_l, span_s = (float(np.ptp(f(np.array(BAND)))) for f in (L_of, S_of))
    W = rng.permutation(np.geomspace(1e2, 1e4, n))
    share = rng.uniform(0.0, 1.0, n)
    P = share * W / span_l * rng.choice([-1.0, 1.0], n)
    T = (1.0 - share) * W / span_s
    W = np.abs(P) * span_l + np.abs(T) * span_s
    widths = []
    batch_rule = quadrature._batch_rule

    def spy(w_max, *args):
        widths.append(w_max)
        return batch_rule(w_max, *args)

    monkeypatch.setattr(quadrature, "_batch_rule", spy)
    values = two_phase_batch(P, T, L_of, S_of, BUMP, BAND)
    monkeypatch.undo()
    assert len(widths) > 1 and np.all(np.diff(widths) > 0)
    nodes = quadrature._rule_nodes(np.array(widths))[np.searchsorted(widths, W)]
    own = quadrature._rule_nodes(W)
    assert np.all(own <= nodes) and np.all(nodes <= 2 * own)
    alone = [two_phase_batch(p, t, L_of, S_of, BUMP, BAND) for p, t in zip(P, T)]
    assert np.abs(values - np.array(alone)).max() <= 1e-12


def test_flat_blocks_hold_peak_memory_and_values(monkeypatch):
    # one flat call of 4,096 points with W in 1.3e3..2e3 rad: one rule of up
    # to 2,001 nodes.  In blocks of FLAT_CHUNK_ELEMS the temporaries stay a
    # few MB (one 2^23-element block held all 4,096 rows, about 124 MB), and
    # since each row is summed on its own the values keep every bit
    rng = np.random.default_rng(17)
    m, n = 0.5, 4096
    L_of, S_of = (lambda v: v), (lambda v: v ** m)
    span_l, span_s = (float(np.ptp(f(np.array(BAND)))) for f in (L_of, S_of))
    W = rng.uniform(1.3e3, 2e3, n)
    share = rng.uniform(0.0, 1.0, n)
    P = share * W / span_l * rng.choice([-1.0, 1.0], n)
    T = (1.0 - share) * W / span_s
    tracemalloc.start()
    try:
        values = two_phase_batch(P, T, L_of, S_of, BUMP, BAND)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    monkeypatch.setattr(quadrature, "FLAT_CHUNK_ELEMS", 2 ** 23)
    assert np.array_equal(two_phase_batch(P, T, L_of, S_of, BUMP, BAND), values)


def test_batch_rule_rejects_shapes_that_do_not_broadcast():
    with pytest.raises(ValueError, match="broadcast"):
        two_phase_batch(np.zeros(3), np.zeros(4), lambda v: v, lambda v: v,
                        BUMP, BAND)
    with pytest.raises(ValueError, match="broadcast"):
        two_phase_batch(np.zeros((3, 1)), np.zeros((2, 4)), lambda v: v,
                        lambda v: v, BUMP, BAND)
