"""Oscillatory quadrature: nested trapezoid engine, Simpson oracle, batch rule."""
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from concave_phase_lab import experiments, quadrature
from concave_phase_lab.cli import main as cli_main
from concave_phase_lab.experiments import RunConfig
from concave_phase_lab.quadrature import (InvalidIntegrandError, QuadratureError,
                                          ResolutionLimitError, ToleranceNotMetError,
                                          integrate, oracle_integrate,
                                          simpson_weights, two_phase_batch)
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
    zero = lambda v: np.zeros_like(np.asarray(v, float))
    assert integrate(zero, lambda v: 7.0 * v, BAND) == 0.0


def test_bump_mass_against_frozen_oracle_value():
    val = integrate(BUMP, _zero_phase, BAND)
    assert abs(val.imag) < 1e-12
    assert abs(val.real - M_PSI) < 1e-10


def test_oracle_constant_unit_interval():
    one = lambda v: np.ones_like(np.asarray(v, float))
    assert abs(oracle_integrate(one, _zero_phase, (0.0, 1.0)) - 1.0) < 1e-12


def test_oracle_full_period_cancels():
    one = lambda v: np.ones_like(np.asarray(v, float))
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
    both = lambda v: 2.0 * BUMP(v) - 3.0 * BUMP_SQUARED(v)
    assert abs(integrate(both, phase, BAND) - (2.0 * f - 3.0 * g)) < 1e-9


def test_conjugation():
    phase = lambda v: 101.0 * v + 7.0 * v ** 0.3
    neg = lambda v: -phase(v)
    assert abs(integrate(BUMP, neg, BAND) - np.conj(integrate(BUMP, phase, BAND))) < 1e-10


def test_invalid_integrand_rejected():
    bad = lambda v: np.where(np.asarray(v) > 1.0, np.nan, 1.0)
    with pytest.raises(InvalidIntegrandError):
        integrate(bad, _zero_phase, BAND)


def test_tolerance_failure_carries_partial_result():
    # a jump at v = 1.1 leaves every trapezoid sum O(h) off, so successive
    # sums never agree within max(ABS_TOL, REL_TOL*|I|); when the next pass
    # would exceed N_MAX the engine refuses with its finest sum and the
    # difference from the sum before it
    step = lambda v: BUMP(v) * (np.asarray(v) < 1.1)
    with pytest.raises(ToleranceNotMetError, match="N_MAX") as err:
        integrate(step, _zero_phase, BAND)
    estimate, bound = err.value.estimate, err.value.error_bound
    assert np.isfinite(estimate.real) and np.isfinite(estimate.imag)
    assert 0 < bound < 1e-5
    ref = oracle_integrate(BUMP, _zero_phase, (BAND[0], 1.1), node_count=200_001)
    assert abs(estimate - ref) < 1e-5


@pytest.mark.parametrize("scale", [1e6, 1e19, 1e20, 1e21])
def test_integrate_refuses_past_the_cell_limit(scale):
    # W = 1.5*scale rad: the first comparison needs 2W + 1 nodes (2W cells),
    # past N_MAX from about 1.05e6 rad; a typed refusal before the amplitude
    # is evaluated.  At 1e20 and 1e21 an int64 node count would wrap.
    def never(v):
        raise AssertionError("no amplitude may be evaluated past N_MAX")

    with pytest.raises(ResolutionLimitError, match=f"N_MAX = {quadrature.N_MAX}") as err:
        integrate(never, lambda v: scale * v, BAND)
    assert isinstance(err.value, QuadratureError)


def test_integrate_node_limit_is_inclusive(monkeypatch):
    # at N_MAX = 1025, W = 512.5 rad starts on 513 nodes and compares at
    # 1025, the limit itself; W = 513.5 rad would compare at 1029
    monkeypatch.setattr(quadrature, "N_MAX", 1025)
    at, past = (lambda v, c=w / 1.5: c * v for w in (512.5, 513.5))
    ref = oracle_integrate(BUMP, at, BAND, node_count=8 * 513 + 20_001)
    assert abs(integrate(BUMP, at, BAND) - ref) <= 1e-13
    with pytest.raises(ResolutionLimitError, match="needs 1029 trapezoid nodes"):
        integrate(BUMP, past, BAND)


def test_integrate_meets_abs_tol_at_1e5_rad():
    # a linear phase of W = 1e5 rad: the bump's Fourier transform is far
    # below roundoff there, so |I| is the engine's error
    c = 1e5 / (BAND[1] - BAND[0])
    assert abs(integrate(BUMP, lambda v: c * v, BAND)) <= quadrature.ABS_TOL


@settings(derandomize=True, max_examples=100, deadline=None)
@given(P=st.floats(-1e4, 1e4), T=st.floats(-1e4, 1e4), m=st.floats(0.1, 0.9),
       v0=st.none() | st.floats(*BAND))
def test_integrate_matches_a_sized_oracle(P, T, m, v0):
    # band phases P*v + T*v^m; with v0 drawn, P puts a stationary point at
    # v0.  The oracle runs at least 8 Simpson nodes per radian of W.
    if v0 is not None:
        P = -T * m * v0 ** (m - 1.0)
        assume(abs(P) <= 1e4)
    phase = lambda v: P * v + T * v ** m
    W = abs(P) * (BAND[1] - BAND[0]) + abs(T) * (BAND[1] ** m - BAND[0] ** m)
    ref = oracle_integrate(BUMP, phase, BAND, node_count=int(8 * W) + 20_001)
    assert abs(integrate(BUMP, phase, BAND) - ref) <= 1e-13


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
    # rule and one column table.  T and shift are uniform, so each table is
    # one exponential per centre column and one step factor per node, with
    # the other columns built by multiplication.  The mesh count is the
    # exponentials built, plus TABLE_WEIGHT per multiplied column entry, plus
    # the contraction's multiply-adds at CONTRACT_WEIGHT over the columns
    # built; the flat count is the exponentials its buckets build.
    built = {"col": 0, "row": 0, "table": 0, "width": 0}
    unit_phase, powers = quadrature._unit_phase, quadrature._powers

    def spy(coeffs, profile, *rest):
        out = unit_phase(coeffs, profile, *rest)
        built["col" if rest else "row"] += out.size
        return out

    def powers_spy(x, r, h):
        out = powers(x, r, h)
        built["table"] += out.size - np.size(x)
        built["width"] = out[..., 0].size
        return out

    L_of, S_of = (lambda v: v), (lambda v: v ** 0.5)
    P = np.array([0.0, 10.0, 300.0, 310.0, 600.0, 900.0])[:, None]
    T, shift = np.linspace(0.0, 5.0, 3000)[None], np.linspace(-1.0, 1.0, 3000)[None]
    monkeypatch.setattr(quadrature, "_unit_phase", spy)
    monkeypatch.setattr(quadrature, "_powers", powers_spy)
    two_phase_batch(P, T, L_of, S_of, BUMP, BAND, shift)
    assert len(set(quadrature._rule_nodes(np.abs(P.ravel()) * 1.5 + 5.0))) == 5
    assert built["width"] >= T.size and built["table"] > 10 * built["col"]
    assert quadrature.batch_work(P, T, L_of, S_of, BAND, shift) == pytest.approx(
        built["col"] + quadrature.TABLE_WEIGHT * built["table"]
        + built["row"] * (1 + quadrature.CONTRACT_WEIGHT * built["width"]), rel=1e-12)
    flat = np.broadcast_arrays(P + shift[:, ::60], T[:, ::60])
    built.update(col=0, row=0, table=0)
    two_phase_batch(*flat, L_of, S_of, BUMP, BAND)
    work = quadrature.batch_work(*flat, L_of, S_of, BAND)
    assert built["row"] == built["table"] == 0 and work == built["col"]
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


def _einsum_mesh(rows, cols, runs, L_of, S_of, amplitude, a, b):
    """The mesh route with direct columns and an ``np.einsum`` contraction
    over each whole rule."""
    h, (T, shift), _ = cols
    assert h == 0   # random columns are not affine: every column is a centre
    T, shift = T.ravel(), shift.ravel()
    sums = np.zeros((rows.size, T.size), dtype=complex)
    for run in runs:
        v, amp_w = quadrature._batch_rule(run[-1][0], amplitude, a, b)
        L, S = L_of(v), S_of(v)
        e_col = np.exp(1j * (T[:, None] * S + shift[:, None] * L)) * amp_w
        for _, idx in run:
            sums[idx] += np.einsum("kn,cn->kc", np.exp(1j * rows[idx][:, None] * L), e_col)
    return sums


def test_mesh_dot_contraction_matches_einsum(monkeypatch):
    # Random meshes of 1 to 64 rows and columns (a single row or column takes
    # the flat route), with rules of 257 to about 4.6e4 nodes, so some sums
    # add several node blocks.  No |I| exceeds the band mass M_PSI.
    rng = np.random.default_rng(20)
    L_of, S_of = (lambda v: v), (lambda v: v ** 0.5)
    cases = []
    for _ in range(12):
        r, c = rng.integers(1, 65, 2)
        reach = 10.0 ** rng.uniform(1, 4.5)
        cases.append((rng.uniform(-reach, reach, (r, 1)), rng.uniform(0, reach, (1, c)),
                      rng.uniform(-reach, reach, (1, c))))
    dot = [two_phase_batch(P, T, L_of, S_of, BUMP, BAND, shift) for P, T, shift in cases]
    monkeypatch.setattr(quadrature, "_mesh_batch", _einsum_mesh)
    for (P, T, shift), new in zip(cases, dot):
        old = two_phase_batch(P, T, L_of, S_of, BUMP, BAND, shift)
        assert np.abs(new - old).max() <= 1e-14 * M_PSI


def _bytes_across_blas_threads(code):
    """stdout of ``code`` run with OPENBLAS_NUM_THREADS=1 and with it unset."""
    src = str(Path(quadrature.__file__).resolve().parents[1])
    base = dict(os.environ)
    base["PYTHONPATH"] = os.pathsep.join(
        [src] + ([base["PYTHONPATH"]] if base.get("PYTHONPATH") else []))
    base.pop("OPENBLAS_NUM_THREADS", None)
    outputs = []
    for blas_threads in ("1", None):
        env = dict(base)
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        outputs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True, timeout=120).stdout)
    return outputs


def test_mesh_sums_do_not_depend_on_blas_threads():
    # One 2 x 2 mesh on a rule of 21,001 nodes, which one block would hold
    # whole.  OpenBLAS splits a dot product of more than 10,000 elements
    # across threads and regroups its sum, so the mesh route caps its node
    # blocks at DOT_NODES; without the cap these bytes differ between one
    # BLAS thread and two.
    code = ("import numpy as np\n"
            "from concave_phase_lab.quadrature import _rule_nodes, two_phase_batch\n"
            "from concave_phase_lab.spectral import BUMP\n"
            "P, T = np.array([[-1.3e4], [1.4e4]]), np.array([[0.0, 10.0]])\n"
            "assert _rule_nodes(1.4e4 * 1.5 + 10.0 * (2 ** 0.5 - 0.5 ** 0.5)) > 20_000\n"
            "out = two_phase_batch(P, T, lambda v: v, lambda v: v ** 0.5, BUMP, (0.5, 2.0))\n"
            "print(out.tobytes().hex())\n")
    outputs = _bytes_across_blas_threads(code)
    assert outputs[0] and outputs[0] == outputs[1]


def test_time_only_lattice_sums_do_not_depend_on_blas_threads():
    # One time-only lattice call, two seeds of 17 t offsets each on rules of
    # about 19,500 and 21,000 nodes: its sums are dot products of each seed's
    # row against the shared columns B^b, in node blocks capped at DOT_NODES
    # as on the mesh route; without the cap these bytes differ.
    code = ("import numpy as np\n"
            "from concave_phase_lab.quadrature import _rule_nodes, lattice_batch\n"
            "from concave_phase_lab.spectral import BUMP\n"
            "P, T, b = np.array([-1.3e4, 1.4e4]), np.array([3.0, 10.0]), np.arange(-8, 9)\n"
            "assert _rule_nodes(1.3e4 * 1.5) > 19_000\n"
            "samples = (np.repeat([0, 1], 17), np.zeros(34, dtype=int), np.tile(b, 2))\n"
            "out = lattice_batch((P, T, np.zeros(2), np.full(2, -0.5)), (0.0, 0.25), samples,\n"
            "                    lambda v: v, lambda v: v ** 0.5, BUMP, (0.5, 2.0))\n"
            "print(out.tobytes().hex())\n")
    outputs = _bytes_across_blas_threads(code)
    assert outputs[0] and outputs[0] == outputs[1]


def test_time_only_lattice_sums_do_not_depend_on_the_call(monkeypatch):
    # Each seed's time-only sums, alone in a call and in one call with seeds
    # of its own rule, of two other rules and a one-sample seed that goes per
    # sample, in shuffled order: bit-identical.  Rules of 257, about 1,400
    # and about 21,000 nodes (past DOT_NODES); the first and last hold two
    # seeds each.  Seeds 0 and 3 reach |b| = 3 and the others 8, so the
    # shared table of columns is wider in the full call than alone.
    L_of, S_of = (lambda v: v), (lambda v: v ** 0.5)
    P = np.array([40.0, 45.0, 900.0, -1.4e4, -13997.0, 60.0])
    T = np.array([3.0, 2.0, 50.0, 10.0, 10.0, 1.0])
    seeds, steps = (P, T, np.zeros(6), np.full(6, -0.5)), (0.0, 0.25)
    short, long = np.r_[-3:0, 1:4], np.r_[-8:0, 1:9]
    offsets = [short, long, long, short, long, np.array([2])]
    s = np.concatenate([np.full(len(b), k) for k, b in enumerate(offsets)])
    b = np.concatenate(offsets)
    order = np.random.default_rng(31).permutation(len(s))
    s, b = s[order], b[order]
    rows, dot_sums = [], quadrature._dot_sums

    def spy(sums, groups, *rest):
        if groups[0][1] is not None:   # time-only rows carry T; mesh rows do not
            rows.append(sum(len(P) for P, _, _ in groups))
        return dot_sums(sums, groups, *rest)

    monkeypatch.setattr(quadrature, "_dot_sums", spy)
    full = quadrature.lattice_batch(seeds, steps, (s, np.zeros_like(s), b),
                                    L_of, S_of, BUMP, BAND)
    assert rows == [2, 1, 2]   # three rules tabled; seed 5 per sample
    for k in range(len(P)):
        own = s == k
        alone = quadrature.lattice_batch(
            tuple(c[k:k + 1] for c in seeds), steps,
            (np.zeros(own.sum(), dtype=int), np.zeros(own.sum(), dtype=int), b[own]),
            L_of, S_of, BUMP, BAND)
        assert alone.tobytes() == full[own].tobytes()


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
        if not rest:   # a row factor; column factors carry T*S and shift*L
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
    # floor; groups with one node count must share one column table E_col
    # per block of CHUNK_ELEMS // (first group's rows + columns built) nodes,
    # at most DOT_NODES.  The times are uniform, so each table is built by
    # recurrence: 2h + 1 > 1 columns from each centre.
    expected, tables, groups, counts, columns, inside = [0], [0], [0], [0], [], []
    mesh_batch, powers, plan_columns = (quadrature._mesh_batch, quadrature._powers,
                                        quadrature._columns)

    def columns_spy(T, shift):
        columns.append((T, shift))
        return plan_columns(T, shift)

    def mesh_spy(P, cols, runs, L_of, S_of, amplitude, a, b):
        T, shift = columns[-1]
        spanL, spanS = (np.ptp(f(np.array([a, b]))) for f in (L_of, S_of))
        order = np.argsort(np.abs(P.ravel()), kind="stable")
        per_group = quadrature.BUCKET // T.size
        widths = [np.abs(P.ravel()[order[i:i + per_group]]).max() * spanL
                  + np.abs(T).max() * spanS for i in range(0, P.size, per_group)]
        nodes = {max(quadrature.N_MIN, int(np.ceil(w)) | 1) for w in widths}
        h, centres, _ = cols
        assert np.all(shift == 0.0) and h > 0
        built = (2 * h + 1) * centres[0].size
        block = min(quadrature.DOT_NODES,
                    quadrature.CHUNK_ELEMS // (min(per_group, P.size) + built))
        expected[0] += sum(-(-n // block) for n in nodes)
        counts[0] += len(nodes)
        groups[0] += len(widths)
        inside.append(True)
        try:
            return mesh_batch(P, cols, runs, L_of, S_of, amplitude, a, b)
        finally:
            inside.clear()

    def powers_spy(x, r, h):   # refinement rounds build lattice tables too
        tables[0] += bool(inside)
        return powers(x, r, h)

    monkeypatch.setattr(quadrature, "_columns", columns_spy)
    monkeypatch.setattr(quadrature, "_mesh_batch", mesh_spy)
    monkeypatch.setattr(quadrature, "_powers", powers_spy)
    xs = np.geomspace(1e-6, 1.0, 121)
    maximal_in_time(knapp_vertical_spatial(2.0 ** 10), 0.5, Curve.vertical(), xs,
                    GridSpec(t_base=257), extra_t=np.zeros((121, 1)))
    assert groups[0] == 9 and 1 < counts[0] < groups[0] and counts[0] < expected[0]
    assert tables[0] == expected[0]


def test_mesh_blocks_hold_peak_memory(monkeypatch):
    # one mesh call of 64 rows x 4,096 columns on one rule of 2,001 nodes:
    # groups of one row, so blocks of CHUNK_ELEMS // 4,097 nodes keep E_col at
    # a few MB (a 2^23-element block held an E_col of about 130 MB)
    L_of, S_of = (lambda v: v), (lambda v: v ** 0.5)
    span_s = float(np.ptp(S_of(np.array(BAND))))
    P = np.linspace(-0.1, 0.1, 64)[:, None]
    T = np.linspace(0.0, 1999.5 / span_s, 4096)[None, :]
    assert set(quadrature._rule_nodes(np.abs(P.ravel()) * 1.5 + 1999.5)) == {2001}
    tracemalloc.start()
    try:
        values = two_phase_batch(P, T, L_of, S_of, BUMP, BAND)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (64, 4096) and np.all(np.isfinite(values))
    assert peak < 16 * 2 ** 20


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
    # to 2,001 nodes.  In blocks of CHUNK_ELEMS the temporaries stay a
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
    monkeypatch.setattr(quadrature, "CHUNK_ELEMS", 2 ** 23)
    assert np.array_equal(two_phase_batch(P, T, L_of, S_of, BUMP, BAND), values)


def test_batch_rule_rejects_shapes_that_do_not_broadcast():
    with pytest.raises(ValueError, match="broadcast"):
        two_phase_batch(np.zeros(3), np.zeros(4), lambda v: v, lambda v: v,
                        BUMP, BAND)
    with pytest.raises(ValueError, match="broadcast"):
        two_phase_batch(np.zeros((3, 1)), np.zeros((2, 4)), lambda v: v,
                        lambda v: v, BUMP, BAND)
