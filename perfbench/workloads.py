"""Workload definitions: inputs, timed operations, output checks.

A ladder workload is a list of CLI invocations run in-process through
``cli.main``; a pass runs each once.  The ``pointwise`` workload is a list of
library ``spectral.propagate`` calls; a pass makes each once.  Every pass of
a run repeats the same operations, and the operations do not depend on the
seed: it only orders them and picks the oracle subsample, so that runs with
different seeds and commits with different speeds time the same work.  One
operation is one CLI run or one ``propagate`` call, and it fails if it
raises, exits non-zero or fails its correctness check.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

from tracer import batch_radians

M = 0.5                       # CLI default dispersion exponent
LAMBDAS = tuple(2.0 ** e for e in range(4, 13))
FAMILIES = ("band", "spatial-knapp", "temporal-knapp", "curve-knapp", "cantor")
POINTS_PER_COMBO = 4          # (x, t) points per family and lambda
# Fewest and most timed passes per run.  Passes last a few seconds, so a
# run's median pass shrugs off the bursts of a shared machine.
FEWEST_PASSES, MOST_PASSES = 3, 8
JITTER_SEED = 0               # sharpness-vertical cell jitter, as recorded
LADDER_REL_TOL = 1e-10        # ROADMAP allowance for moved acceptance numbers
ORACLE_REL_TOL = 1e-6         # acceptance criterion 02
ORACLE_MAX_RADIANS = 1.0e4    # >= 100 oracle nodes per radian of phase variation
ORACLE_PER_FAMILY = 4         # oracle checks per family and run

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


# --------------------------------------------------------------------------
# inputs


def ladder_ops(workload, seed):
    """CLI argument lists of one pass, without ``--out-dir``.

    kernel-scan stops at lambda=2^8, vertical-ladder uses 31 cells instead of
    121 and lines-screened runs three of the (m, r) pairs at Cantor depth 8
    only (whose ladder holds levels 1..8), so that a pass takes seconds
    rather than tens of seconds and a run repeats it several times.  The
    cell jitter of vertical-ladder is fixed; the seed only orders the
    lines-screened runs.
    """
    if workload == "kernel-scan":
        return [["kernel-envelope", "--variant", v, "--lam-count", "5"]
                for v in ("vertical", "curve")]
    if workload == "vertical-ladder":
        return [["sharpness-vertical", "--x-cells", "31",
                 "--seed", str(JITTER_SEED)]]
    if workload == "lines-screened":
        ops = [["sharpness-lines", "--s", "0.3", "--m", m, "--r", r, "--k", "8"]
               for m, r in (("0.3", "0.25"), ("0.5", "0.2"), ("0.5", "0.3"))]
        order = np.random.default_rng(seed).permutation(len(ops))
        return [ops[i] for i in order]
    raise ValueError(f"not a ladder workload: {workload!r}")


def make_datum(pkg, family, lam):
    """The CLI ``propagate`` family at scale lam (m, kappa, theta at defaults)."""
    if family == "band":
        return pkg.FourierDatum()
    if family == "spatial-knapp":
        return pkg.knapp_vertical_spatial(lam)
    if family == "temporal-knapp":
        return pkg.knapp_vertical_temporal(lam, M)
    if family == "curve-knapp":
        return pkg.knapp_curve(lam, M, 1.0, 1.0)
    if family == "cantor":
        return pkg.cantor_data(lam, M)
    raise ValueError(f"unknown family {family!r}")


# R2 low-discrepancy sequence (Roberts 2018): additive recurrence by the
# inverse powers of the plastic number.
_PLASTIC = 1.32471795724474602596
_R2 = np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC ** 2])


def pointwise_calls(pkg, seed):
    """(family, lam, datum, x, t) per call of a pass, in seeded order.

    Every family and scale gets the same POINTS_PER_COMBO points of the R2
    sequence over [-1, 1] x [0, 1], so the calls, and with them the share of
    slow and failing ones, are the same for every seed.
    """
    u = (0.5 + np.arange(1, POINTS_PER_COMBO + 1)[:, None] * _R2) % 1.0
    points = [(float(2.0 * x - 1.0), float(t)) for x, t in u]
    calls = [(family, lam, make_datum(pkg, family, lam), x, t)
             for family in FAMILIES for lam in LAMBDAS for x, t in points]
    order = np.random.default_rng(seed).permutation(len(calls))
    return [calls[i] for i in order]


def make_inputs(pkg, workload, seed):
    """The operations of one pass; every pass of a run repeats them."""
    if workload == "pointwise":
        return pointwise_calls(pkg, seed)
    return ladder_ops(workload, seed)


# --------------------------------------------------------------------------
# timed passes


def run_ladder_pass(cli, ops, out_root, clock=time.perf_counter):
    """Run each CLI op once; returns per-op records (``clock`` time in ``seconds``)."""
    records = []
    for i, argv in enumerate(ops):
        out_dir = os.path.join(out_root, f"op{i:02d}")
        sink = io.StringIO()
        error = None
        start = clock()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv + ["--out-dir", out_dir])
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = clock() - start
        records.append({"argv": argv, "out_dir": out_dir, "seconds": seconds,
                        "code": code, "stdout": sink.getvalue(), "error": error})
    return records


def run_pointwise_pass(spectral, calls, clock=time.perf_counter):
    """One propagate call per input; failures are kept, not skipped."""
    records = []
    for family, lam, datum, x, t in calls:
        error = None
        value = None
        start = clock()
        try:
            value = spectral.propagate(datum, M, x, t)
        except Exception as exc:  # counted per family and scale
            error = type(exc).__name__
        seconds = clock() - start
        records.append({"seconds": seconds, "value": value, "error": error})
    return records


# --------------------------------------------------------------------------
# correctness


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def ladder_summary(report):
    """The numbers a ladder reference pins: every points row and the slope."""
    return {"points": report["points"], "slope": report["slope"],
            "pass": report["pass"]}


def _close(a, b, rel):
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= rel * max(abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y, rel) for x, y in zip(a, b))
    return a == b


def check_ladder_op(record, references):
    """None when the op passed and matches its reference, else the reason."""
    if record["error"] is not None:
        return record["error"]
    if record["code"] != 0 or "PASS" not in record["stdout"]:
        return f"exit code {record['code']}: {record['stdout'].strip()}"
    name = record["argv"][0]
    path = os.path.join(record["out_dir"], name + ".json")
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"unreadable report {path}: {exc}"
    key = " ".join(record["argv"])
    if key not in references:
        return f"no reference for {key!r}"
    if not _close(ladder_summary(report), references[key], LADDER_REL_TOL):
        return f"report differs from reference for {key!r}"
    return None


def phase_radians(datum, x, t):
    """Phase-variation bound W of one propagate call in the band coordinate."""
    linear, power = datum.band_maps(M)
    return batch_radians([x + datum.linear_phase], [t + datum.fractional_phase],
                         linear, power, (0.5, 2.0))[1]


def oracle_check(spectral, calls, records, seed):
    """Compare a seeded subsample of successful values with the dense oracle.

    ``calls`` and ``records`` are parallel lists over one pass.  Only calls
    whose phase variation W the oracle's grid resolves with a wide margin
    are eligible.  Returns (set of indices that disagree, indices checked).
    """
    rng = np.random.default_rng([seed, 1 << 20])
    chosen = []
    for family in FAMILIES:
        eligible = [i for i, (fam, _, datum, x, t) in enumerate(calls)
                    if fam == family and records[i]["error"] is None
                    and phase_radians(datum, x, t) <= ORACLE_MAX_RADIANS]
        take = min(ORACLE_PER_FAMILY, len(eligible))
        chosen.extend(int(i) for i in rng.choice(eligible, size=take, replace=False))
    bad = set()
    for i in sorted(chosen):
        _, _, datum, x, t = calls[i]
        fast = records[i]["value"]
        slow = spectral.propagate(datum, M, x, t, method="oracle")
        scale = abs(datum.amplitude) / (2.0 * math.pi * abs(datum.scale))
        if not abs(fast - slow) <= ORACLE_REL_TOL * (scale + abs(slow)):
            bad.add(i)
    return bad, sorted(chosen)
