"""Benchmark for concave_phase_lab: four workloads, end-to-end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload kernel-scan --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

* ``kernel-scan``     -- ``kernel-envelope`` for both variants up to lambda=2^8;
* ``vertical-ladder`` -- ``sharpness-vertical`` on 31 cells, fixed jitter;
* ``lines-screened``  -- three ``sharpness-lines`` runs at Cantor depth 8;
* ``pointwise``       -- a fixed set of library ``propagate`` calls.

The package is imported from ``src/`` next to this directory and driven only
through ``cli.main`` and ``spectral.propagate``.  One process runs the
workload with ``CPL_THREADS`` unset and BLAS thread variables as found.  A
run makes a warm-up pass and a few timed passes over the workload's
operations, and more while the next one fits in ``--seconds``.  Every pass
repeats the same operations, and the seed only orders them (and picks the
oracle subsample), so every run times the same work.

Times of passes and operations are CPU seconds at a reference host speed
(``speed.py``): the shared host's speed swings by up to a factor of two, so
each pass measures it as it goes and is scaled by it.  ``norm_cpu_s`` is the
median pass; the raw wall and CPU times of every pass are in the ``record``
line.  An operation's latency is its median over the passes;
``value_p50_ms`` is the median of these over the operations and
``value_tail_ms`` the tail rule of ``stats.tail`` over them.  On the ladder
workloads, with at most three operations, the tail is the slowest operation.
``setup_s`` is the median over several fresh interpreters of the main
thread's CPU time, at the reference speed, until the package is imported and the inputs are
generated; their raw wall times are in the ``record`` line.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` the run makes a warm-up pass, one untraced and one traced
pass, and the last line holds the per-layer metrics; the traced pass must
leave byte-identical reports (bit-identical values for ``pointwise``).

Correctness: every ladder run must exit 0 with PASS and match the reference
report recorded in ``references.json`` within 1e-10 relative; a seeded
subsample of successful ``pointwise`` values must match the dense oracle to
1e-6 where the oracle resolves the phase.  A ``propagate`` call that raises
``ToleranceNotMetError`` (the adaptive engine's limit, met on temporal-Knapp
and Cantor data at large scales) counts as a failed operation; it is a
refusal, not a wrong value, so it leaves ``correct`` true.  Any other
exception or failed check also makes ``correct`` false.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import stats  # noqa: E402
import workloads  # noqa: E402
import speed  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SETUP_PROBES = 9
SETUP_SPEED_PROBES = 10   # host-speed probes right after each set-up
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout does not hold the package the benchmark drives."""


def load_package():
    """Import concave_phase_lab from ``src/`` of this checkout, nowhere else."""
    init = os.path.join(SRC, "concave_phase_lab", "__init__.py")
    if not os.path.isfile(init):
        raise SetupError(f"package source not found: {init}")
    sys.path.insert(0, SRC)
    import concave_phase_lab as pkg
    from concave_phase_lab import cli, experiments, maximal, phase, spectral
    if os.path.abspath(pkg.__file__) != init:
        raise SetupError(f"imported {pkg.__file__}, expected {init}")
    modules = {"cli": cli, "experiments": experiments, "maximal": maximal,
               "phase": phase, "spectral": spectral}
    return pkg, modules


def setup_probe(workload, seed, spawned):
    """Body of one set-up measurement in a fresh interpreter.

    ``spawned`` is the parent's ``time.monotonic()`` just before it started
    this process; the monotonic clock is shared by all processes.
    """
    pkg, _ = load_package()
    workloads.make_inputs(pkg, workload, seed)
    # the main thread's CPU time since the interpreter started; numpy's BLAS
    # threads spin while it imports, and their time is not on the way to ready
    cpu = time.thread_time()
    wall = time.monotonic() - spawned
    costs = [speed.timed_probe() for _ in range(SETUP_SPEED_PROBES)]
    print(json.dumps({"setup_s": cpu * speed.factor(costs), "wall_s": wall}),
          flush=True)


def measure_setup(workload, seed):
    """Set-up samples: seconds from process start to package imported and
    inputs generated, as reference-speed CPU time and as wall time."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--setup-probe", repr(time.monotonic())]
        probe = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=120)
        if probe.returncode != 0:
            raise SetupError(f"set-up probe exited with {probe.returncode}")
        if i:  # the first probe warms the byte-code and file caches
            samples.append(json.loads(probe.stdout))
    return samples


def environment(seed, cpl_threads):
    """What a result needs to be compared with another one."""
    import numpy
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = None
    src_lines = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "git_revision": revision,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "CPL_THREADS": cpl_threads,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARS},
        "seed": seed,
        "src_lines": src_lines,
    }


def timed_passes(run_pass, seconds, fewest, most, warmup=0, probe=SpeedProbe):
    """Make ``fewest`` passes, then more while the next one fits in ``seconds``.

    The first ``warmup`` passes come on top of these and count toward
    ``seconds``, but are not returned.  ``run_pass(index, clock)`` times its
    operations with ``clock``, CPU time less the probes'; each pass's
    ``norm_cpu_s`` and operation times are scaled to the reference speed.
    """
    passes = []
    fewest, most = fewest + warmup, most + warmup
    start = time.perf_counter()
    while len(passes) < most:
        t0 = time.perf_counter()
        with probe() as speed:
            cpu0 = speed.clock()
            records = run_pass(len(passes), speed.clock)
            cpu = speed.clock() - cpu0
        wall = time.perf_counter() - t0
        scale = speed.factor()
        for record in records:
            record["seconds"] *= scale
        passes.append({"wall_s": wall, "cpu_s": cpu, "speed_factor": scale,
                       "probes": len(speed.probes), "norm_cpu_s": cpu * scale,
                       "records": records})
        if len(passes) >= fewest and time.perf_counter() - start + wall > seconds:
            break
    return passes[warmup:]


def latency_ms(passes):
    """Median and tail, in ms, of per-operation latencies.

    An operation's latency is its median time over the passes in which it
    returned without raising; operations that never did are left out unless
    none did.  Each operation is one sample, so different operations are not
    pooled as repeats of one, and the sample count does not depend on the
    number of passes.
    """
    per_op = list(zip(*(p["records"] for p in passes)))
    done = [[r["seconds"] * 1e3 for r in op if r["error"] is None] for op in per_op]
    latencies = [statistics.median(t) for t in done if t] or [
        statistics.median(r["seconds"] * 1e3 for r in op) for op in per_op]
    value, pct, n, beyond = stats.tail(latencies)
    return statistics.median(latencies), {"value": value, "percentile": pct,
                                          "samples": n, "beyond": beyond}


def report_files(out_root):
    """Relative path -> bytes of every report under ``out_root``."""
    files = {}
    for base, _, names in os.walk(out_root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out_root)] = fh.read()
    return files


class Run:
    """One benchmark invocation: passes, checks and the numbers they give."""

    def __init__(self, args, pkg, modules):
        self.args = args
        self.modules = modules
        self.workload = args.workload
        self.ladder = args.workload != "pointwise"
        self.inputs = workloads.make_inputs(pkg, args.workload, args.seed)
        self.work_dir = os.path.join(ROOT, ".perfbench", args.workload)
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)
        self.problems = []      # wrong outputs: these make ``correct`` false
        self.failures = {}      # failed operations by reason
        self.attempted = 0
        self.failed = 0
        self.detail = {}

    def run_pass(self, index, clock=time.perf_counter):
        if self.ladder:
            out_root = os.path.join(self.work_dir, f"pass{index}")
            return workloads.run_ladder_pass(self.modules["cli"], self.inputs,
                                             out_root, clock)
        return workloads.run_pointwise_pass(self.modules["spectral"], self.inputs,
                                            clock)

    def fail(self, reason, wrong):
        self.failed += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1
        if wrong:
            self.problems.append(reason)

    def check(self, passes):
        """Count attempted and failed operations over the untraced passes."""
        if self.ladder:
            references = workloads.load_references()[self.workload]
            for p in passes:
                for record in p["records"]:
                    self.attempted += 1
                    reason = workloads.check_ladder_op(record, references)
                    if reason is not None:
                        self.fail(reason, wrong=True)
            return
        first = passes[0]["records"]
        bad, checked = workloads.oracle_check(self.modules["spectral"], self.inputs,
                                              first, self.args.seed)
        by_scale = {}   # failures of one pass
        for p in passes:
            for i, ((family, lam, *_), record) in enumerate(zip(self.inputs,
                                                                p["records"])):
                self.attempted += 1
                if record["error"] is not None:
                    if p is passes[0]:
                        key = f"{family}@2^{round(math.log2(lam))}"
                        by_scale[key] = by_scale.get(key, 0) + 1
                    self.fail(f"{family}: {record['error']}",
                              wrong=record["error"] != "ToleranceNotMetError")
                elif i in bad:
                    self.fail(f"{family}: differs from oracle", wrong=True)
                elif record["value"] != first[i]["value"]:
                    self.fail(f"{family}: differs between passes", wrong=True)
        self.detail["integrate_failed_by_family_and_scale"] = by_scale
        self.detail["oracle_checked"] = len(checked)
        self.detail["oracle_unchecked"] = sum(
            r["error"] is None for r in first) - len(checked)

    def end_to_end(self, seconds):
        setup = measure_setup(self.workload, self.args.seed)
        # the first pass of a process is slower (its heap still grows), so it
        # is a warm-up
        passes = timed_passes(self.run_pass, seconds, workloads.FEWEST_PASSES,
                              workloads.MOST_PASSES, warmup=1)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.check(passes)
        p50, tail = latency_ms(passes)
        metrics = {
            "norm_cpu_s": statistics.median(p["norm_cpu_s"] for p in passes),
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "peak_rss_mb": peak_mb,
            "success_rate": 1.0 - self.failed / self.attempted,
            "value_p50_ms": p50,
            "value_tail_ms": tail["value"],
        }
        self.detail.update({
            "passes": len(passes),
            "pass_wall_s": [p["wall_s"] for p in passes],
            "pass_cpu_s": [p["cpu_s"] for p in passes],
            "pass_speed_factor": [p["speed_factor"] for p in passes],
            "pass_probes": [p["probes"] for p in passes],
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_samples_s": [s["setup_s"] for s in setup],
            "setup_wall_samples_s": [s["wall_s"] for s in setup],
            "value_tail": tail,
            "error_rate": self.failed / self.attempted,
        })
        return with_units(metrics, "end_to_end")

    def outputs(self, records):
        """What the traced pass must reproduce exactly."""
        if self.ladder:
            return report_files(os.path.join(self.work_dir, "pass0"))
        return [(r["value"], r["error"]) for r in records]

    def per_layer(self):
        # all passes write to one directory, since reports echo their out_dir;
        # the first, untimed, takes the first-run costs off the comparison
        self.run_pass(0)
        shutil.rmtree(os.path.join(self.work_dir, "pass0"), ignore_errors=True)
        cpu0, start = time.process_time(), time.perf_counter()
        untraced = self.run_pass(0)
        untraced_wall = time.perf_counter() - start
        cpu_s = time.process_time() - cpu0
        self.check([{"records": untraced}])
        expected = self.outputs(untraced)
        shutil.rmtree(os.path.join(self.work_dir, "pass0"), ignore_errors=True)
        tracer = Tracer(self.modules)
        with tracer:
            start = time.perf_counter()
            traced = self.run_pass(0)
            traced_wall = time.perf_counter() - start
        if not expected or self.outputs(traced) != expected:
            self.problems.append("traced outputs differ from untraced outputs")
        layers = layer_metrics(tracer.spans, traced_wall)
        layers["experiments.report_bytes"] = (
            sum(len(b) for b in expected.values()) if self.ladder else 0)
        layers["process.cpu_s"] = cpu_s
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        self.detail.update({"untraced_wall_s": untraced_wall,
                            "traced_wall_s": traced_wall, "spans": len(tracer.spans)})
        with open(os.path.join(self.work_dir, "spans.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps({"name": span.name, "start": span.start,
                                     "end": span.end, "self_s": span.self_s,
                                     "parent": None if span.parent is None
                                     else span.parent.name, **span.counts}) + "\n")
        return with_units(layers, "per_layer")


def with_units(values, kind):
    """The ``kind`` metrics of BENCHMARK.json, in its order, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in DECLARED[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in DECLARED["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=DECLARED["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.setup_probe is not None:
            setup_probe(args.workload, args.seed, args.setup_probe)
            return 0
        cpl_threads = os.environ.pop("CPL_THREADS", None)
        pkg, modules = load_package()
        env = environment(args.seed, cpl_threads)
        run = Run(args, pkg, modules)
        if args.trace:
            metrics = run.per_layer()
        else:
            metrics = run.end_to_end(args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, metric in metrics.items():
        print(f"{args.workload}  {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"{args.workload}  raw median pass: {run.detail['wall_s']:.6g} s wall, "
              f"{statistics.median(run.detail['pass_cpu_s']):.6g} s CPU")
        tail = run.detail["value_tail"]
        print(f"{args.workload}  value_tail_ms is p{tail['percentile']:g} of "
              f"{tail['samples']} operations, {tail['beyond']} beyond it")
        print(f"{args.workload}  error_rate = {run.detail['error_rate']:.6g} "
              f"({run.failed} of {run.attempted} operations failed)")
    why = next(w["why"] for w in DECLARED["workloads"] if w["name"] == args.workload)
    record = {"workload": args.workload, "why": why,
              "trace": args.trace, "environment": env, "detail": run.detail,
              "failures": run.failures, "problems": run.problems[:20]}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
