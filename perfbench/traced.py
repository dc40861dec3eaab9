"""Traced run: the per-layer split of one workload.

The run first times operations untraced (the baseline for the tracing
overhead and the process CPU figures), then installs the tracer and times as
many again.  On ``mc-desk`` it adds one traced 1-worker pass, which gives the
parallel efficiency and must reproduce the N-worker outputs exactly, and one
untraced operation in a child process with BLAS threading left at its
default, which shows the over-subscription that the pinned runs leave out.
Every per-operation figure is a mean over the traced operations.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import KERNELS, LAYERS, ROOT, SpanSet, Tracer

RUN = Path(__file__).resolve().with_name("run.py")


def _is(name):
    return lambda n: n == name


def _prefix(prefix):
    return lambda n: n.startswith(prefix)


_ESTIMATORS = ("inference.estimate_spike_closed_form", "inference.estimate_spike_empirical")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: SpanSet, n_ops: int, serial: SpanSet | None, workers: int):
    """Per-layer figures per traced operation, as ``name -> (value, unit)``."""

    def per(v):
        return v / n_ops

    m = {}
    m["linalg.sample_cca.s"] = (per(spans.total(_is("linalg.sample_cca"))), "s")
    m["linalg.sample_cca.calls"] = (per(spans.calls(_is("linalg.sample_cca"))), "count")
    for kind in KERNELS:
        match = _is(f"linalg.kernel.{kind}")
        m[f"linalg.kernel.{kind}.s"] = (per(spans.total(match)), "s")
        m[f"linalg.kernel.{kind}.calls"] = (per(spans.calls(match)), "count")
        m[f"linalg.kernel.{kind}.gflop"] = (per(spans.count("gflop", match)), "gflop")
    m["linalg.canonical_bases.s"] = (per(spans.total(_is("linalg.canonical_bases"))), "s")
    m["linalg.angle_between.s"] = (per(spans.total(_is("linalg.angle_between"))), "s")

    mc_s = spans.total(_is("simulate.mc_angles"))
    serial_s = serial.total(_is("simulate.mc_angles")) if serial else 0.0
    m["simulate.gen_data.s"] = (per(spans.total(_is("simulate.gen_data"))), "s")
    m["simulate.gen_data.calls"] = (per(spans.calls(_is("simulate.gen_data"))), "count")
    m["simulate.mc_angles.s"] = (per(mc_s), "s")
    m["simulate.mc_angles.serial_s"] = (serial_s, "s")
    m["simulate.reps_per_s"] = (_ratio(spans.count("replications"), mc_s), "1/s")
    m["simulate.parallel_eff"] = (_ratio(serial_s, workers * per(mc_s)), "ratio")

    m["master.master_roots.s"] = (per(spans.total(_is("master.master_roots"))), "s")
    m["master.roots"] = (per(spans.count("roots")), "count")
    m["master.master_vector_stats.s"] = (
        per(spans.total(_is("master.master_vector_stats"))), "s")

    load_s = spans.total(_is("io.load_csv"))
    m["io.load_csv.s"] = (per(load_s), "s")
    m["io.load_csv.cells_per_s"] = (_ratio(spans.count("cells"), load_s), "1/s")
    m["io.bytes_read"] = (per(spans.count("bytes_read")), "bytes")
    m["io.write.s"] = (per(spans.total(_prefix("io.write_"))), "s")
    m["io.bytes_written"] = (per(spans.count("bytes_written")), "bytes")

    m["inference.analyze.self_s"] = (per(spans.self_s(_is("inference.analyze"))), "s")
    m["inference.detect_spikes.s"] = (
        per(spans.total(_is("inference.detect_spikes"))), "s")
    m["inference.estimate.s"] = (per(spans.total(lambda n: n in _ESTIMATORS)), "s")
    m["inference.spikes"] = (per(spans.count("spikes")), "count")
    m["wachter.s"] = (per(spans.total(_prefix("wachter."))), "s")
    m["cli.main.self_s"] = (per(spans.self_s(_is("cli.main"))), "s")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (per(spans.layer_self_s(layer)), "s")
    m["trace.spans"] = (per(len(spans.ids)), "count")
    return m


def default_blas_pass(args):
    """One operation in a child process whose BLAS threading is left at its default.

    Returns the child's result line.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--size", args.size, "--blas-default"]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=150,
                          cwd=RUN.parent.parent)
    if done.returncode != 0:
        raise RuntimeError(f"default-BLAS pass failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run(args, workloads, work):
    small = args.size == "small"
    tracer = Tracer()

    tracer.install()
    tracer.begin_op("setup")
    workload = workloads.WORKLOADS[args.workload](args.seed, small, work)
    tracer.end_op()
    tracer.uninstall()

    ops = workloads.Ops()
    cpu0, wall0 = os.times(), time.perf_counter()
    plain = ops.run(workload, args.seconds)
    wall = time.perf_counter() - wall0
    cpu1 = os.times()
    cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)

    tracer.install()
    try:
        traced = ops.run(workload, args.seconds, tracer, tag="traced")
        mc = isinstance(workload, workloads.McDesk)
        serial = ops.run(workload, 0, tracer, tag="serial", workers=1) if mc else []
    finally:
        tracer.uninstall()

    if serial:
        ops.check(workload.check, serial, False)
        ops.check(workload.check, plain + traced, args.perturb,
                  serial=ops.outputs[serial[0]])
    else:
        ops.check(workload.check, plain + traced, args.perturb)

    nproc = workloads.nproc()
    spans = SpanSet(tracer.spans, [f"traced{i}" for i in traced])
    serial_spans = SpanSet(tracer.spans, [f"serial{i}" for i in serial]) if serial else None
    metrics = layer_metrics(spans, len(traced), serial_spans, nproc)
    setup = SpanSet(tracer.spans, ["setup"])
    metrics["setup.s"] = (setup.total(_is(ROOT)), "s")
    metrics["setup.gen_data.s"] = (setup.total(_is("simulate.gen_data")), "s")
    metrics["process.cpu_s"] = (cpu / len(plain), "s")
    metrics["process.cpu_util"] = (cpu / (wall * nproc), "ratio")
    default = default_blas_pass(args) if mc else None
    metrics["simulate.default_blas_op_s"] = (
        default["metrics"]["op_s"]["value"] if default else 0.0, "s")
    plain_times = [ops.times[i] for i in plain]
    traced_times = [ops.times[i] for i in traced]
    metrics["trace.overhead_s"] = (
        statistics.median(traced_times) - statistics.median(plain_times), "s")

    failed = ops.failed + (default["failed"] if default else 0)
    return {
        "correct": failed == 0,
        "attempted": len(ops.times) + (default["attempted"] if default else 0),
        "failed": failed,
        "metrics": metrics,
        "untraced_op_times_s": plain_times,
        "traced_op_times_s": traced_times,
        "serial_op_times_s": [ops.times[i] for i in serial],
        "errors": ops.errors,
        "spans": tracer.records(),
    }
