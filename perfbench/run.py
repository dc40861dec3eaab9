"""hdcca benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload analyze-fig1 --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/`` of that
checkout and nowhere else.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics (``op_s``, ``setup_s``,
``peak_rss_mb``, ``pass_ratio``); with ``--trace 1`` it holds the per-layer
metrics of a traced run.  The full record (machine, environment, every
operation time, every check) and the spans of a traced run are written under
``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_PROBES = 5
# Workloads whose process runs BLAS on one thread (README, "BLAS threading").
ONE_BLAS_THREAD = ("mc-desk",)


def import_package():
    """Import hdcca from this checkout's ``src/``; exit non-zero when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import hdcca
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import hdcca from {SRC}: {exc}")
    if Path(hdcca.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: hdcca resolved to {hdcca.__file__}, not {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: reduced dimensions for the self-test")
    p.add_argument("--perturb", action="store_true",
                   help="shift the first checked correlation by 1e-6 (self-test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--blas-default", action="store_true",
                   help="leave BLAS threading at its default (traced mc-desk pass)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Machine and environment record
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest():
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args, workloads):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "blas_default": args.blas_default,
        "nproc": workloads.nproc(),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "HDCCA_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def setup_seconds(args):
    """Median time from spawning a fresh process to it being ready to run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--size", args.size, "--setup-probe"] + ["--blas-default"] * args.blas_default
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples), samples


def main(argv=None):
    args = parse_args(argv)
    if args.workload in ONE_BLAS_THREAD and not args.blas_default:
        # OpenBLAS reads these once, when numpy loads; set-up probes inherit them.
        os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=STATE))
    try:
        if args.setup_probe:
            workloads.WORKLOADS[args.workload](args.seed, args.size == "small", work)
            print(time.time(), flush=True)
            return 0
        if args.trace:
            import traced

            record = traced.run(args, workloads, work)
        else:
            record = untraced(args, workloads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args, workloads)
    record["environment"] = env
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()}
    results = STATE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.blas_default:
        stem += "-blasdefault"
    if "spans" in record:
        with open(results / f"{stem}.spans.json", "w") as fh:
            json.dump(record.pop("spans"), fh)
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def untraced(args, workloads, work):
    setup_s, setup_samples = setup_seconds(args)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "small", work)
    ops = workloads.Ops()
    idx = ops.run(workload, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops.check(workload.check, idx, args.perturb)
    attempted = len(ops.times)
    return {
        "correct": ops.failed == 0,
        "attempted": attempted,
        "failed": ops.failed,
        "metrics": {
            "op_s": (statistics.median(ops.times), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "pass_ratio": ((attempted - ops.failed) / attempted, "ratio"),
        },
        "op_times_s": ops.times,
        "setup_samples_s": setup_samples,
        "errors": ops.errors,
    }


if __name__ == "__main__":
    sys.exit(main())
