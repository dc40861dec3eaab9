"""Self-test of the benchmark at reduced sizes.

    python3 perfbench/selftest.py

Run from the repository root.  It checks that:

* for every workload, an untraced run prints exactly the end-to-end metrics
  of BENCHMARK.json with their units and passes its output checks, and a
  traced run prints exactly the per-layer metrics with their units;
* a correlation shifted by 1e-6 (``--perturb``) is counted as a failure on
  every workload, so the checks are not vacuous (on ``mc-desk`` the exact
  reference is the 1-worker pass of the traced run; on ``cli-desk`` both
  commands' checks must catch it);
* the Monte Carlo worker-thread spans keep their operation and parent;
* in a directory holding only BENCHMARK.json and the benchmark's files, the
  benchmark exits non-zero without printing a result.

Exits non-zero when any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "3", "--seconds", "0.5", "--size", "small"]
WORKLOADS = ("analyze-fig1", "mc-desk", "cli-desk")


def bench(cwd, workload, trace, *extra):
    cmd = [sys.executable, *RUN, "--workload", workload, "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(done):
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-1500:]}")
    line = done.stdout.strip().splitlines()[-1]
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(res)}")
    return res


def expect_metrics(res, spec):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    if got != want:
        raise AssertionError(
            f"metrics differ: missing {sorted(want.keys() - got.keys())}, "
            f"extra {sorted(got.keys() - want.keys())}, "
            f"units {[k for k in want.keys() & got.keys() if want[k] != got[k]]}"
        )
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            raise AssertionError(f"{k} is not a number: {v['value']!r}")


def check_worker_spans():
    path = ROOT / ".perfbench" / "results" / "mc-desk-seed3-trace1.spans.json"
    spans = {s["id"]: s for s in json.loads(path.read_text())}
    main = {s["thread"] for s in spans.values() if s["name"] == "bench.op"}
    workers = [s for s in spans.values() if s["thread"] not in main]
    if not workers:
        raise AssertionError("no worker-thread spans recorded")
    for s in workers:
        root = s
        while root["parent"] is not None:
            parent = spans[root["parent"]]
            if parent["op"] != s["op"]:
                raise AssertionError(f"span {s['id']} crosses operations")
            root = parent
        if root["name"] != "bench.op":
            raise AssertionError(f"worker span {s['id']} ({s['name']}) has no operation")


def check_both_commands_caught():
    """On ``cli-desk`` each command's check must catch the shift on its own."""
    path = ROOT / ".perfbench" / "results" / "cli-desk-seed3-trace0.json"
    for err in json.loads(path.read_text())["errors"]:
        if not err or "correlations.csv" not in err or "root error" not in err:
            raise AssertionError(f"a command's check missed the shift: {err!r}")


def check_bare_directory():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(bare, "analyze-fig1", 0)
        lines = done.stdout.strip().splitlines()
        if done.returncode == 0 or (lines and lines[-1].startswith("{")):
            raise AssertionError(f"exit {done.returncode}, stdout {done.stdout[-300:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def cases(spec):
    for w in WORKLOADS:
        def untraced(w=w):
            res = result(bench(ROOT, w, 0))
            expect_metrics(res, spec["end_to_end"])
            if not res["correct"] or res["failed"]:
                raise AssertionError(f"outputs failed their checks: {res}")

        def traced(w=w):
            res = result(bench(ROOT, w, 1))
            expect_metrics(res, spec["per_layer"])
            if not res["correct"] or res["failed"]:
                raise AssertionError(f"outputs failed their checks: {res}")

        def perturbed(w=w):
            res = result(bench(ROOT, w, 1 if w == "mc-desk" else 0, "--perturb"))
            if res["correct"] or res["failed"] < 1:
                raise AssertionError(f"a 1e-6 shift went unnoticed: {res}")
            if w == "cli-desk":
                check_both_commands_caught()

        yield f"{w}: end-to-end metrics and checks", untraced
        yield f"{w}: per-layer metrics", traced
        yield f"{w}: perturbed output counted as failure", perturbed
    yield "mc-desk: worker spans keep their operation", check_worker_spans
    yield "bare directory: exits non-zero without a result", check_bare_directory


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for name, case in cases(spec):
        try:
            case()
            print(f"ok    {name}", flush=True)
        except Exception as exc:  # report every case, then fail
            failures += 1
            print(f"FAIL  {name}: {exc}", flush=True)
    print(f"{failures} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
