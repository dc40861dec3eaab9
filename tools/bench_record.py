"""Write ``BENCH_<workload>.json`` from the benchmark records of two trees.

Usage::

    python3 tools/bench_record.py --workload cli-desk --seed 104729 \\
        --parent PARENT_TREE --change CHANGE_TREE [--out BENCH_cli-desk.json]

Each tree is a checkout in which ``perfbench/run.py`` ran the workload at the
seed with ``--trace 0`` and with ``--trace 1``, leaving its records under
``.perfbench/results/``.  The output holds the four records unchanged (each
with its machine and environment record) under ``records.parent`` and
``records.change``, keyed ``trace0`` and ``trace1``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_record(tree, workload, seed, trace):
    path = Path(tree) / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    try:
        with open(path) as fh:
            record = json.load(fh)
    except FileNotFoundError:
        sys.exit(f"bench_record: no record {path}; run perfbench/run.py there first")
    env = record["environment"]
    if (env["workload"], env["seed"], env["trace"]) != (workload, seed, trace):
        sys.exit(f"bench_record: {path} records another run")
    return record


def bench(workload, seed, parent, change):
    records = {
        side: {f"trace{t}": load_record(tree, workload, seed, t) for t in (0, 1)}
        for side, tree in (("parent", parent), ("change", change))
    }
    seconds = {r["environment"]["seconds"] for side in records.values()
               for r in side.values()}
    if len(seconds) != 1:
        sys.exit(f"bench_record: the records ran for different times: {sorted(seconds)}")
    return {
        "workload": workload,
        "command": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                   f"--seconds {seconds.pop():g} --trace 0|1",
        "records": records,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--out", type=Path, help="default: BENCH_<workload>.json")
    args = parser.parse_args(argv)
    out = args.out or Path(f"BENCH_{args.workload}.json")
    with open(out, "w") as fh:
        json.dump(bench(args.workload, args.seed, args.parent, args.change), fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
