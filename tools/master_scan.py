"""Run ``hdcca master-check`` over many instances and report the failures.

Usage::

    python3 tools/master_scan.py --dims 150 225 1200 --bases 1 2 3 --count 70 \\
        [--src PATH]

Instance seeds are ``1000 * b + i`` for each base ``b`` and ``i < count``, the
seeds the benchmark's ``master-check`` operations use.  Each instance runs
in-process through ``hdcca.cli.master_check`` with the same pass rule as the
command (every root counted, root error below 1e-9, interlacing, vector error
below 1e-8).  The script prints each failing seed with its reason, then the
number of failures and the worst root and vector errors over the instances
that ran to the end.  ``PATH`` is the ``src`` directory of the tree to scan
(default: this repository's).  It exits 1 when any instance fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=int, nargs=3, required=True, metavar=("K", "M", "S"))
    parser.add_argument("--bases", type=int, nargs="+", required=True)
    parser.add_argument("--count", type=int, default=70, help="instances per base")
    parser.add_argument("--src", type=Path, default=Path(__file__).parents[1] / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from hdcca.cli import master_check
    from hdcca.errors import HdccaError

    K, M, S = args.dims
    failed = 0
    worst_root = worst_vec = 0.0
    seeds = [1000 * b + i for b in args.bases for i in range(args.count)]
    for seed in seeds:
        try:
            check = master_check(K, M, S, seed)
        except (HdccaError, np.linalg.LinAlgError) as exc:
            failed += 1
            print(f"seed {seed}: {type(exc).__name__}: {exc}")
            continue
        worst_root = max(worst_root, check.root_err)
        worst_vec = max(worst_vec, check.vec_err)
        if not check.ok(K):
            failed += 1
            print(f"seed {seed}: roots {check.roots}, root error {check.root_err:.3e}, "
                  f"interlacing {'ok' if check.interlaced else 'VIOLATED'}, "
                  f"vector error {check.vec_err:.3e}")
    print(f"dims {K} {M} {S}: {failed} of {len(seeds)} instances failed; "
          f"worst root error {worst_root:.3e}, worst vector error {worst_vec:.3e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
