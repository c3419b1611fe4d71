"""Digest of every solve report of one benchmark workload.

Run from the repository root:

    python3 tools/report_digest.py --workload corpus --seed 2026

Solves each input of ``perfbench.workloads.make_cases`` once, in order
(``solve_constrained`` where the input carries constraints, else
``solve_full``), and prints the input count and the SHA-256 of the lines
``json.dumps(report.to_dict())``, one per input. Two checkouts that print
the same digest gave byte-identical reports. As in ``perfbench/run.py``, the
BLAS/OpenMP thread count is pinned to 1 before numpy is imported and the
package is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--small", action="store_true", help="the benchmark's tiny inputs")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.run import THREAD_VARS, THREADS

    for var in THREAD_VARS:
        os.environ[var] = THREADS
    import momentrec
    from perfbench.workloads import make_cases

    if Path(momentrec.__file__).resolve().parent != (ROOT / "src" / "momentrec").resolve():
        print(f"report_digest: momentrec imported from {momentrec.__file__}", file=sys.stderr)
        return 2

    digest = hashlib.sha256()
    cases = make_cases(args.workload, args.seed, args.small)
    for case in cases:
        if case.constraints is None:
            report = momentrec.solve_full(case.moments)
        else:
            report = momentrec.solve_constrained(case.moments, case.constraints)
        digest.update(json.dumps(report.to_dict()).encode() + b"\n")
    print(f"{args.workload} seed {args.seed}: {len(cases)} inputs, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
