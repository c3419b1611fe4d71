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

The workload's inputs are synthesized by the checkout's own
``evaluate_moments``, so two checkouts whose moment evaluations differ in
the last bits solve different inputs. To compare them on the same ones,
save one side's inputs and solve those bytes on both:

    python3 tools/report_digest.py --workload grid --save-moments grid.npz
    python3 tools/report_digest.py --workload grid --moments-from grid.npz --decisions

``--save-moments PATH`` writes every input's moment array to PATH (numpy
``.npz``, in input order); ``--moments-from PATH`` solves the saved arrays
in place of the synthesized ones, and refuses a file whose array count or
shapes do not match the workload's inputs. ``--decisions`` also prints the
digest of the reports with ``moment_residual.value`` and every
``min_eigenvalue`` blanked, the fields that follow the last bits of the
moments: two checkouts whose reports differ only there print the same
decisions digest.

``--certified`` also prints, for the moment matrices M(n) and for the
localizing matrices M_q, how many records a bracket of the recovered measure
certified and how many eigvalsh decided, and how many of the latter have
``CERTIFY_MIN_SIZE`` rows or more (the size the solver brackets).
``PsdRecord.certified`` is not part of ``SolveReport.to_dict()``, so no
digest shows it. It also prints, for each pass (three with ``--plans``),
the recurrence detection's screen counts: the solves screened (one stacked
QR of every variable's marginal Hankel, ``recurrence._certified_failures``),
the axes they screened, the orders proven to fail (order 1 included), the
orders fitted by least squares, and the all-fail fallbacks: axes on which
every order failed after the screen proved some, so those were fitted too.

``--plans`` solves the workload twice more after the digest pass and prints
how many pair-rank plans (``indexing.degree_lex_pair_ranks`` calls) each of
the three passes built, and how many entries the plan store then holds. A
store that keeps every plan it is asked for builds none after the first
pass.

``--transform reverse`` (the variables in reverse order) or ``--transform
reflect`` (x_1 -> -x_1) also solves each input with its moments, and any
constraints, transformed that way, and prints how many statuses and how many
atom counts moved. Both maps are symmetries of the problem, so a sound
solver moves none.

``--retained`` reads every input's ``values`` after the passes, as
``perfbench/run.py``'s set-up does when it picks its warm-up input, and
prints the bytes tracemalloc finds still held after that read and the
process's ``ru_maxrss``: a sequence that kept a mapping per input would
show it here, without a benchmark run.

``--calls`` prints, for each pass (three with ``--plans``), how often the
package called each ``numpy.linalg`` function (those called at least once,
by name), counted through the ``numpy.linalg`` attributes the package looks
them up by.

``--pycalls`` prints, for each pass (three with ``--plans``), the Python-level
function calls made during the solves (``sys.setprofile`` ``call`` events; a
C function is not one), grouped by the file's owner: the package, numpy, and
other (the standard library), and the median count per solve; this tool's
own wrappers and counters are not counted.
The first pass also builds the plans; later passes show a warm solve's fixed
cost.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import statistics
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blank_margins(report: dict) -> dict:
    """The report with ``moment_residual.value`` and every ``min_eigenvalue`` set to None."""
    if report["moment_residual"] is not None:
        report["moment_residual"]["value"] = None
    for record in report["psd"] + report["constraints"]:
        record["min_eigenvalue"] = None
    return report


def transform(kind: str, idx: tuple, value: float) -> tuple[tuple, float]:
    """The term value * x^idx after reversing the variables or mapping x_1 to -x_1."""
    if kind == "reverse":
        return idx[::-1], value
    return idx, -value if idx[0] % 2 else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--small", action="store_true", help="the benchmark's tiny inputs")
    parser.add_argument("--save-moments", metavar="PATH", help="write every input's moments")
    parser.add_argument("--moments-from", metavar="PATH", help="solve saved moments instead")
    parser.add_argument(
        "--decisions", action="store_true", help="also digest the reports without margins"
    )
    parser.add_argument(
        "--certified", action="store_true", help="also count certified and eigvalsh records"
    )
    parser.add_argument(
        "--plans", action="store_true", help="solve twice more, counting pair-rank plan builds"
    )
    parser.add_argument(
        "--calls", action="store_true", help="count numpy.linalg calls in each pass"
    )
    parser.add_argument(
        "--pycalls", action="store_true", help="count Python-level calls in each pass"
    )
    parser.add_argument(
        "--retained", action="store_true", help="bytes kept by reading every input's values"
    )
    parser.add_argument(
        "--transform", choices=("reverse", "reflect"), help="also solve each input transformed"
    )
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.run import THREAD_VARS, THREADS

    for var in THREAD_VARS:
        os.environ[var] = THREADS
    import numpy as np

    import momentrec
    from momentrec import indexing, recurrence
    from momentrec.errors import NoRecurrenceError
    from momentrec.indexing import basis_size
    from momentrec.moments import CERTIFY_MIN_SIZE
    from perfbench.workloads import make_cases

    if Path(momentrec.__file__).resolve().parent != (ROOT / "src" / "momentrec").resolve():
        print(f"report_digest: momentrec imported from {momentrec.__file__}", file=sys.stderr)
        return 2

    cases = make_cases(args.workload, args.seed, args.small)
    inputs = [case.moments for case in cases]
    if args.moments_from:
        with np.load(args.moments_from) as saved:
            arrays = [saved[f"arr_{k}"] for k in range(len(saved.files))]
        if len(arrays) != len(inputs):
            print(
                f"report_digest: {args.moments_from} holds {len(arrays)} arrays, "
                f"the workload has {len(inputs)} inputs",
                file=sys.stderr,
            )
            return 2
        for k, (array, seq) in enumerate(zip(arrays, inputs)):
            if array.shape != seq.array.shape:
                print(
                    f"report_digest: input {k} has {seq.array.shape[0]} moments, "
                    f"{args.moments_from} holds shape {array.shape}",
                    file=sys.stderr,
                )
                return 2
        inputs = [
            momentrec.TruncatedSequence(seq.dim, seq.max_degree, array)
            for seq, array in zip(inputs, arrays)
        ]
    if args.save_moments:
        with open(args.save_moments, "wb") as out:
            np.savez(out, *(seq.array for seq in inputs))

    builds = [0]
    pair_ranks = indexing.degree_lex_pair_ranks

    def counting(left, right):
        builds[0] += 1
        return pair_ranks(left, right)

    # the plan builders look the name up in their module on every call
    indexing.degree_lex_pair_ranks = counting

    calls = Counter()

    def counted(name, function):
        @functools.wraps(function)
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return call

    if args.calls:
        # the package calls np.linalg.<name>, looked up on every call
        for name in np.linalg.__all__:
            function = getattr(np.linalg, name)
            if callable(function) and not isinstance(function, type):
                setattr(np.linalg, name, counted(name, function))

    screen = Counter()
    certify, fit, scan = recurrence._certified_failures, recurrence._fit_along, recurrence._scan

    def certifying(*args):
        proven = certify(*args)
        screen["solves screened"] += 1
        screen["axes screened"] += len(proven)
        screen["orders proven"] += int(proven.sum())
        return proven

    def fitting(*args):
        screen["orders fitted"] += 1
        return fit(*args)

    def scanning(seq, axis, tol, certified):
        try:
            return scan(seq, axis, tol, certified)
        except NoRecurrenceError:
            screen["all-fail fallbacks"] += bool(certified)
            raise

    if args.certified:
        # detection looks these up in its module on every call
        recurrence._certified_failures = certifying
        recurrence._fit_along = fitting
        recurrence._scan = scanning

    package_dir = str(Path(momentrec.__file__).resolve().parent) + os.sep
    numpy_dir = str(Path(np.__file__).resolve().parent) + os.sep
    owners: dict = {}  # file name -> its owner, read once per file
    pycalls, per_solve = Counter(), []

    def owner(filename: str) -> str | None:
        path = os.path.realpath(filename)
        if path == str(Path(__file__).resolve()):
            return None  # this tool's own wrappers and counters
        if path.startswith(package_dir):
            return "momentrec"
        return "numpy" if path.startswith(numpy_dir) else "other"

    def profile(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if filename not in owners:
                owners[filename] = owner(filename)
            name = owners[filename]
            if name is not None:
                pycalls[name] += 1

    def run(moments, constraints):
        if constraints is None:
            return momentrec.solve_full(moments)
        return momentrec.solve_constrained(moments, constraints)

    def solve(moments, constraints):
        if not args.pycalls:
            return run(moments, constraints)
        before = sum(pycalls.values())
        sys.setprofile(profile)
        try:
            return run(moments, constraints)
        finally:
            sys.setprofile(None)
            per_solve.append(sum(pycalls.values()) - before)

    def summary(report) -> tuple[str, int]:
        return report.status, 0 if report.measure is None else len(report.measure.points)

    digest, decisions = hashlib.sha256(), hashlib.sha256()
    # kind -> [certified, by eigvalsh, by eigvalsh with CERTIFY_MIN_SIZE rows or more]
    tally = {"M(n)": [0, 0, 0], "M_q": [0, 0, 0]}
    outcomes = []
    for case, moments in zip(cases, inputs):
        report = solve(moments, case.constraints)
        outcomes.append(summary(report))
        for kind, records in (("M(n)", report.psd_records), ("M_q", report.constraint_records)):
            for record in records:
                counts = tally[kind]
                if record.certified:
                    counts[0] += 1
                else:
                    counts[1] += 1
                    counts[2] += basis_size(report.dim, record.order) >= CERTIFY_MIN_SIZE
        report = report.to_dict()
        digest.update(json.dumps(report).encode() + b"\n")
        decisions.update(json.dumps(blank_margins(report)).encode() + b"\n")
    passes = [(builds[0], dict(calls), dict(screen), dict(pycalls), list(per_solve))]
    for _ in range(2 if args.plans else 0):
        builds[0] = 0
        for counter in (calls, screen, pycalls):
            counter.clear()
        per_solve.clear()
        for case, moments in zip(cases, inputs):
            solve(moments, case.constraints)
        passes.append((builds[0], dict(calls), dict(screen), dict(pycalls), list(per_solve)))

    retained = None
    if args.retained:
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        min(inputs, key=lambda seq: len(seq.values))
        retained = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()

    def mirror(terms: dict) -> dict:
        return dict(transform(args.transform, idx, value) for idx, value in terms.items())

    moved = Counter()
    for case, moments, outcome in zip(cases, inputs, outcomes) if args.transform else ():
        constraints = None
        if case.constraints is not None:
            polys = case.constraints.constraints
            constraints = momentrec.SemialgebraicSet(
                [momentrec.MultivariatePoly(q.dim, mirror(q.terms)) for q in polys]
            )
        seq = momentrec.TruncatedSequence(moments.dim, moments.max_degree, mirror(moments.values))
        status, atoms = summary(solve(seq, constraints))
        moved["statuses"] += status != outcome[0]
        moved["atom counts"] += atoms != outcome[1]
    head = f"{args.workload} seed {args.seed}: {len(cases)} inputs"
    print(f"{head}, sha256 {digest.hexdigest()}")
    if args.decisions:
        print(f"{head}, decisions sha256 {decisions.hexdigest()}")
    if args.certified:
        for kind, (certified, eigvalsh, large) in tally.items():
            print(
                f"{head}, {kind} records: {certified} certified, {eigvalsh} by eigvalsh "
                f"({large} of >= {CERTIFY_MIN_SIZE} rows)"
            )
        names = (
            "solves screened", "axes screened", "orders proven", "orders fitted",
            "all-fail fallbacks",
        )
        for k, (_, _, counts, _, _) in enumerate(passes, 1):
            named = ", ".join(f"{counts.get(name, 0)} {name}" for name in names)
            print(f"{head}, detection in pass {k}: {named}")
    if args.plans:
        counts = ", ".join(f"pass {k} {n}" for k, (n, *_) in enumerate(passes, 1))
        print(
            f"{head}, pair-rank builds: {counts}; plan store {indexing._plans_entries} entries"
        )
    if args.calls:
        for k, (_, counts, _, _, _) in enumerate(passes, 1):
            named = ", ".join(f"{name} {n}" for name, n in sorted(counts.items()))
            print(f"{head}, numpy.linalg calls in pass {k}: {named}")
    if args.pycalls:
        for k, (_, _, _, counts, solves) in enumerate(passes, 1):
            owned = ("momentrec", "numpy", "other")
            named = ", ".join(f"{name} {counts.get(name, 0)}" for name in owned)
            print(
                f"{head}, Python calls in pass {k}: {named}; "
                f"median per solve {statistics.median(solves):g}"
            )
    if args.retained:
        # ru_maxrss is in KiB on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"{head}, values read: {retained} bytes retained, ru_maxrss {peak:.1f} MB")
    if args.transform:
        print(
            f"{head}, {args.transform} transform moved {moved['statuses']} statuses "
            f"and {moved['atom counts']} atom counts"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
