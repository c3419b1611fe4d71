"""Seeded end-to-end benchmark of the momentrec recovery pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 2026 --seconds 40 --trace 0

One process runs one workload as a closed loop with a single caller: each
solve starts when the previous one has returned. The BLAS/OpenMP thread
count is pinned to 1 before numpy is imported, so the numbers are a
single-threaded baseline. The package is imported from ``src/`` of the
checkout this file sits in; without it the run exits with code 2.

Set-up (input generation plus one warm-up solve of the smallest input) is
repeated three times and its median is added to the import time. Whole
passes over every input then run while the next pass should end within
``--seconds`` (at least one); an input with ``repeats`` > 1 is solved that
many times per pass, spread between the other inputs. Each input's latency is the median of its
solves; a run reports their sum (one solve of every input), percentiles over
them, and the peak resident set after the first pass. Reported times are
divided by the run's host slowdown (``hostspeed``), a fixed kernel timed
between solves; the measured times and the slowdown are in the ``#`` lines
and the record. With ``--trace 1`` untraced and traced passes alternate,
no kernel runs, and the per-layer split (span self times and exact
work counts, in measured seconds) is reported instead of the end-to-end
metrics.

Every solve is scored by ``oracle``: outcomes that miss the truth-derived
expectation count as ``failed``; the ``correct`` flag is cleared when a
report is inconsistent with its own data, when a solve raises, or when
repeated or traced passes disagree on a status or atom count.

The last line of standard output is one JSON object; lines before it that
start with ``#`` are a human-readable record (environment, working-range
rows, failures). The same record, with every span of the traced run, is
written to ``.perfbench_out/`` in the checkout. ``--small`` shrinks every
workload for the self-test in ``selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREADS = "1"
SETUP_REPS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_package():
    """Import numpy and the package from this checkout; None when absent."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import numpy  # noqa: F401  (timed as part of set-up)
        import momentrec
    except ImportError as exc:
        print(f"perfbench: cannot import momentrec from {src}: {exc}", file=sys.stderr)
        return None
    found = Path(momentrec.__file__).resolve().parent
    if found != (src / "momentrec").resolve():
        print(f"perfbench: momentrec imported from {found}, not {src}", file=sys.stderr)
        return None
    return momentrec


def _environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "thread_pin": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "load": "closed loop, 1 process, 1 caller thread",
    }


def _percentile(values, q):
    """Nearest-rank percentile: the ceil(q * n)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Pass:
    """One pass over every input: per-input solve times and outcomes."""

    elapsed: float  # wall clock of the whole pass, kernel timings included
    starts: list[list[float]]  # per input, the perf_counter start of each solve
    times: list[list[float]]  # per input, one time per solve
    signature: list[tuple]  # per input, the (status, atoms) of each solve
    tracer: object = None

    @property
    def wall(self) -> float:
        """Sum of the pass's solve times: repeats in, kernel timings out."""
        return sum(map(sum, self.times))


class Bench:
    """One workload's inputs and the passes run over them."""

    def __init__(self, momentrec, cases, make_tracer, speed=None):
        self.pkg = momentrec
        self.cases = cases
        self.make_tracer = make_tracer
        self.speed = speed  # HostSpeed timed between solves, or None
        self.schedule = _schedule(cases)
        self.peak_rss_mb = None

    def call(self, case):
        if case.constraints is not None:
            return self.pkg.solve_constrained(case.moments, case.constraints)
        return self.pkg.solve_full(case.moments)

    def one_pass(self, call):
        """Solve every input ``repeats`` times, in ``schedule`` order.

        Returns (pass, reports, errors); the reports and errors are those of
        each input's last solve.
        """
        n = len(self.cases)
        starts = [[] for _ in range(n)]
        times = [[] for _ in range(n)]
        signature = [()] * n
        reports = [None] * n
        errors = [None] * n
        begin = time.perf_counter()
        for i in self.schedule:
            report = error = None
            t = time.perf_counter()
            try:
                report = call(self.cases[i])
            except Exception as exc:  # a raising solve is scored, not fatal
                error = exc
            starts[i].append(t)
            times[i].append(time.perf_counter() - t)
            signature[i] += (_signature(report, error),)
            reports[i], errors[i] = report, error
            if self.speed is not None:
                self.speed.maybe_sample()
        return Pass(time.perf_counter() - begin, starts, times, signature), reports, errors

    def traced_pass(self):
        with self.make_tracer() as tracer:
            one, reports, errors = self.one_pass(lambda case: tracer.solve(self.call, case))
        one.tracer = tracer
        return one, reports, errors

    def passes(self, budget, modes=(False,)):
        """Rounds of one pass per mode (``True``: traced) while the next
        round should end within ``budget`` seconds.

        At least one round runs. Alternating untraced and traced passes puts
        both at the same moments of a host whose speed drifts. Returns one
        list of passes per mode and the first pass's (reports, errors).
        """
        done = [[] for _ in modes]
        first = None
        start = time.perf_counter()
        last = 0.0
        while first is None or time.perf_counter() - start + last <= budget:
            begin = time.perf_counter()
            for traced, kept in zip(modes, done):
                one, reports, errors = self.traced_pass() if traced else self.one_pass(self.call)
                if first is None:
                    # later passes repeat the same work; their extra peak is allocator noise
                    self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                    first = (reports, errors)
                kept.append(one)
            last = time.perf_counter() - begin
        return done, first


def _schedule(cases):
    """One pass's solve order: every input once, in order, with the extra
    solves of inputs that repeat spread evenly between them, round by round,
    so that an input's solves meet the host at different moments."""
    n = len(cases)
    rounds = max(c.repeats for c in cases)
    extra = [i for r in range(1, rounds) for i, c in enumerate(cases) if c.repeats > r]
    order = []
    for k in range(n):
        order.append(k)
        order += extra[k * len(extra) // n:(k + 1) * len(extra) // n]
    return order


def _signature(report, error):
    if error is not None:
        return (type(error).__name__, None)
    atoms = report.measure.atom_count if report.measure is not None else None
    return (report.status, atoms)


def _row(case, outcome, report) -> dict:
    ranks = None
    residual = None
    if report is not None:
        ranks = [r.rank for r in report.psd_records] or None
        residual = report.moment_residual
    return {
        "input": case.label,
        "kind": case.kind,
        "status": outcome.status,
        "atoms": outcome.atoms,
        "true_atoms": case.truth.atom_count,
        "moment_residual": residual,
        "rank_tau_tau1": ranks,
        "expected": outcome.expected,
        "wrong_success": outcome.wrong_success,
        "consistent": outcome.consistent,
        "note": outcome.note,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    t_import = time.perf_counter()
    momentrec = _import_package()
    if momentrec is None:
        return 2
    import numpy as np
    from momentrec import solver
    from momentrec.errors import NoRecurrenceError

    from perfbench import hostspeed, oracle, spans, workloads

    import_s = time.perf_counter() - t_import
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    def make_tracer():
        return spans.Tracer(solver, NoRecurrenceError)

    # the kernel runs between solves of the untraced end-to-end run only
    speed = None if args.trace else hostspeed.HostSpeed()
    gen_times, setup_spans = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        cases = workloads.make_cases(args.workload, args.seed, args.small)
        t1 = time.perf_counter()
        bench = Bench(momentrec, cases, make_tracer, speed)
        bench.call(min(cases, key=lambda c: len(c.moments.values)))
        gen_times.append(t1 - t0)
        setup_spans.append((t0, time.perf_counter() - t0))
        if speed is not None:
            speed.sample()
    setup_s = import_s + statistics.median(d for _, d in setup_spans)

    modes = (False, True) if args.trace else (False,)
    runs, (reports, errors) = bench.passes(args.seconds, modes)
    plain, traced = runs[0], runs[1] if args.trace else []
    outcomes = [oracle.score(c, r, e) for c, r, e in zip(cases, reports, errors)]
    rows = [_row(c, o, r) for c, o, r in zip(cases, outcomes, reports)]
    del reports, errors
    problems = [f"{row['input']}: {row['note']}" for row in rows if not row["consistent"]]
    signature = plain[0].signature
    if any(len(set(s)) > 1 for s in signature):
        problems.append("repeated solves of one input disagree on a status or atom count")
    if any(p.signature != signature for p in plain):
        problems.append("repeated passes disagree on a status or atom count")

    walls = [p.wall for p in plain]
    per_input = [statistics.median(t for p in plain for t in p.times[i]) for i in range(len(cases))]
    attempted = len(cases)
    failed = sum(not o.expected for o in outcomes)
    wrong = sum(o.wrong_success for o in outcomes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "environment": _environment(np),
        "inputs": attempted,
        "fingerprint": workloads.fingerprint(cases),
        "untraced_pass_walls_s": walls,
        "failed_share": failed / attempted,
        "wrong_success": wrong,
    }

    if args.trace:
        if any(p.signature != signature for p in traced):
            problems.append("traced run disagrees with the untraced run")
        metrics = _layer_metrics(traced, spans)
        # each traced pass over the untraced pass just before it
        overhead = statistics.median(t.wall / p.wall for p, t in zip(plain, traced)) - 1.0
        metrics.update(
            {
                "trace.overhead_share": (overhead, "ratio"),
                "sampling.generate_s": (statistics.median(gen_times), "s"),
                "oracle.failed_share": (failed / attempted, "ratio"),
                "oracle.wrong_success": (wrong, "count"),
            }
        )
        for status in oracle.STATUSES:
            count = sum(o.status == status for o in outcomes)
            metrics[f"solver.status.{status}"] = (count, "count")
        first = traced[0].tracer
        record.update(
            absent_stages=first.absent,
            count_errors=dict(first.count_errors),
            traced_pass_walls_s=[p.wall for p in traced],
        )
    else:
        # each solve and set-up round is divided by the host slowdown around it
        def scaled(start, took):
            return took / speed.slowdown_over(start, start + took)

        scaled_setup = scaled(t_import, import_s) + statistics.median(
            scaled(t, d) for t, d in setup_spans)
        scaled_input = [
            statistics.median(scaled(t, d) for p in plain for t, d in zip(p.starts[i], p.times[i]))
            for i in range(attempted)
        ]
        metrics = _time_metrics(scaled_setup, scaled_input)
        metrics.update(
            peak_rss_mb=(bench.peak_rss_mb, "MB"),
            correct_share=(1.0 - failed / attempted, "ratio"),
        )
        record.update(
            measured={k: v for k, (v, _) in _time_metrics(setup_s, per_input).items()},
            host_slowdown=speed.slowdown(),
            kernel_at_s=speed.at,
            kernel_samples_s=speed.samples,
            import_span_s=(t_import, import_s),
            setup_spans_s=setup_spans,
            solve_starts_s=[p.starts for p in plain],
            solve_times_s=[p.times for p in plain],
        )

    record["problems"] = problems
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["rows"] = rows
    _report(record, rows, len(plain))
    _write(record, traced, args)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


def _time_metrics(setup_s, per_input):
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_input), "s"),
        "solve_p50_ms": (1e3 * _percentile(per_input, 0.50), "ms"),
        "solve_p99_ms": (1e3 * _percentile(per_input, 0.99), "ms"),
    }


def _layer_metrics(traced, spans):
    """Per-layer self times (median over traced passes) and first-pass counts."""
    selfs = [p.tracer.self_times() for p in traced]
    metrics = {}
    for name, metric in spans.SPAN_METRICS.items():
        metrics[metric] = (statistics.median(s.get(name, 0.0) for s in selfs), "s")
    counts = traced[0].tracer.counts
    for name in spans.COUNT_NAMES:
        metrics[name] = (counts[name], "count")
    orders = counts["recurrence.fit_orders"]
    grid = counts["binet.grid_points"]
    metrics["recurrence.fit_accept_ratio"] = (
        counts["recurrence.fit_accepts"] / orders if orders else 0.0, "ratio")
    metrics["binet.atom_yield"] = (counts["binet.atoms"] / grid if grid else 0.0, "ratio")
    unattributed = [(p.wall - sum(s.values())) / p.wall for p, s in zip(traced, selfs)]
    metrics["trace.wall_s"] = (statistics.median(p.wall for p in traced), "s")
    metrics["trace.unattributed_share"] = (statistics.median(unattributed), "ratio")
    metrics["trace.absent_stages"] = (len(traced[0].tracer.absent), "count")
    metrics["trace.count_errors"] = (sum(traced[0].tracer.count_errors.values()), "count")
    repeat = all(p.tracer.counts == counts for p in traced)
    metrics["trace.exact_counts_repeat"] = (int(repeat), "count")
    return metrics


def _report(record, rows, pass_count):
    print(f"# environment: {json.dumps(record['environment'])}")
    print(
        f"# {record['workload']} seed {record['seed']}: {record['inputs']} inputs, "
        f"{pass_count} untraced passes; latency percentiles over {record['inputs']} "
        f"per-input medians"
    )
    print(
        f"# failed_share {record['failed_share']:.6g}, "
        f"wrong_success {record['wrong_success']}"
    )
    if record["workload"] == "grid":
        print("# working range: input | status | atoms/true | residual | rank M(tau), M(tau+1)")
        for row in sorted(rows, key=lambda r: (r["true_atoms"], r["input"])):
            residual = row["moment_residual"]
            print(
                f"#   {row['input']:<16} {row['status']:<16} "
                f"{row['atoms']}/{row['true_atoms']:<5} "
                f"{'-' if residual is None else f'{residual:.2e}':<9} {row['rank_tau_tau1']}"
            )
    else:
        for row in [r for r in rows if not r["expected"]][:10]:
            print(f"#   missed: {row['input']} ({row['kind']}) -> {row['status']}")
    if record["trace"]:
        print(f"# trace: absent stages {record['absent_stages']}, "
              f"counters that could not read their arguments {record['count_errors']}")
    else:
        measured = ", ".join(f"{k} {v:.6g}" for k, v in record["measured"].items())
        print(f"# host slowdown {record['host_slowdown']:.4f} (median of "
              f"{len(record['kernel_samples_s'])} kernel timings over the reference); "
              f"measured before dividing by the slowdown around each solve: {measured}")
    for problem in record["problems"][:10]:
        print(f"# PROBLEM: {problem}")
    for name, m in record["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")


def _write(record, traced, args):
    """Write the record, with every traced span, once the run has ended."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-small" if args.small else "")
    if traced:
        record = dict(
            record,
            spans_columns=["name", "start", "end", "parent", "solve", "pass"],
            spans=[s + [k] for k, p in enumerate(traced) for s in p.tracer.spans],
        )
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
