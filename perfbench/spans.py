"""In-memory span tracer around the stage functions the solver calls.

The tracer replaces each stage function where ``momentrec.solver`` binds it
with a wrapper that records a span (name, start, end, parent span, solve id)
and a few exact work counts, and puts the originals back on exit. No file of
the package changes. A stage name the solver no longer binds is reported as
absent; its time then stays in the enclosing solve span, ``solver.self_s``.
A counter that cannot read its arguments is reported and skipped, so a
change of signature never stops a traced run.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

ROOT_SPAN = "solve"

# span name -> per-layer time metric (self time, seconds)
SPAN_METRICS = {
    ROOT_SPAN: "solver.self_s",
    "detect_minimal_recurrence": "recurrence.detect_s",
    "extend_sequence": "recurrence.extend_s",
    "build_moment_matrix": "moments.matrix_build_s",
    "build_localizing_matrix": "moments.localizing_build_s",
    "psd_check": "moments.psd_check_s",
    "numeric_rank": "moments.numeric_rank_s",
    "multivariate_binet": "binet.expand_s",
    "expansion_to_measure": "binet.to_measure_s",
    "verify_measure": "solver.verify_s",
    "count_atoms_in_zero_set": "solver.zero_set_s",
}
WRAPPED = tuple(name for name in SPAN_METRICS if name != ROOT_SPAN)

# per-layer count metrics; the counters also keep "recurrence.fit_accepts"
# and "binet.atoms", which only enter the reported ratios
COUNT_NAMES = (
    "recurrence.detect_calls",
    "recurrence.fit_orders",
    "recurrence.fit_rows",
    "recurrence.extend_entries",
    "moments.matrix_builds",
    "moments.matrix_entries",
    "moments.matrix_rebuilds",
    "moments.localizing_builds",
    "moments.decompositions",
    "moments.decomp_n3",
    "binet.grid_points",
)


def basis_size(dim: int, degree: int) -> int:
    """Monomials of total degree <= degree in dim variables."""
    return math.comb(degree + dim, dim) if degree >= 0 else 0


class Tracer:
    """Records spans and counts while installed on a solver module."""

    def __init__(self, solver_module, no_recurrence_error: type[BaseException]):
        self.module = solver_module
        self.no_recurrence_error = no_recurrence_error
        self.spans: list[list] = []  # [name, start, end, parent index, solve id]
        self.counts: Counter = Counter()
        self.count_errors: Counter = Counter()
        self.absent = [n for n in WRAPPED if not callable(getattr(solver_module, n, None))]
        self._stack: list[int] = []
        self._solve = -1
        self._built: dict[tuple[int, int], object] = {}
        self._originals: dict[str, object] = {}

    def __enter__(self) -> "Tracer":
        for name in WRAPPED:
            if name not in self.absent:
                original = getattr(self.module, name)
                self._originals[name] = original
                setattr(self.module, name, self._wrap(name, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for name, original in self._originals.items():
            setattr(self.module, name, original)
        self._originals.clear()

    def solve(self, fn, *args):
        """Run one top-level solve under its own root span and solve id."""
        self._solve += 1
        self._built.clear()
        return self._span(ROOT_SPAN, fn, args, {})

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _span(self, name, fn, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._solve]
        self.spans.append(span)
        self._stack.append(index)
        result = error = None
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = exc
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            counter = _COUNTERS.get(name)
            if counter is not None:
                try:
                    counter(self, args, kwargs, result, error)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.count_errors[name] += 1

    def self_times(self) -> dict[str, float]:
        """Per-name self time: span duration minus its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            totals[name] += (end - start) - inner
        return dict(totals)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_detect(tracer, args, kwargs, result, error):
    seq = _arg(args, kwargs, 0, "seq")
    c = tracer.counts
    c["recurrence.detect_calls"] += 1
    if error is None:
        orders = result[0].degree
        c["recurrence.fit_accepts"] += 1
    elif isinstance(error, tracer.no_recurrence_error):
        orders = seq.max_degree // 2
    else:
        return
    c["recurrence.fit_orders"] += orders
    c["recurrence.fit_rows"] += sum(
        basis_size(seq.dim, seq.max_degree - k) for k in range(1, orders + 1)
    )


def _count_extend(tracer, args, kwargs, result, error):
    if error is None:
        seq = _arg(args, kwargs, 0, "seq")
        tracer.counts["recurrence.extend_entries"] += basis_size(
            seq.dim, result.max_degree
        ) - basis_size(seq.dim, seq.max_degree)


def _count_matrix(tracer, args, kwargs, result, error):
    seq = _arg(args, kwargs, 0, "seq")
    order = _arg(args, kwargs, 1, "order")
    n = basis_size(seq.dim, order)
    c = tracer.counts
    c["moments.matrix_builds"] += 1
    c["moments.matrix_entries"] += n * n
    key = (id(seq), order)
    if key in tracer._built:
        c["moments.matrix_rebuilds"] += 1
    # holding the sequence keeps its id from being reused within the solve
    tracer._built[key] = seq


def _count_localizing(tracer, args, kwargs, result, error):
    tracer.counts["moments.localizing_builds"] += 1


def _count_decomposition(tracer, args, kwargs, result, error):
    n = _arg(args, kwargs, 0, "matrix").entries.shape[0]
    tracer.counts["moments.decompositions"] += 1
    tracer.counts["moments.decomp_n3"] += n**3


def _count_expand(tracer, args, kwargs, result, error):
    system = _arg(args, kwargs, 0, "system")
    tracer.counts["binet.grid_points"] += math.prod(p.degree for p in system.polys)


def _count_measure(tracer, args, kwargs, result, error):
    if error is None:
        tracer.counts["binet.atoms"] += result.atom_count


_COUNTERS = {
    "detect_minimal_recurrence": _count_detect,
    "extend_sequence": _count_extend,
    "build_moment_matrix": _count_matrix,
    "build_localizing_matrix": _count_localizing,
    "psd_check": _count_decomposition,
    "numeric_rank": _count_decomposition,
    "multivariate_binet": _count_expand,
    "expansion_to_measure": _count_measure,
}
