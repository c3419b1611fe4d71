"""Scoring of solve reports against ground truth and against their own data.

Two separate questions are asked of each solve:

- ``expected``: does the outcome match what the truth implies? Clean data
  must come back as ``Success`` with the true atoms (the acceptance suite's
  criterion-1 tolerances); constrained draws must report
  ``SupportViolation`` exactly when some true atom lies left of the cut;
  signed data must be refused; noisy data may be refused or recovered to
  within 1e-3 with the right atom count. Misses feed ``failed`` and the
  ``correct_share`` metric, and known solver defects show up here.
- ``consistent``: is the report sound on its own terms? No exception, a
  known status, a detail on every refusal, and every ``Success`` reproduces
  its input moments, recomputed here without the package's evaluator. A
  miss clears the benchmark's ``correct`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STATUSES = (
    "Success",
    "NotRecursive",
    "NotPositive",
    "NegativeWeight",
    "ComplexAtom",
    "SupportViolation",
)

# criterion-1 tolerances of the acceptance suite
COORD_TOL = 1e-6
WEIGHT_TOL = 1e-6
RESIDUAL_TOL = 1e-6
# a noisy Success counts as right when its atoms are this close
NOISY_COORD_TOL = 1e-3
# room for rounding between two ways of evaluating the same moments
RECOMPUTE_SLACK = 1e-12
CHUNK = 4096


@dataclass(frozen=True)
class Outcome:
    status: str
    atoms: int | None
    expected: bool
    wrong_success: bool
    consistent: bool
    note: str = ""


def moment_residual(points, weights, seq) -> float:
    """max |beta_i - sum w p^i| / (1 + |beta_i|), evaluated in chunks."""
    index = np.array(sorted(seq.values), dtype=np.int64).reshape(-1, seq.dim)
    beta = np.array([seq.values[tuple(i)] for i in index.tolist()])
    pts = np.asarray(points, dtype=float).reshape(-1, seq.dim)
    w = np.asarray(weights, dtype=float)
    worst = 0.0
    for lo in range(0, len(index), CHUNK):
        block = index[lo:lo + CHUNK]
        prod = np.ones((len(pts), len(block)))
        for axis in range(seq.dim):
            prod *= pts[:, axis:axis + 1] ** block[:, axis]
        recon = w @ prod
        part = beta[lo:lo + CHUNK]
        worst = max(worst, float(np.max(np.abs(part - recon) / (1.0 + np.abs(part)))))
    return worst


def atom_gaps(truth, measure) -> tuple[float, float]:
    """Worst coordinate and weight gaps under nearest-true-atom matching."""
    if measure.atom_count == 0:
        return np.inf, np.inf
    tp = np.asarray(truth.points, dtype=float)
    rp = np.asarray(measure.points, dtype=float)
    dist = np.max(np.abs(rp[:, None, :] - tp[None, :, :]), axis=2)
    nearest = np.argmin(dist, axis=1)
    coord = float(np.max(dist[np.arange(len(rp)), nearest]))
    weight = float(np.max(np.abs(np.asarray(truth.weights)[nearest] - measure.weights)))
    return coord, weight


def _matches(truth, measure, coord_tol, weight_tol) -> bool:
    if measure is None or measure.atom_count != truth.atom_count:
        return False
    coord, weight = atom_gaps(truth, measure)
    return coord <= coord_tol and weight <= weight_tol


def _violates(constraints, points) -> bool:
    return any(
        q.evaluate(p) < -RESIDUAL_TOL * (1.0 + q.max_coefficient)
        for q in constraints.constraints
        for p in points
    )


def _expectation(case, report) -> tuple[bool, bool]:
    """(outcome matches the truth, outcome is a Success that misses it)."""
    success = report.status == "Success"
    if case.kind == "signed":
        return not success, success
    if case.kind.startswith("noise"):
        right = _matches(case.truth, report.measure, NOISY_COORD_TOL, np.inf)
        return not success or right, success and not right
    atoms_right = _matches(case.truth, report.measure, COORD_TOL, WEIGHT_TOL)
    if case.constraints is None:
        right = success and atoms_right and report.moment_residual < RESIDUAL_TOL
        return right, success and not right
    want = "SupportViolation" if _violates(case.constraints, case.truth.points) else "Success"
    right = report.status == want and atoms_right
    return right, success and not right


def _consistency(case, report) -> str:
    """Empty when the report is sound on its own terms, else the reason."""
    if report.status not in STATUSES:
        return f"unknown status {report.status!r}"
    if report.status != "Success":
        if not report.detail:
            return f"{report.status} without a detail"
        if report.status == "SupportViolation" and not _violates(
            case.constraints, report.measure.points
        ):
            return "SupportViolation but every atom satisfies the constraints"
        return ""
    if report.measure is None:
        return "Success without a measure"
    if report.measure.atom_count == 0:
        return ""
    recomputed = moment_residual(report.measure.points, report.measure.weights, case.moments)
    limit = report.tolerances.residual + RECOMPUTE_SLACK
    if recomputed > limit:
        return f"Success whose atoms miss the data by {recomputed:.3e} > {limit:.3e}"
    if case.constraints is not None and _violates(case.constraints, report.measure.points):
        return "Success with an atom outside the constraint set"
    return ""


def score(case, report, error: BaseException | None = None) -> Outcome:
    """Judge one solve; ``error`` is the exception it raised, if any."""
    if error is not None:
        return Outcome(type(error).__name__, None, False, False, False, repr(error))
    atoms = report.measure.atom_count if report.measure is not None else None
    expected, wrong = _expectation(case, report)
    problem = _consistency(case, report)
    return Outcome(report.status, atoms, expected, wrong, not problem, problem)
