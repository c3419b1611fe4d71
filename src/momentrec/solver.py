"""End-to-end recovery pipelines and their reports.

``solve_full`` runs: recurrence detection -> extension to degree 2(tau+1) ->
PSD checks of M(tau) and M(tau+1) -> power-sum expansion -> measure
conversion -> moment verification. ``solve_constrained`` appends, for each
constraint polynomial q, a localizing-matrix analysis plus a pointwise sign
check of q on the recovered atoms.

Every stage is recorded in a SolveReport; no failure aborts without one. The
status is the first failing stage in pipeline order:

    NotRecursive   detection/extension failed, or the recovered measure does
                   not reproduce the data within tolerance
    NotPositive    M(tau) or M(tau+1) has a significantly negative eigenvalue
                   (a repeated characteristic root is reported here too,
                   since it certifies the same obstruction)
    NegativeWeight / ComplexAtom   propagated from the measure conversion
    SupportViolation               some atom leaves the semialgebraic set

When a PSD check fails the later stages still run in diagnostic mode and
their findings are appended to the report detail, so a signed-data report
also names the offending expansion coefficient when there is one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .binet import (
    DEFAULT_IMAG_TOL,
    DEFAULT_WEIGHT_TOL,
    AtomicMeasure,
    BinetExpansion,
    evaluate_moments,
    expansion_to_measure,
    multivariate_binet,
    relative_misfit,
)
from .errors import (
    ComplexAtomError,
    InconsistentRecurrenceError,
    InsufficientDataError,
    InsufficientInitialDataError,
    NegativeWeightError,
    NoRecurrenceError,
    RepeatedRootsError,
)
from .moments import (
    DEFAULT_PSD_TOL,
    DEFAULT_RANK_TOL,
    MomentMatrix,
    TruncatedSequence,
    build_localizing_matrix,
    build_moment_matrix,
    max_localizing_order,
    numeric_rank,
    psd_check,
)
from .polynomials import MultivariatePoly
from .recurrence import (
    DEFAULT_FIT_TOL,
    CharacteristicSystem,
    detect_characteristic_system,
    extend_sequence,
)

__all__ = [
    "Tolerances",
    "SemialgebraicSet",
    "PsdRecord",
    "ConstraintRecord",
    "FlatExtension",
    "SolveReport",
    "solve_full",
    "solve_constrained",
    "flat_extension_check",
    "count_atoms_in_zero_set",
    "verify_measure",
    "STATUS_SUCCESS",
    "STATUS_NOT_RECURSIVE",
    "STATUS_NOT_POSITIVE",
    "STATUS_NEGATIVE_WEIGHT",
    "STATUS_COMPLEX_ATOM",
    "STATUS_SUPPORT_VIOLATION",
]

STATUS_SUCCESS = "Success"
STATUS_NOT_RECURSIVE = "NotRecursive"
STATUS_NOT_POSITIVE = "NotPositive"
STATUS_NEGATIVE_WEIGHT = "NegativeWeight"
STATUS_COMPLEX_ATOM = "ComplexAtom"
STATUS_SUPPORT_VIOLATION = "SupportViolation"


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances used across one solve."""

    rank: float = DEFAULT_RANK_TOL
    psd: float = DEFAULT_PSD_TOL
    imag: float = DEFAULT_IMAG_TOL
    weight: float = DEFAULT_WEIGHT_TOL
    residual: float = DEFAULT_FIT_TOL

    def __post_init__(self):
        for name in (field.name for field in fields(self)):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"tolerance '{name}' must be finite and positive, got {value}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SemialgebraicSet:
    """Intersection of polynomial nonnegativity constraints q_i >= 0."""

    constraints: tuple[MultivariatePoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        dims = {q.dim for q in self.constraints}
        if len(dims) > 1:
            raise ValueError("constraints disagree on dimension")

    @property
    def dim(self) -> int | None:
        return self.constraints[0].dim if self.constraints else None


@dataclass(frozen=True)
class PsdRecord:
    """PSD and rank diagnostics for one moment matrix."""

    order: int
    min_eigenvalue: float
    is_psd: bool
    rank: int


@dataclass(frozen=True)
class ConstraintRecord:
    """Localizing-matrix and pointwise diagnostics for one constraint."""

    polynomial: MultivariatePoly
    order: int
    min_eigenvalue: float
    is_psd: bool
    rank: int
    atoms_in_zero_set: int
    min_over_atoms: float | None
    violated: bool
    cardinality_ok: bool


@dataclass(frozen=True)
class FlatExtension:
    """Rank comparison between consecutive moment-matrix orders."""

    flat: bool
    rank_n: int
    rank_next: int


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Everything one pipeline run computed, plus the final status."""

    status: str
    dim: int
    tolerances: Tolerances
    system: CharacteristicSystem | None = None
    tau: int | None = None
    psd_records: tuple[PsdRecord, ...] = ()
    expansion_residual: float | None = None
    measure: AtomicMeasure | None = None
    moment_residual: float | None = None
    constraint_records: tuple[ConstraintRecord, ...] = ()
    detail: str | None = None

    def to_dict(self) -> dict:
        tol = self.tolerances
        out = {
            "status": self.status,
            "detail": self.detail,
            "dim": self.dim,
            "tau": self.tau,
            "system": self.system.to_dict() if self.system else None,
            "psd": [
                {
                    "order": r.order,
                    "min_eigenvalue": r.min_eigenvalue,
                    "is_psd": r.is_psd,
                    "psd_tolerance": tol.psd,
                    "rank": r.rank,
                    "rank_tolerance": tol.rank,
                }
                for r in self.psd_records
            ],
            "expansion_residual": None
            if self.expansion_residual is None
            else {"value": self.expansion_residual, "tolerance": tol.residual},
            "measure": self.measure.to_dict() if self.measure else None,
            "moment_residual": None
            if self.moment_residual is None
            else {"value": self.moment_residual, "tolerance": tol.residual},
            "constraints": [
                {
                    "polynomial": r.polynomial.to_dict(),
                    "order": r.order,
                    "min_eigenvalue": r.min_eigenvalue,
                    "is_psd": r.is_psd,
                    "psd_tolerance": tol.psd,
                    "rank": r.rank,
                    "rank_tolerance": tol.rank,
                    "atoms_in_zero_set": r.atoms_in_zero_set,
                    "min_over_atoms": r.min_over_atoms,
                    "support_tolerance": tol.residual,
                    "violated": r.violated,
                    "cardinality_ok": r.cardinality_ok,
                }
                for r in self.constraint_records
            ],
            "tolerances": tol.to_dict(),
        }
        return out


def verify_measure(measure: AtomicMeasure, seq: TruncatedSequence) -> float:
    """Max over |i| <= max_degree of |beta_i - moment_i| / (1 + |beta_i|)."""
    if measure.dim != seq.dim:
        raise ValueError("dimension mismatch between measure and sequence")
    return relative_misfit(seq.array, evaluate_moments(measure, seq.max_degree).array)


def count_atoms_in_zero_set(
    measure: AtomicMeasure, q: MultivariatePoly, tol: float = DEFAULT_FIT_TOL
) -> int:
    """Atoms with |q(atom)| <= tol * (1 + max |coefficient of q|)."""
    if measure.dim != q.dim:
        raise ValueError("dimension mismatch between measure and polynomial")
    threshold = tol * (1.0 + q.max_coefficient)
    return sum(1 for p in measure.points if abs(q.evaluate(p)) <= threshold)


def _psd_record(matrix: MomentMatrix, tol: Tolerances) -> PsdRecord:
    check = psd_check(matrix, tol.psd)
    return PsdRecord(
        order=matrix.order,
        min_eigenvalue=check.min_eigenvalue,
        is_psd=check.is_psd,
        rank=numeric_rank(matrix, tol.rank),
    )


def _constraint_stage(
    report: SolveReport,
    ext: TruncatedSequence,
    parent: MomentMatrix,
    constraints: SemialgebraicSet,
    tol: Tolerances,
) -> SolveReport:
    measure = report.measure
    rank_full = report.psd_records[-1].rank
    noise_scale = float(np.abs(parent.eigenvalues).max())
    records = []
    first_violation: str | None = None
    for k, q in enumerate(constraints.constraints):
        if q.dim != ext.dim:
            raise ValueError("constraint dimension does not match the sequence")
        if q.degree < 0:
            raise ValueError("the zero polynomial is not a usable constraint")
        order = max_localizing_order(ext, q)
        matrix = build_localizing_matrix(ext, order, q)
        check = psd_check(matrix, tol.psd)
        # a constraint vanishing on every atom makes this matrix zero up to
        # roundoff; its own sigma_max is then noise, so the rank cutoff is
        # floored at the parent matrix's scale times the coefficient size
        rank = numeric_rank(
            matrix, tol.rank, scale=noise_scale * (1.0 + q.max_coefficient)
        )
        in_zero = count_atoms_in_zero_set(measure, q, tol.residual)
        support_threshold = tol.residual * (1.0 + q.max_coefficient)
        if measure.atom_count:
            values = [q.evaluate(p) for p in measure.points]
            min_value = min(values)
            violated = min_value < -support_threshold
        else:
            min_value = None
            violated = False
        records.append(
            ConstraintRecord(
                polynomial=q,
                order=order,
                min_eigenvalue=check.min_eigenvalue,
                is_psd=check.is_psd,
                rank=rank,
                atoms_in_zero_set=in_zero,
                min_over_atoms=min_value,
                violated=violated,
                cardinality_ok=in_zero == rank_full - rank,
            )
        )
        if violated and first_violation is None:
            worst = measure.points[int(np.argmin(values))]
            first_violation = (
                f"constraint {k} has q(atom) = {min_value:.6g} < "
                f"-{support_threshold:.3g} at atom {worst}"
            )
    out = replace(report, constraint_records=tuple(records))
    if first_violation is not None:
        out = replace(out, status=STATUS_SUPPORT_VIOLATION, detail=first_violation)
    return out


def _solve(
    seq: TruncatedSequence, constraints: SemialgebraicSet | None, tolerances: Tolerances
) -> SolveReport:
    base = SolveReport(status=STATUS_SUCCESS, dim=seq.dim, tolerances=tolerances)

    try:
        system = detect_characteristic_system(seq, tolerances.residual)
    except NoRecurrenceError as exc:
        return replace(base, status=STATUS_NOT_RECURSIVE, detail=str(exc))
    base = replace(base, system=system, tau=system.tau)

    q_degrees = [q.degree for q in constraints.constraints] if constraints else []
    target = max(seq.max_degree, 2 * (system.tau + 1) + max(q_degrees, default=0))
    try:
        ext = extend_sequence(seq, system, target)
    except (InconsistentRecurrenceError, InsufficientInitialDataError) as exc:
        return replace(base, status=STATUS_NOT_RECURSIVE, detail=str(exc))

    # M(tau) is the leading block of M(tau+1), which the constraint stage reuses
    full = build_moment_matrix(ext, system.tau + 1)
    psd_records = tuple(_psd_record(m, tolerances) for m in (full.truncate(system.tau), full))
    base = replace(base, psd_records=psd_records)
    psd_ok = all(r.is_psd for r in psd_records)

    expansion: BinetExpansion | None = None
    measure: AtomicMeasure | None = None
    stage_error: Exception | None = None
    try:
        expansion = multivariate_binet(system, ext)
        measure = expansion_to_measure(expansion, tolerances.imag, tolerances.weight)
    except (
        RepeatedRootsError,
        InsufficientDataError,
        NegativeWeightError,
        ComplexAtomError,
        np.linalg.LinAlgError,
    ) as exc:
        stage_error = exc
    if expansion is not None:
        base = replace(base, expansion_residual=expansion.source_residual)

    if not psd_ok:
        failing = ", ".join(
            f"M({r.order}) has min eigenvalue {r.min_eigenvalue:.6g}"
            for r in psd_records
            if not r.is_psd
        )
        detail = f"moment matrix not PSD: {failing}"
        if isinstance(stage_error, (NegativeWeightError, ComplexAtomError)):
            detail += f"; expansion witness: {stage_error}"
        return replace(base, status=STATUS_NOT_POSITIVE, detail=detail)

    if isinstance(stage_error, RepeatedRootsError):
        # a genuinely repeated characteristic root certifies the same
        # obstruction as a failed PSD check
        return replace(base, status=STATUS_NOT_POSITIVE, detail=str(stage_error))
    if isinstance(stage_error, NegativeWeightError):
        return replace(base, status=STATUS_NEGATIVE_WEIGHT, detail=str(stage_error))
    if isinstance(stage_error, ComplexAtomError):
        return replace(base, status=STATUS_COMPLEX_ATOM, detail=str(stage_error))
    if stage_error is not None:
        return replace(base, status=STATUS_NOT_RECURSIVE, detail=str(stage_error))

    base = replace(base, measure=measure)
    residual = verify_measure(measure, seq)
    base = replace(base, moment_residual=residual)
    if residual > tolerances.residual:
        return replace(
            base,
            status=STATUS_NOT_RECURSIVE,
            detail=(
                f"recovered measure misses the data: residual {residual:.3e} "
                f"> {tolerances.residual:.3e}"
            ),
        )

    if constraints is not None and constraints.constraints:
        base = _constraint_stage(base, ext, full, constraints, tolerances)
    return base


def solve_full(
    seq: TruncatedSequence, tolerances: Tolerances = Tolerances()
) -> SolveReport:
    """Recover the unique representing measure of a recursive sequence."""
    return _solve(seq, None, tolerances)


def solve_constrained(
    seq: TruncatedSequence,
    constraints: SemialgebraicSet,
    tolerances: Tolerances = Tolerances(),
) -> SolveReport:
    """solve_full plus localizing and support checks for each constraint.

    The extension is pushed to degree 2(tau+1) + max deg q so every
    localizing matrix reaches at least order tau+1; each constraint record
    stores the localizing rank, the atom count in its zero set, the
    cardinality-law comparison, and the minimum of q over the atoms.
    """
    return _solve(seq, constraints, tolerances)


def flat_extension_check(
    seq: TruncatedSequence,
    system: CharacteristicSystem | None,
    order: int,
    tolerances: Tolerances = Tolerances(),
) -> FlatExtension:
    """Compare numeric ranks of M(order) and M(order+1).

    Needs moments to degree 2*order + 2; if the sequence is shorter it is
    extended through ``system`` (detected on the fly when None, which raises
    NoRecurrenceError if the data supports no recurrence).
    """
    needed = 2 * (order + 1)
    if system is None and seq.max_degree < needed:
        system = detect_characteristic_system(seq, tolerances.residual)
    ext = seq if system is None else extend_sequence(seq, system, needed)
    full = build_moment_matrix(ext, order + 1)
    rank_n = numeric_rank(full.truncate(order), tolerances.rank)
    rank_next = numeric_rank(full, tolerances.rank)
    return FlatExtension(flat=rank_n == rank_next, rank_n=rank_n, rank_next=rank_next)
