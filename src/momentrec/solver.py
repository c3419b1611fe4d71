"""End-to-end recovery pipelines and their reports.

``solve_full`` runs: recurrence detection -> extension to degree 2(tau+1) ->
power-sum expansion -> measure conversion -> PSD checks of M(tau) and
M(tau+1) -> moment verification. ``solve_constrained`` refuses a zero or
wrong-dimension constraint with ValueError before the first stage, and adds,
for each constraint q, a localizing-matrix analysis and a sign check of q on
the recovered atoms.

Every matrix checked is M(n) of one sequence: the extended data beta for
M(tau) and M(tau+1), q * beta (``moments.shift_sequence``) for a
constraint's localizing matrix M_q(n). The PSD checks follow the expansion
because they read its measure. One pass over the measure
(``moments.moments_and_grams``) gives its moments to the extension's
degree, hence the data's misfit and the moment residual, and the Gram sums
of every matrix of ``CERTIFY_MIN_SIZE`` rows or more. Such a matrix is
checked from its bracket (``moments.moment_bracket``, then
``moments.signed_bracket`` for a constraint negative at some atom) and
gathered from its sequence for eigvalsh only where neither certifies it;
smaller ones always go to eigvalsh. The eigvalsh path is the arithmetic of
``moments.psd_check`` and ``moments.numeric_rank`` on the gathered entries
(``indexing.moment_plan``), M(tau) being the leading block of M(tau+1)'s,
with no ``MomentMatrix`` made.

One solve builds one SolveReport, at whichever exit it reaches. Its status is
the first failing check in this order:

    NotRecursive      detection/extension failed, the recovered measure
                      does not reproduce the data within tolerance, or a
                      constraint's shifted sequence q * beta overflows
    NotPositive       M(tau) or M(tau+1) has a significantly negative eigenvalue
    stage error       the expansion or measure conversion raised: RepeatedRoots
                      -> NotPositive (it certifies the same obstruction),
                      NegativeWeight -> NegativeWeight, ComplexAtom ->
                      ComplexAtom, any other error -> NotRecursive
    SupportViolation  some atom leaves the semialgebraic set

A failed PSD check takes precedence over a stage error; a negative weight or
complex atom found after it is named in the detail as the expansion witness.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .binet import (
    DEFAULT_IMAG_TOL,
    DEFAULT_WEIGHT_TOL,
    AtomicMeasure,
    evaluate_moments,
    expansion_to_measure,
    multivariate_binet,
    relative_misfit,
)
from .errors import (
    ComplexAtomError,
    InsufficientDataError,
    MomentError,
    NegativeWeightError,
    NonFiniteShiftError,
    RepeatedRootsError,
)
from .indexing import basis_size, moment_plan
from .moments import (
    CERTIFY_MIN_SIZE,
    DEFAULT_PSD_TOL,
    DEFAULT_RANK_TOL,
    GramSum,
    TruncatedSequence,
    _bracket_rank,
    bracket_check,
    build_moment_matrix,
    max_localizing_order,
    misfit_bound,
    moment_bracket,
    moments_and_grams,
    numeric_rank,
    psd_check,  # unused here; bound for perfbench's stage tracer, which looks it up
    shift_sequence,
    signed_bracket,
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

# status of an expansion-stage error; any other stage error is NotRecursive
_STAGE_STATUS = {
    RepeatedRootsError: STATUS_NOT_POSITIVE,
    NegativeWeightError: STATUS_NEGATIVE_WEIGHT,
    ComplexAtomError: STATUS_COMPLEX_ATOM,
}


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
    """PSD and rank diagnostics for one moment or localizing matrix.

    ``min_eigenvalue`` is a certified lower bound on the smallest eigenvalue
    where ``certified`` is set (see ``moments.bracket_check``), else eigvalsh's
    value. A certified record may be PSD or, for a localizing matrix whose
    constraint is negative at some atom, not PSD; either way its verdict and
    rank are those eigvalsh would give.
    """

    order: int
    min_eigenvalue: float
    is_psd: bool
    rank: int
    certified: bool = field(default=False, kw_only=True)


@dataclass(frozen=True)
class ConstraintRecord(PsdRecord):
    """A localizing matrix's PSD record plus pointwise checks of its constraint."""

    polynomial: MultivariatePoly
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


def _psd_fields(record: PsdRecord, tol: Tolerances) -> dict:
    return {
        "order": record.order,
        "min_eigenvalue": record.min_eigenvalue,
        "is_psd": record.is_psd,
        "psd_tolerance": tol.psd,
        "rank": record.rank,
        "rank_tolerance": tol.rank,
    }


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Everything one pipeline run computed, plus the final status."""

    status: str
    dim: int
    tolerances: Tolerances
    system: CharacteristicSystem | None = None
    psd_records: tuple[PsdRecord, ...] = ()
    expansion_residual: float | None = None
    measure: AtomicMeasure | None = None
    moment_residual: float | None = None
    constraint_records: tuple[ConstraintRecord, ...] = ()
    detail: str | None = None

    @property
    def tau(self) -> int | None:
        return None if self.system is None else self.system.tau

    def to_dict(self) -> dict:
        tol = self.tolerances

        def residual(value: float | None) -> dict | None:
            return None if value is None else {"value": value, "tolerance": tol.residual}

        return {
            "status": self.status,
            "detail": self.detail,
            "dim": self.dim,
            "tau": self.tau,
            "system": self.system.to_dict() if self.system else None,
            "psd": [_psd_fields(r, tol) for r in self.psd_records],
            "expansion_residual": residual(self.expansion_residual),
            "measure": self.measure.to_dict() if self.measure else None,
            "moment_residual": residual(self.moment_residual),
            "constraints": [
                {
                    "polynomial": r.polynomial.to_dict(),
                    **_psd_fields(r, tol),
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


def _measure_brackets(
    points: np.ndarray | None,
    sums: GramSum | None,
    misfit: TruncatedSequence | None,
    rank_tol: float,
    scale: float | None,
) -> Iterator:
    """One matrix's brackets from the measure's ``sums``, each made when it is tried.

    First the Gram bracket, then, where the diagonal w q(x) has a negative
    entry, the factor's ``signed_bracket``, which can certify a failing
    verdict; both take one ``misfit_bound``. The Gram bracket is None, with
    no eigvalsh, where its radius alone leaves the rank at ``rank_tol`` and
    ``scale`` undecided (see ``moment_bracket``). A bracketed matrix has
    order >= tau, so its N rows are at least the r atoms on the root grid:
    r <= prod_l deg p_l <= C(tau + d, d) <= N. No sums (no measure, or a
    matrix too small to bracket) give no bracket.
    """
    if sums is None:
        return
    bound = misfit_bound(sums, misfit)
    yield moment_bracket(sums, bound, rank_tol, scale)
    if (sums.diagonal < 0.0).any():
        yield signed_bracket(points, sums, bound)


def _psd_record(
    seq: TruncatedSequence,
    order: int,
    tol: Tolerances,
    brackets: Iterable[tuple | None],
    full: np.ndarray | None = None,
    scale: float | None = None,
) -> tuple[PsdRecord, np.ndarray, np.ndarray | None]:
    """M(order) of ``seq``: its record, its eigenvalues and any entries gathered.

    The record comes from the first of the measure's ``brackets`` whose
    check certifies it, and the eigenvalues are then its centers; otherwise
    the entries, the leading block of ``full`` (the gathered entries of an
    M(n) of ``seq``, n > order) where given, go to eigvalsh, and the record
    is ``psd_check``'s and ``numeric_rank``'s of that matrix, bit for bit:
    the threshold from the entries' trace, the rank from the same
    ``_bracket_rank``.
    """
    for found in brackets:
        decided = None if found is None else bracket_check(
            seq, order, found, tol.psd, tol.rank, scale
        )
        if decided is not None:
            check, rank = decided
            record = PsdRecord(order, check.min_eigenvalue, check.is_psd, rank, certified=True)
            return record, found[0], None
    if full is None:
        entries = seq.array[moment_plan(seq.dim, order)]
    else:
        n = basis_size(seq.dim, order)
        entries = full[:n, :n]
    spectrum = np.linalg.eigvalsh(entries)
    lowest = float(spectrum[0])
    threshold = -tol.psd * (1.0 + abs(float(entries.trace())))
    rank = _bracket_rank(spectrum, 0.0, tol.rank, scale)
    return PsdRecord(order, lowest, lowest >= threshold, rank), spectrum, entries


def _run_stages(
    seq: TruncatedSequence,
    polys: tuple[MultivariatePoly, ...],
    tol: Tolerances,
    found: dict,
) -> tuple[str, str | None]:
    """Run the pipeline into ``found`` (SolveReport fields); return status, detail."""
    try:
        system = found["system"] = detect_characteristic_system(seq, tol.residual)
        extra = max([q.degree for q in polys], default=0)
        ext = extend_sequence(seq, system, max(seq.max_degree, 2 * (system.tau + 1) + extra))
    except MomentError as exc:  # any failure of detection or extension
        return STATUS_NOT_RECURSIVE, str(exc)

    # M(tau), M(tau+1) and each M_q; those of CERTIFY_MIN_SIZE rows or more
    # are bracketed from the measure's Gram sums and factor where there is a measure
    tau = system.tau
    matrices = [(tau, None), (tau + 1, None), *[(max_localizing_order(ext, q), q) for q in polys]]
    large = [k for k, (n, _) in enumerate(matrices) if basis_size(ext.dim, n) >= CERTIFY_MIN_SIZE]
    stage_error: Exception | None = None
    grams: dict = {}
    points = misfit = None
    try:
        expansion = multivariate_binet(system, ext)
        found["expansion_residual"] = expansion.source_residual
        measure = expansion_to_measure(expansion, tol.imag, tol.weight)
    except (*_STAGE_STATUS, InsufficientDataError, np.linalg.LinAlgError) as exc:
        stage_error = exc
    else:
        # one pass over the measure: its moments give the moment check and,
        # where a matrix is bracketed, the misfit; its Gram sums the brackets
        points = np.array(measure.points).reshape(-1, ext.dim)
        requests = [matrices[k] for k in large]
        moments, sums = moments_and_grams(points, measure.weights, ext.max_degree, requests)
        if large and np.isfinite(moments).all():
            misfit = TruncatedSequence(ext.dim, ext.max_degree, ext.array - moments)
            grams = dict(zip(large, sums))

    # M(tau) is the leading block of M(tau+1): cut it from there if that was gathered
    brackets = _measure_brackets(points, grams.get(1), misfit, tol.rank, None)
    high, spectrum, full = _psd_record(ext, tau + 1, tol, brackets)
    brackets = _measure_brackets(points, grams.get(0), misfit, tol.rank, None)
    low, _, _ = _psd_record(ext, tau, tol, brackets, full)
    psd_records = found["psd_records"] = (low, high)

    failing = [
        f"M({r.order}) has min eigenvalue {r.min_eigenvalue:.6g}"
        for r in psd_records
        if not r.is_psd
    ]
    if failing:
        detail = "moment matrix not PSD: " + ", ".join(failing)
        if isinstance(stage_error, (NegativeWeightError, ComplexAtomError)):
            detail += f"; expansion witness: {stage_error}"
        return STATUS_NOT_POSITIVE, detail
    if stage_error is not None:
        return _STAGE_STATUS.get(type(stage_error), STATUS_NOT_RECURSIVE), str(stage_error)

    found["measure"] = measure
    residual = found["moment_residual"] = relative_misfit(seq.array, moments[: seq.array.size])
    if residual > tol.residual:
        return STATUS_NOT_RECURSIVE, (
            f"recovered measure misses the data: residual {residual:.3e} > {tol.residual:.3e}"
        )
    if not polys:
        return STATUS_SUCCESS, None

    # every M_q is M(n) of q * beta; a sum that overflows refuses the solve
    shifted = []
    for k, q in enumerate(polys):
        try:
            shifted.append(shift_sequence(ext, q))
        except NonFiniteShiftError as exc:
            return STATUS_NOT_RECURSIVE, f"constraint {k}: {exc}"

    # localizing and support checks; the first violated constraint names the status
    noise_scale = float(np.abs(spectrum).max(initial=0.0))
    records = []
    violation: str | None = None
    for k, q in enumerate(polys):
        # a constraint vanishing on every atom makes this matrix zero up to
        # roundoff; its own sigma_max is then noise, so the rank cutoff is
        # floored at the parent matrix's scale times the coefficient size
        scale = noise_scale * (1.0 + q.max_coefficient)
        brackets = _measure_brackets(points, grams.get(2 + k), misfit, tol.rank, scale)
        psd, _, _ = _psd_record(shifted[k], matrices[2 + k][0], tol, brackets, scale=scale)
        threshold = tol.residual * (1.0 + q.max_coefficient)
        values = [q.evaluate(p) for p in measure.points]
        in_zero = sum(1 for value in values if abs(value) <= threshold)
        min_value = min(values, default=None)
        violated = min_value is not None and min_value < -threshold
        records.append(
            ConstraintRecord(
                **vars(psd),
                polynomial=q,
                atoms_in_zero_set=in_zero,
                min_over_atoms=min_value,
                violated=violated,
                cardinality_ok=in_zero == high.rank - psd.rank,
            )
        )
        if violated and violation is None:
            violation = (
                f"constraint {k} has q(atom) = {min_value:.6g} < -{threshold:.3g} "
                f"at atom {measure.points[values.index(min_value)]}"
            )
    found["constraint_records"] = tuple(records)
    return (STATUS_SUPPORT_VIOLATION if violation else STATUS_SUCCESS), violation


def _solve(
    seq: TruncatedSequence, constraints: SemialgebraicSet | None, tolerances: Tolerances
) -> SolveReport:
    polys = () if constraints is None else constraints.constraints
    if polys and constraints.dim != seq.dim:
        raise ValueError("constraint dimension does not match the sequence")
    if any(q.degree < 0 for q in polys):
        raise ValueError("the zero polynomial is not a usable constraint")
    found: dict = {}
    status, detail = _run_stages(seq, polys, tolerances, found)
    return SolveReport(status, seq.dim, tolerances, detail=detail, **found)


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

    Invalid constraints raise ValueError before any stage runs. The
    extension is pushed to degree 2(tau+1) + max deg q so every localizing
    matrix reaches at least order tau+1; each constraint record stores the
    localizing rank, the atom count in its zero set, the cardinality-law
    comparison, and the minimum of q over the atoms.
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
