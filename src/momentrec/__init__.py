"""Atomic-measure recovery from truncated moment sequences.

The pipeline detects one minimal linear recurrence per variable, extends the
moment data as far as those recurrences allow, checks positivity of the
moment matrices, expands the sequence over the characteristic-root grid, and
converts the expansion into a weighted sum of point masses. Localizing
matrices certify support inside a semialgebraic set and count atoms on each
constraint's zero set.
"""

from .binet import (
    AtomicMeasure,
    BinetExpansion,
    evaluate_moments,
    expansion_to_measure,
    lagrange_interpolant,
    multivariate_binet,
    univariate_binet,
)
from .errors import (
    ComplexAtomError,
    InconsistentRecurrenceError,
    InsufficientDataError,
    InsufficientInitialDataError,
    MomentError,
    NegativeWeightError,
    NoRecurrenceError,
    RepeatedRootsError,
)
from .indexing import (
    basis_size,
    degree_lex_rank,
    enumerate_basis,
    iter_basis,
    total_degree,
)
from .moments import (
    MomentMatrix,
    PsdCheck,
    TruncatedSequence,
    bilinear_form,
    build_localizing_matrix,
    build_moment_matrix,
    max_localizing_order,
    numeric_rank,
    psd_check,
    shift_sequence,
)
from .polynomials import MultivariatePoly, UnivariatePoly, poly_roots
from .recurrence import (
    CharacteristicSystem,
    detect_characteristic_system,
    detect_minimal_recurrence,
    extend_sequence,
    verify_annihilation,
)
from .sampling import (
    SampledInstance,
    minimal_tau,
    sample_coordinates,
    sample_instance,
    sample_measure,
)
from .solver import (
    STATUS_COMPLEX_ATOM,
    STATUS_NEGATIVE_WEIGHT,
    STATUS_NOT_POSITIVE,
    STATUS_NOT_RECURSIVE,
    STATUS_SUCCESS,
    STATUS_SUPPORT_VIOLATION,
    ConstraintRecord,
    FlatExtension,
    PsdRecord,
    SemialgebraicSet,
    SolveReport,
    Tolerances,
    count_atoms_in_zero_set,
    flat_extension_check,
    solve_constrained,
    solve_full,
    verify_measure,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "BinetExpansion",
    "CharacteristicSystem",
    "ComplexAtomError",
    "ConstraintRecord",
    "FlatExtension",
    "InconsistentRecurrenceError",
    "InsufficientDataError",
    "InsufficientInitialDataError",
    "MomentError",
    "MomentMatrix",
    "MultivariatePoly",
    "NegativeWeightError",
    "NoRecurrenceError",
    "PsdCheck",
    "PsdRecord",
    "RepeatedRootsError",
    "SampledInstance",
    "SemialgebraicSet",
    "SolveReport",
    "STATUS_COMPLEX_ATOM",
    "STATUS_NEGATIVE_WEIGHT",
    "STATUS_NOT_POSITIVE",
    "STATUS_NOT_RECURSIVE",
    "STATUS_SUCCESS",
    "STATUS_SUPPORT_VIOLATION",
    "Tolerances",
    "TruncatedSequence",
    "UnivariatePoly",
    "basis_size",
    "bilinear_form",
    "build_localizing_matrix",
    "build_moment_matrix",
    "count_atoms_in_zero_set",
    "degree_lex_rank",
    "detect_characteristic_system",
    "detect_minimal_recurrence",
    "enumerate_basis",
    "evaluate_moments",
    "expansion_to_measure",
    "extend_sequence",
    "flat_extension_check",
    "iter_basis",
    "lagrange_interpolant",
    "max_localizing_order",
    "minimal_tau",
    "multivariate_binet",
    "numeric_rank",
    "poly_roots",
    "psd_check",
    "sample_coordinates",
    "sample_instance",
    "sample_measure",
    "shift_sequence",
    "solve_constrained",
    "solve_full",
    "total_degree",
    "univariate_binet",
    "verify_annihilation",
    "verify_measure",
]
