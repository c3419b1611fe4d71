"""Detection, verification, and use of per-variable linear recurrences.

A dense truncated multisequence is *recursively generated* along variable l
if shifting by one step in that variable satisfies a fixed linear recurrence
regardless of the other exponents. The minimal such recurrence per variable
is found by a joint least-squares fit over every available index, scanning
the recurrence order upward; its monic characteristic polynomial has the
recurrence weights as (negated) lower coefficients.

The characteristic system drives two things: extending the sequence to higher
degree, and the annihilation test M(beta) . vec(p_l) = 0 against a moment
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    InconsistentRecurrenceError,
    InsufficientInitialDataError,
    NoRecurrenceError,
)
from .indexing import basis_array, basis_size, extension_plan, window_plan
from .moments import MomentMatrix, TruncatedSequence
from .polynomials import MultivariatePoly, UnivariatePoly

__all__ = [
    "CharacteristicSystem",
    "detect_minimal_recurrence",
    "detect_characteristic_system",
    "extend_sequence",
    "verify_annihilation",
]

DEFAULT_FIT_TOL = 1e-6
DEFAULT_CONSISTENCY_TOL = 1e-7


@dataclass(frozen=True)
class CharacteristicSystem:
    """One monic characteristic polynomial per variable."""

    polys: tuple[UnivariatePoly, ...]
    tau: int
    residual: float

    def __post_init__(self):
        if not self.polys:
            raise ValueError("a characteristic system needs at least one variable")
        for p in self.polys:
            if p.degree < 1:
                raise ValueError("characteristic polynomials must have degree >= 1")
            if not p.is_monic:
                raise ValueError("characteristic polynomials must be monic")
        expected = sum(p.degree - 1 for p in self.polys)
        if self.tau != expected:
            raise ValueError(f"tau {self.tau} does not match degrees (expected {expected})")

    @property
    def dim(self) -> int:
        return len(self.polys)

    def to_dict(self) -> dict:
        return {
            "polys": [p.to_dict() for p in self.polys],
            "tau": self.tau,
            "residual": self.residual,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CharacteristicSystem":
        for key in ("polys", "tau", "residual"):
            if key not in data:
                raise ValueError(f"characteristic system JSON is missing '{key}'")
        polys = tuple(UnivariatePoly.from_dict(p) for p in data["polys"])
        return cls(polys=polys, tau=int(data["tau"]), residual=float(data["residual"]))

    @classmethod
    def from_polys(cls, polys, residual: float = 0.0) -> "CharacteristicSystem":
        polys = tuple(polys)
        tau = sum(p.degree - 1 for p in polys)
        return cls(polys=polys, tau=tau, residual=residual)


def _fit_order(window: np.ndarray, order: int):
    """Joint least-squares fit of a fixed-order recurrence along one axis.

    Row r of ``window`` holds beta_{i + p*e}, p = 0, 1, ..., for the r-th
    index i with |i| + order <= max_degree: one equation
    beta_{i + order*e} = sum_k a_k beta_{i + (order-k)*e} each. Returns the
    weights and the relative residual ||A a - b|| / (1 + ||b||).
    """
    a_mat = np.ascontiguousarray(window[:, order - 1 :: -1])
    b_vec = window[:, order]
    weights, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    residual = float(np.linalg.norm(a_mat @ weights - b_vec))
    residual /= 1.0 + float(np.linalg.norm(b_vec))
    return weights, residual


def detect_minimal_recurrence(
    seq: TruncatedSequence, axis: int, tol: float = DEFAULT_FIT_TOL
) -> tuple[UnivariatePoly, float]:
    """Least-order recurrence along one variable, as a monic polynomial.

    Candidate orders are scanned upward; the first whose joint fit residual
    drops below ``tol`` wins. Orders beyond max_degree // 2 are not data
    supported (the fit would be underdetermined and trivially consistent),
    so exceeding that bound raises NoRecurrenceError.
    """
    if not 0 <= axis < seq.dim:
        raise ValueError(f"axis {axis} out of range for dimension {seq.dim}")
    max_order = seq.max_degree // 2
    # one gather serves every order; entries past max_degree are clipped, never read
    window = seq.array.take(window_plan(seq.dim, seq.max_degree, axis), mode="clip")
    best = np.inf
    for order in range(1, max_order + 1):
        rows = basis_size(seq.dim, seq.max_degree - order)
        weights, residual = _fit_order(window[:rows], order)
        if residual < tol:
            # x^order - sum_k a_k x^(order-k), lowest coefficient first
            coeffs = [-float(w) for w in weights[::-1]] + [1.0]
            return UnivariatePoly(tuple(coeffs)), residual
        best = min(best, residual)
    raise NoRecurrenceError(axis, max_order, best)


def detect_characteristic_system(
    seq: TruncatedSequence, tol: float = DEFAULT_FIT_TOL
) -> CharacteristicSystem:
    """Minimal recurrences for every variable, with tau = sum(deg - 1)."""
    fits = [detect_minimal_recurrence(seq, axis, tol) for axis in range(seq.dim)]
    polys, residuals = zip(*fits)
    return CharacteristicSystem.from_polys(polys, residual=max(residuals))


def extend_sequence(
    seq: TruncatedSequence,
    system: CharacteristicSystem,
    target_degree: int,
    consistency_tol: float = DEFAULT_CONSISTENCY_TOL,
) -> TruncatedSequence:
    """Fill the sequence up to target_degree using the recurrences.

    Entries are produced in ascending total degree (degree-lex within each
    block) by the lowest-index variable whose recurrence window is available;
    any other applicable variable recomputes the value as a consistency check
    within ``consistency_tol`` (relative). Entries reachable by no variable
    raise InsufficientInitialDataError.
    """
    if system.dim != seq.dim:
        raise ValueError("dimension mismatch between sequence and system")
    if target_degree <= seq.max_degree:
        return seq
    degrees = [p.degree for p in system.polys]
    # weights a_k with beta_{i+s e} = sum_k a_k beta_{i+(s-k) e}, k = 1..s
    weights = [-np.array(p.coeffs[-2::-1]) for p in system.polys]
    values = np.empty(basis_size(seq.dim, target_degree))
    values[: seq.array.size] = seq.array

    for t in range(seq.max_degree + 1, target_degree + 1):
        # a block depends only on lower degrees, so it is produced in one step
        start = basis_size(seq.dim, t - 1)
        size = basis_size(seq.dim, t) - start
        producers = np.zeros((size, seq.dim), dtype=bool)
        produced = np.zeros((size, seq.dim))
        for axis in range(seq.dim):
            rows, ranks = extension_plan(seq.dim, t, axis, degrees[axis])
            window = values[ranks]
            producers[rows, axis] = True
            # summed term by term in k, the order an entry-by-entry fill uses
            produced[rows, axis] = sum(w * window[:, k] for k, w in enumerate(weights[axis]))
        # the lowest producing variable sets the value, the others must agree
        value = produced[np.arange(size), producers.argmax(axis=1)]
        limit = consistency_tol * (1.0 + np.maximum(np.abs(value)[:, None], np.abs(produced)))
        disagree = producers & (np.abs(produced - value[:, None]) > limit)
        failing = np.flatnonzero(~producers.any(axis=1) | disagree.any(axis=1))
        if failing.size:
            # report the first failing entry in degree-lex order
            r = failing[0]
            idx = tuple(basis_array(seq.dim, t)[start + r].tolist())
            if not producers[r].any():
                raise InsufficientInitialDataError(idx)
            other = produced[r, disagree[r].argmax()]
            raise InconsistentRecurrenceError(idx, float(value[r]), float(other))
        values[start : start + size] = value
    return TruncatedSequence(seq.dim, target_degree, values)


def verify_annihilation(
    matrix: MomentMatrix, system: CharacteristicSystem, tol: float = 1e-8
) -> bool:
    """Check M . vec(p_l) ~ 0 for every characteristic polynomial.

    Each univariate p_l is embedded on the pure powers of its variable; the
    test requires ||M vec(p_l)|| <= tol * ||M||_F * ||p_l|| for all l.
    """
    if system.dim != matrix.dim:
        raise ValueError("dimension mismatch between matrix and system")
    m_norm = float(np.linalg.norm(matrix.entries))
    for axis, poly in enumerate(system.polys):
        embedded = MultivariatePoly.from_univariate(matrix.dim, axis, poly)
        vec = embedded.coefficient_vector(matrix.order)  # ValueError if deg > order
        image = float(np.linalg.norm(matrix.entries @ vec))
        if image > tol * m_norm * float(np.linalg.norm(vec)):
            return False
    return True
