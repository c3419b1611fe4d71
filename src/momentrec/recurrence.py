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

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    InconsistentRecurrenceError,
    InsufficientInitialDataError,
    NoRecurrenceError,
    NonFiniteExtensionError,
)
from .indexing import basis_array, basis_size, check_int32, extension_plan, shift_plan
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
CONSISTENCY_TOL = 1e-7


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


def _fit_order(a_mat: np.ndarray, b_vec: np.ndarray):
    """Joint least-squares fit of a fixed-order recurrence along one axis.

    Row r of ``a_mat`` holds beta_{i + (order-k)*e}, k = 1 .. order, and
    ``b_vec[r]`` holds beta_{i + order*e}, for the r-th index i with
    |i| + order <= max_degree: one equation b = sum_k a_k A[:, k-1] each.
    Returns the weights and the relative residual ||A a - b|| / (1 + ||b||).
    """
    weights, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    # the dot product and square root np.linalg.norm takes on a 1-D vector
    misfit = a_mat @ weights - b_vec
    squares, b_squares = misfit @ misfit, b_vec @ b_vec
    if math.isfinite(squares) and math.isfinite(b_squares):
        return weights, math.sqrt(squares) / (1.0 + math.sqrt(b_squares))
    # a sum of squares overflowed: the same ratio from the vectors over max |b|
    top = float(np.abs(b_vec).max())
    misfit, b_vec = misfit / top, b_vec / top
    return weights, math.sqrt(misfit @ misfit) / (1.0 / top + math.sqrt(b_vec @ b_vec))


# moments near the float range may overflow in a fit; extend_sequence reports them
@np.errstate(over="ignore", invalid="ignore")
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
    steps = ((0,) * seq.dim,)
    best = np.inf
    for order in range(1, max_order + 1):
        # row p of the plan holds i + p*e_axis for every |i| <= max_degree - order
        steps += ((0,) * axis + (order,) + (0,) * (seq.dim - axis - 1),)
        plan = shift_plan(seq.dim, steps, seq.max_degree - order)
        a_mat = seq.array.take(plan[order - 1 :: -1].T)
        weights, residual = _fit_order(a_mat, seq.array.take(plan[order]))
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


@np.errstate(over="ignore", invalid="ignore")
def extend_sequence(
    seq: TruncatedSequence, system: CharacteristicSystem, target_degree: int
) -> TruncatedSequence:
    """Fill the sequence up to target_degree using the recurrences.

    Each entry is produced by the lowest-index variable whose recurrence
    window is available, its terms summed in order k = 1, 2, ... from 0, as
    an entry-by-entry fill sums them; any other applicable variable
    recomputes the value as a consistency check within ``CONSISTENCY_TOL``
    (relative). Both are array passes over one ``indexing.extension_plan``:
    the first fills the new degree blocks in ascending order, one gather per
    block, and the second computes every applicable variable's value for
    every new entry at once. The first failing entry in degree-lex order is
    reported: one reachable by no variable raises
    InsufficientInitialDataError, one that overflows NonFiniteExtensionError
    and one whose producers disagree InconsistentRecurrenceError, with no
    floating-point warning. A failing extension thus computes its later
    blocks before the check. A target basis of 2^31 monomials or more raises
    ValueError before anything is allocated.
    """
    if system.dim != seq.dim:
        raise ValueError("dimension mismatch between sequence and system")
    if target_degree <= seq.max_degree:
        return seq
    check_int32(seq.dim, target_degree)
    orders = tuple(p.degree for p in system.polys)
    windows, producers, lowest, first = extension_plan(
        seq.dim, seq.max_degree, target_degree, orders
    )
    # weights[k - 1, l] = a_k with beta_{i+s e_l} = sum_k a_k beta_{i+(s-k) e_l},
    # k = 1..s, and 0 past s, where the windows read the finite beta_0: such a
    # term adds +-0 to a sum started from 0, which is never -0, so no bit moves
    weights = np.zeros((len(first), seq.dim))
    for axis, poly in enumerate(system.polys):
        weights[: poly.degree, axis] = -np.array(poly.coeffs[-2::-1])
    known = seq.array.size
    values = np.empty(basis_size(seq.dim, target_degree))
    values[:known] = seq.array
    new = values[known:]
    lowest_weights = weights[:, lowest]
    for t in range(seq.max_degree + 1, target_degree + 1):
        # a block depends only on lower degrees, so it is produced in one step;
        # sum() adds the terms k = 1, 2, ... to 0 in turn
        block = slice(basis_size(seq.dim, t - 1) - known, basis_size(seq.dim, t) - known)
        new[block] = sum(lowest_weights[:, block] * values[first[:, block]])

    # every applicable variable's value; the lowest one's is the entry itself
    produced = sum(weights[:, :, None] * values[windows])
    limit = CONSISTENCY_TOL * (1.0 + np.maximum(np.abs(new), np.abs(produced)))
    # written so that a non-finite value (its own gap is NaN) disagrees too
    disagree = producers & ~(np.abs(produced - new) <= limit)
    failing = np.flatnonzero(~producers.any(axis=0) | disagree.any(axis=0))
    if failing.size:
        r = failing[0]
        idx = tuple(basis_array(seq.dim, target_degree)[known + r].tolist())
        if not producers[:, r].any():
            raise InsufficientInitialDataError(idx)
        if not math.isfinite(new[r]):
            raise NonFiniteExtensionError(idx, float(new[r]))
        other = produced[disagree[:, r].argmax(), r]
        raise InconsistentRecurrenceError(idx, float(new[r]), float(other))
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
