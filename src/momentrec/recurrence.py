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
from .indexing import (
    axis_steps,
    basis_array,
    basis_size,
    check_int32,
    extension_plan,
    marginal_plan,
    shift_plan,
)
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
# Detection with fewer candidate orders per variable fits every one: below this
# the screen costs more than the fits it saves (the crossover measured in CHANGES.md).
SCREEN_MIN_ORDERS = 6
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2
_SQRT_TINY = math.sqrt(float(np.finfo(float).tiny))


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

    @classmethod
    def _of_fitted(cls, polys: tuple, residual: float) -> "CharacteristicSystem":
        """The system of monic polynomials of degree >= 1 that the detection has
        just fitted, with tau = sum(deg - 1), not validated again."""
        system = cls.__new__(cls)
        tau = sum([len(p.coeffs) for p in polys]) - 2 * len(polys)
        for name, value in (("polys", polys), ("tau", tau), ("residual", residual)):
            object.__setattr__(system, name, value)
        return system


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


def _fit_along(seq: TruncatedSequence, steps: tuple, order: int):
    """``_fit_order`` of the order-``order`` recurrence along the axis of ``steps``."""
    # row p of the plan holds i + p*e_axis for every |i| <= max_degree - order
    plan = shift_plan(seq.dim, steps[: order + 1], seq.max_degree - order)
    return _fit_order(seq.array.take(plan[order - 1 :: -1].T), seq.array.take(plan[order]))


def _certified_failures(seq: TruncatedSequence, axes: slice, tol: float) -> np.ndarray:
    """Which orders 1 .. K along each variable in ``axes`` provably fit with residual >= tol.

    Returns a (variables, K) bool array, K = max_degree // 2, whose entry
    [l, k - 1] is set where order k along the l-th variable of ``axes`` is
    certified to fail. Every order's fit has the rows i with
    |i| <= max_degree - k, so all include the pure powers j e_l,
    j = 0 .. max_degree - K. H (m x (K + 1), m = max_degree - K + 1 >= K + 1)
    holds beta_{(j + s) e_l} in row j and column s: the Hankel matrix of the
    moments of x_l's marginal, the rows j e_l of the order-K fit's own plan.
    All variables' H are gathered through one ``indexing.marginal_plan`` and
    take one stacked Householder QR, giving R, and one stacked inverse, that
    of R's leading K x K block, whose leading k x k block is the inverse of
    R's. Let n_j be the computed norm of R's column j, Z_k the computed
    Frobenius norm of diag(n_0 .. n_{k-1}) times that k x k inverse, N the
    number of moments, u the unit roundoff and e = 16 u (m (K + 1) + 2 N).
    Order k is certified where e sqrt(k) Z_k <= 1/8 and

        |R_kk| - e n_k (1 + 2 sqrt(k) Z_k) >= tol (1 + ||beta||) (1 + e).

    Nothing is certified unless beta . beta is finite and tol is at least
    the square root of the smallest normal float, nor for a variable whose
    R block has a zero on its diagonal (and so no inverse), nor for any
    variable where LAPACK reports an error for one.

    Proof. Write rho(P) for min_v ||P_{:k} v - p_k||, the least-squares
    residual of column k of a matrix P on the k columns before it, and
    D = diag(n_j). Moving each column j of P by at most a n_j moves rho by
    at most a (sqrt(k) ||D v|| + n_k), v the minimizer of either problem,
    and ||D v|| <= ||p_k|| / s for s the smallest singular value of
    P_{:k} D^-1 in that problem, which itself moves by at most a sqrt(k).

    (1) Row-subset monotonicity. The rows j e_l of the order-k misfit
    A_k w - b_k are H_{:k} w' - h_k (the columns in the other order), so
    ||A_k w - b_k|| >= rho(H) for any weights w, and so for those lstsq
    returns.

    (2) Householder backward error. The computed R is the exact R of
    H + dH with ||dH_j|| <= g ||h_j||, g = c m (K + 1) u for a small
    constant c (Higham, Accuracy and Stability of Numerical Algorithms,
    Thm. 19.4), so rho(H + dH) >= |R_kk| and ||h_j|| <= (1 + 2 g) n_j. For
    H + dH, s = sigma_min(R_k D^-1) >= 1 / ||D R_k^-1||_F. ``inv`` factors R
    by LU with partial pivoting, which on an upper triangular R with a
    nonzero diagonal swaps no rows and leaves U = R, so each column of the
    computed inverse is a back substitution, with a componentwise backward
    error of at most
    gamma_{K+2} |R| (Higham Thm. 8.5, also where the kernel multiplies by
    the reciprocals of the diagonal), so ||D R_k^-1||_F
    <= Z_k / (1 - gamma_{K+2} sqrt(k) (1 + 2 g) Z_k) <= 16 Z_k / 15 under
    the first condition, and s >= 7 / (8 Z_k) for H. This coefficient
    bound turns the backward error into rho(H) >= |R_kk| - g n_k
    (1 + 1.15 sqrt(k) Z_k).

    (3) The fit's own roundoff. The computed misfit is exactly A' w - b'
    with |A' - A| <= gamma_{k+1} |A| and |b' - b| <= u |b| entrywise (one
    k-term dot product per entry, then a subtraction), a column move of
    relative size gamma_{k+1} that leaves s >= 13 / (16 Z_k). By (1) for
    A', b', its norm is at least rho(H) - gamma_{k+1} n_k
    (1 + 1.25 sqrt(k) Z_k), whatever the weights, so with (2) at least the
    certificate's left side. ``_fit_order`` divides the root of its sum of
    squares by 1 + ||b_k|| (or computes the same ratio scaled by max |b_k|),
    and ||b_k|| <= ||beta|| as b_k lists distinct moments. Its roundings
    move the ratio by a relative gamma_{N+6} at most, and underflow moves
    nothing, as every certified quantity is at least
    tol >= sqrt(smallest normal). A misfit that overflows to inf or NaN
    scores a residual that is not < tol either. e covers g for c up to 8
    and every other rounding (gamma_{k+1}, gamma_{K+2}, the ratio's, and
    those of ||beta||, n_j and Z_k) at least twice.

    (4) Where a block is too ill-conditioned for the first condition, or an
    inverse overflows, nothing is certified and the order is fitted.
    """
    max_order = seq.max_degree // 2
    plan = marginal_plan(seq.dim, seq.max_degree, max_order)[axes]
    squares = float(seq.array @ seq.array)
    if not (math.isfinite(squares) and tol >= _SQRT_TINY):
        return np.zeros((len(plan), max_order), dtype=bool)
    try:
        r = np.linalg.qr(seq.array.take(plan), mode="r")
        # a block with a zero pivot has no inverse; its NaN certifies nothing
        blocks = r[:, :max_order, :max_order]
        invertible = np.diagonal(blocks, axis1=1, axis2=2).all(axis=1)
        inverse = np.full_like(blocks, np.nan)
        if invertible.any():
            inverse[invertible] = np.linalg.inv(blocks[invertible])
    except np.linalg.LinAlgError:
        return np.zeros((len(plan), max_order), dtype=bool)
    norms = np.sqrt((r * r).sum(axis=1))
    e = 16.0 * _UNIT_ROUNDOFF * (plan[0].size + 2 * seq.array.size)
    # each inverse is upper triangular, so block k sums its first k columns
    scaled = norms[:, :max_order, None] * inverse
    z = np.sqrt(np.cumsum((scaled * scaled).sum(axis=1), axis=1))
    root_k = np.sqrt(np.arange(1, max_order + 1))
    diagonal = np.abs(np.diagonal(r, axis1=1, axis2=2))
    lower = diagonal[:, 1:] - e * norms[:, 1:] * (1.0 + 2.0 * root_k * z)
    threshold = tol * (1.0 + math.sqrt(squares)) * (1.0 + e)
    # written so that a NaN certifies nothing
    return (e * root_k * z <= 0.125) & (lower >= threshold)


def _scan(seq: TruncatedSequence, axis: int, tol: float, certified: list[int]):
    """The least order along ``axis`` whose fit scores below tol, skipping ``certified``.

    Where every order fails, the certified ones are fitted too, so that
    NoRecurrenceError carries the least residual of all orders.
    """
    max_order = seq.max_degree // 2
    steps = axis_steps(seq.dim, axis, max_order + 1)
    best = np.inf
    for order in range(1, max_order + 1):
        if order in certified:
            continue
        weights, residual = _fit_along(seq, steps, order)
        if residual < tol:
            # x^order - sum_k a_k x^(order-k), lowest coefficient first
            return UnivariatePoly._of_monic(tuple((-weights[::-1]).tolist() + [1.0])), residual
        best = min(best, residual)
    for order in certified:
        best = min(best, _fit_along(seq, steps, order)[1])
    raise NoRecurrenceError(axis, max_order, best)


# moments near the float range may overflow in a fit; extend_sequence reports them
@np.errstate(over="ignore", invalid="ignore")
def _detect(seq: TruncatedSequence, axes: slice, tol: float) -> list:
    """``_scan`` along each variable in ``axes``, in order, after one screen of them all.

    The screen runs where there are ``SCREEN_MIN_ORDERS`` candidate orders or
    more; below that the screen costs more than the fits it saves.
    """
    scanned = range(seq.dim)[axes]
    certified = [[]] * len(scanned)
    if seq.max_degree // 2 >= SCREEN_MIN_ORDERS:
        proven = _certified_failures(seq, axes, tol)
        certified = [(np.flatnonzero(row) + 1).tolist() for row in proven]
    return [_scan(seq, axis, tol, orders) for axis, orders in zip(scanned, certified)]


def detect_minimal_recurrence(
    seq: TruncatedSequence, axis: int, tol: float = DEFAULT_FIT_TOL
) -> tuple[UnivariatePoly, float]:
    """Least-order recurrence along one variable, as a monic polynomial.

    Candidate orders are scanned upward; the first whose joint fit residual
    drops below ``tol`` wins. Orders beyond max_degree // 2 are not data
    supported (the fit would be underdetermined and trivially consistent),
    so exceeding that bound raises NoRecurrenceError with the least residual
    of all orders. Where there are ``SCREEN_MIN_ORDERS`` orders or more,
    ``_certified_failures`` first proves from the variable's marginal Hankel
    which orders fail; the scan skips those and fits the others, so the
    accepted fit is the one an order-by-order scan makes, bit for bit. Where
    every order fails, the skipped ones are fitted too, for the exact least
    residual.
    """
    if not 0 <= axis < seq.dim:
        raise ValueError(f"axis {axis} out of range for dimension {seq.dim}")
    return _detect(seq, slice(axis, axis + 1), tol)[0]


def detect_characteristic_system(
    seq: TruncatedSequence, tol: float = DEFAULT_FIT_TOL
) -> CharacteristicSystem:
    """Minimal recurrences for every variable, with tau = sum(deg - 1).

    Each variable is scanned as in ``detect_minimal_recurrence``, after one
    screen of every variable's marginal Hankel together (one QR, one
    inverse); the first variable with no recurrence raises NoRecurrenceError.
    """
    polys, residuals = zip(*_detect(seq, slice(None), tol))
    return CharacteristicSystem._of_fitted(polys, max(residuals))


def extend_sequence(
    seq: TruncatedSequence, system: CharacteristicSystem, target_degree: int
) -> TruncatedSequence:
    """Fill the sequence up to target_degree using the recurrences.

    Each entry is produced by the lowest-index variable whose recurrence
    window is available; any other applicable variable recomputes the value
    as a consistency check within ``CONSISTENCY_TOL`` (relative). The new
    degree blocks are filled in ascending order over one
    ``indexing.extension_plan``, one gather of every variable's windows per
    block: each variable's terms are summed in order k = 1, 2, ... from 0, as
    an entry-by-entry fill sums them, those sums are kept, and the block takes
    its lowest producer's. One check over the kept sums then reports the
    first failing entry in degree-lex order: one reachable by no variable
    raises InsufficientInitialDataError, one that overflows
    NonFiniteExtensionError and one whose producers disagree
    InconsistentRecurrenceError, with no floating-point warning. A failing
    extension thus computes its later blocks before the check. A target basis
    of 2^31 monomials or more raises ValueError before anything is allocated.
    """
    if len(system.polys) != seq.dim:
        raise ValueError("dimension mismatch between sequence and system")
    if target_degree <= seq.max_degree:
        return seq
    check_int32(seq.dim, target_degree)
    return _extend(seq, system, target_degree)


# windows near the float range may overflow; the check reports the first such entry
@np.errstate(over="ignore", invalid="ignore")
def _extend(
    seq: TruncatedSequence, system: CharacteristicSystem, target_degree: int
) -> TruncatedSequence:
    """``extend_sequence`` to a target degree above the data's."""
    orders = tuple([len(p.coeffs) - 1 for p in system.polys])
    windows, producers, lowest = extension_plan(seq.dim, seq.max_degree, target_degree, orders)
    # weights[k - 1, l, 0] = a_k with beta_{i+s e_l} = sum_k a_k beta_{i+(s-k) e_l},
    # k = 1..s, and 0 past s, where the windows read the finite beta_0: such a
    # term adds +-0 to a sum started from 0, which is never -0, so no bit moves
    weights = np.zeros((len(windows), seq.dim, 1))
    for axis, poly in enumerate(system.polys):
        weights[: orders[axis], axis, 0] = -np.array(poly.coeffs[-2::-1])
    known = seq.array.size
    values = np.empty(basis_size(seq.dim, target_degree))
    values[:known] = seq.array
    new = values[known:]
    # every variable's value for every new entry; the lowest producer's is the entry
    produced = np.empty((seq.dim, new.size))
    for t in range(seq.max_degree + 1, target_degree + 1):
        # a block depends only on lower degrees, so it is produced in one step;
        # sum() adds the terms k = 1, 2, ... to 0 in turn
        lo, hi = basis_size(seq.dim, t - 1) - known, basis_size(seq.dim, t) - known
        produced[:, lo:hi] = sum(weights * values[windows[:, :, lo:hi]])
        new[lo:hi] = produced[lowest[lo:hi], np.arange(lo, hi)]

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
    # the data are finite, and the check above failed every non-finite new entry
    return TruncatedSequence._of_finite(seq.dim, target_degree, values)


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
