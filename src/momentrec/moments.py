"""Truncated moment sequences, moment matrices, and localizing matrices.

A truncated sequence stores one real value per exponent tuple of total degree
up to ``max_degree`` (dense), in one degree-lex array. The moment matrix of
order n has rows and columns labeled by the degree-lex monomial basis of
degree <= n and entries ``beta[row + col]``, gathered from that array
through a position plan that ``indexing`` computes once per (dimension,
order); it is the leading block of M(n+1). The localizing matrix of a
polynomial q is the moment matrix of the shifted sequence
(q * beta)_a = sum_g q_g beta_{g+a}.

Positive semidefiniteness and numeric rank are decided with relative
tolerances on the eigenvalues: an eigenvalue floor of ``-tol * (1 + |trace|)``
and a singular value (|eigenvalue|) cutoff of ``tol * sigma_max``. A matrix
computes one eigendecomposition (eigvalsh), on whichever check runs first.

Data that an r-atomic measure nearly represents need no matrix: the
measure's M(n) is V^T W V with V[s, i] = x_s^{a_i}, its localizing matrix
V^T diag(w q(x)) V, and the data's matrix adds the matrix E of the misfit
sequence. ``moment_bracket`` puts every eigenvalue of the data's matrix
within a radius (||E||_F plus roundoff, by Weyl's inequality) of the r x r
Gram spectrum of the factor, and ``bracket_check`` reads the PSD verdict and
the rank from that bracket where it decides them as eigvalsh would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .indexing import (
    MultiIndex,
    basis_array,
    basis_labels,
    basis_size,
    degree_lex_ranks,
    moment_plan,
    pair_counts,
    shift_plan,
)
from .polynomials import MultivariatePoly, monomials, power_table

__all__ = [
    "TruncatedSequence",
    "MomentMatrix",
    "PsdCheck",
    "build_moment_matrix",
    "shift_sequence",
    "build_localizing_matrix",
    "max_localizing_order",
    "psd_check",
    "numeric_rank",
    "moment_bracket",
    "bracket_check",
    "bilinear_form",
]

DEFAULT_RANK_TOL = 1e-8
DEFAULT_PSD_TOL = 1e-8
# The solver brackets matrices of this many rows or more from the measure's
# factor; smaller ones are built and go to eigvalsh, which is cheap there.
CERTIFY_MIN_SIZE = 48
# Roundoff allowance of a bracket per unit of the lengths in
# ``moment_bracket``'s proof: a generous multiple of the unit roundoff.
_ROUNDOFF = 4.0 * float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False, init=False)
class TruncatedSequence:
    """Dense real multisequence truncated at a total degree.

    The only stored state is ``array``: the finite values in degree-lex order,
    read-only. ``values`` may be given as that array or as a mapping from
    exponent tuples; read back, it is a read-only mapping built on first use.
    """

    dim: int
    max_degree: int
    array: np.ndarray

    def __init__(self, dim: int, max_degree: int, values: Mapping | np.ndarray):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        expected = basis_size(dim, max_degree)
        if isinstance(values, Mapping):
            keys = [tuple(int(e) for e in idx) for idx in values]
            for key in keys:
                if len(key) != dim or min(key) < 0 or sum(key) > max_degree:
                    raise ValueError(
                        f"bad exponent tuple {key} for dimension {dim}, degree {max_degree}"
                    )
            if len(set(keys)) != expected:
                raise ValueError(
                    f"sequence is not dense: {len(set(keys))} entries, expected {expected}"
                )
            array = np.empty(expected)
            array[degree_lex_ranks(keys)] = [float(v) for v in values.values()]
        else:
            array = np.array(values, dtype=float)
            if array.shape != (expected,):
                raise ValueError(f"array of shape {array.shape}, expected ({expected},)")
        bad = np.flatnonzero(~np.isfinite(array))
        if bad.size:
            index = tuple(basis_array(dim, max_degree)[bad[0]].tolist())
            raise ValueError(f"moment {index} is not finite: {array[bad[0]]}")
        array.flags.writeable = False
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "array", array)

    @cached_property
    def values(self) -> Mapping[MultiIndex, float]:
        return MappingProxyType(
            dict(zip(basis_labels(self.dim, self.max_degree), self.array.tolist()))
        )

    def __getitem__(self, index: MultiIndex) -> float:
        return self.values[tuple(index)]

    def truncate(self, degree: int) -> "TruncatedSequence":
        """Restriction to total degree <= degree: a prefix of the array."""
        if degree > self.max_degree:
            raise ValueError("cannot truncate upward")
        return TruncatedSequence(self.dim, degree, self.array[: basis_size(self.dim, degree)])

    def to_dict(self) -> dict:
        moments = [{"idx": list(idx), "value": v} for idx, v in self.values.items()]
        return {"dim": self.dim, "degree": self.max_degree, "moments": moments}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TruncatedSequence":
        for key in ("dim", "degree", "moments"):
            if key not in data:
                raise ValueError(f"moments JSON is missing '{key}'")
        dim = int(data["dim"])
        degree = int(data["degree"])
        values: dict[MultiIndex, float] = {}
        for entry in data["moments"]:
            idx = tuple(int(e) for e in entry["idx"])
            if idx in values:
                raise ValueError(f"duplicate moment index {idx}")
            values[idx] = float(entry["value"])
        return cls(dim, degree, values)


@dataclass(frozen=True, eq=False)
class MomentMatrix:
    """Symmetric matrix beta[row+col] over the degree-lex basis of one order."""

    order: int
    labels: tuple[MultiIndex, ...]
    entries: np.ndarray
    localizer: MultivariatePoly | None = None

    @property
    def dim(self) -> int:
        return len(self.labels[0])

    @property
    def kind(self) -> str:
        return "plain" if self.localizer is None else "localizing"

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues; their absolute values are the singular values."""
        return np.linalg.eigvalsh(self.entries)

    def truncate(self, order: int) -> "MomentMatrix":
        """The same matrix at a lower order: its leading principal block."""
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order {self.order} to {order}")
        n = basis_size(self.dim, order)
        return replace(self, order=order, labels=self.labels[:n], entries=self.entries[:n, :n])

    def to_dict(self) -> dict:
        out = {
            "dim": self.dim,
            "order": self.order,
            "kind": self.kind,
            "labels": [list(idx) for idx in self.labels],
            "entries": [[float(v) for v in row] for row in self.entries],
        }
        if self.localizer is not None:
            out["localizer"] = self.localizer.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "MomentMatrix":
        for key in ("order", "labels", "entries"):
            if key not in data:
                raise ValueError(f"matrix JSON is missing '{key}'")
        order = int(data["order"])
        labels = tuple(tuple(int(e) for e in idx) for idx in data["labels"])
        dim = len(labels[0]) if labels else 0
        # the count goes first, so the basis built to compare is no larger than the input
        counted = dim >= 1 and len(labels) == basis_size(dim, order)
        if not (counted and labels == basis_labels(dim, order)):
            raise ValueError(f"matrix labels must be the degree-lex basis of order {order}")
        if int(data.get("dim", dim)) != dim:
            raise ValueError(f"matrix dim {data['dim']} does not match labels of length {dim}")
        entries = np.array(data["entries"], dtype=float)
        if entries.shape != (len(labels), len(labels)):
            raise ValueError("matrix entries do not match the label count")
        # eigvalsh reads one triangle only, so both must agree exactly
        if not (np.isfinite(entries).all() and np.array_equal(entries, entries.T)):
            raise ValueError("matrix entries must be finite and exactly symmetric")
        localizer = None
        if data.get("localizer") is not None:
            localizer = MultivariatePoly.from_dict(data["localizer"])
        matrix = cls(order=order, labels=labels, entries=entries, localizer=localizer)
        if data.get("kind", matrix.kind) != matrix.kind:
            raise ValueError(f"matrix kind {data['kind']!r} does not match its localizer")
        return matrix


def build_moment_matrix(seq: TruncatedSequence, order: int) -> MomentMatrix:
    """Moment matrix M(order); needs 2*order <= seq.max_degree."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if 2 * order > seq.max_degree:
        raise ValueError(
            f"order {order} needs moments to degree {2 * order}, "
            f"only {seq.max_degree} available"
        )
    entries = seq.array[moment_plan(seq.dim, order)]
    return MomentMatrix(order, basis_labels(seq.dim, order), entries)


def shift_sequence(seq: TruncatedSequence, poly: MultivariatePoly) -> TruncatedSequence:
    """The sequence (q * beta)_a = sum_g q_g beta_{g+a}.

    The result is dense up to seq.max_degree - deg q.
    """
    if poly.dim != seq.dim:
        raise ValueError("dimension mismatch between sequence and polynomial")
    deg = poly.degree
    if deg > seq.max_degree:
        raise ValueError(
            f"polynomial degree {deg} exceeds sequence degree {seq.max_degree}"
        )
    # the zero polynomial (degree -1) zeroes every entry and keeps the degree
    new_degree = seq.max_degree - max(deg, 0)
    coefs = np.array(list(poly.terms.values()), dtype=float)
    shifted = coefs @ seq.array[shift_plan(seq.dim, tuple(poly.terms), new_degree)]
    return TruncatedSequence(seq.dim, new_degree, shifted)


def max_localizing_order(seq: TruncatedSequence, poly: MultivariatePoly) -> int:
    """Largest m with 2m + deg q <= seq.max_degree (floor division)."""
    return (seq.max_degree - poly.degree) // 2


def build_localizing_matrix(
    seq: TruncatedSequence, order: int, poly: MultivariatePoly
) -> MomentMatrix:
    """Localizing matrix M_q(order); needs 2*order + deg q <= seq.max_degree."""
    if 2 * order + poly.degree > seq.max_degree:
        raise ValueError(
            f"localizing order {order} with deg q = {poly.degree} needs moments "
            f"to degree {2 * order + poly.degree}, only {seq.max_degree} available"
        )
    base = build_moment_matrix(shift_sequence(seq, poly), order)
    return replace(base, localizer=poly)


@dataclass(frozen=True)
class PsdCheck:
    """Outcome of a tolerance-aware positive semidefiniteness test.

    ``certified`` marks ``min_eigenvalue`` as a bracket's lower bound on the
    smallest eigenvalue rather than eigvalsh's smallest eigenvalue.
    """

    is_psd: bool
    min_eigenvalue: float
    threshold: float
    certified: bool = False


def psd_check(matrix: MomentMatrix, tol: float = DEFAULT_PSD_TOL) -> PsdCheck:
    """PSD iff eigvalsh's smallest eigenvalue is >= -tol * (1 + |trace|)."""
    lowest = float(matrix.eigenvalues[0])
    threshold = -tol * (1.0 + abs(float(np.trace(matrix.entries))))
    return PsdCheck(lowest >= threshold, lowest, threshold)


def numeric_rank(
    matrix: MomentMatrix, tol: float = DEFAULT_RANK_TOL, scale: float | None = None
) -> int:
    """Number of singular values above tol * max(sigma_max, scale).

    The matrix is symmetric, so its singular values are the absolute values
    of the eigenvalues ``psd_check`` reads. ``scale`` sets an external noise
    floor for matrices that are zero up to roundoff, where sigma_max itself
    is noise and a purely relative cutoff would count every singular value.
    A localizing matrix whose polynomial vanishes on all atoms is the
    standard case; pass the parent moment matrix's largest singular value
    there.
    """
    return _bracket_rank(matrix.eigenvalues, 0.0, tol, scale)


def _bracket_rank(
    centers: np.ndarray, radius: float, tol: float, scale: float | None
) -> int | None:
    """The rank every spectrum in the bracket gives, or None if they differ."""
    sigma = np.abs(centers)
    sigma_max = float(sigma.max(initial=0.0))
    floor = 0.0 if scale is None else scale
    low = tol * max(sigma_max - radius, floor)
    high = tol * max(sigma_max + radius, floor)
    above = int(np.count_nonzero(sigma > high + radius))
    if radius and above + np.count_nonzero(sigma <= low - radius) < sigma.size:
        return None
    return above


def moment_bracket(
    points, weights, misfit: TruncatedSequence, order: int, poly: MultivariatePoly | None = None
) -> tuple[np.ndarray, float] | None:
    """Ascending centers and a radius for the spectrum of the data's M(order).

    The data are the moments of the atomic measure (``points`` (r, dim),
    ``weights``) plus ``misfit``; with ``poly`` = q the matrix is the
    localizing M_q(order), and ``misfit`` must reach degree 2 * order +
    deg q. Eigenvalue i of the matrix lies within the radius of center i.
    None if the factor overflows.

    Proof. Take q = 1 for M(order). Let N be the row count, u the unit
    roundoff, V[s, i] = x_s^{a_i}, d_s = w_s q(x_s) as computed,
    m_s = |w_s| sum_g |q_g x_s^g| and T = sum_s m_s ||v_s||^2. The data's
    matrix is A = V^T D V + E exactly, with D = diag(d) and
    E_ij = (q * e)_{a_i + a_j} for the exact misfit e. Split D = D+ - D-:
    the nonzero eigenvalues of V^T D+ V are those of the Gram matrix
    G = D+^1/2 V V^T D+^1/2 (r x r, or its N x N twin when r > N), V^T D- V
    is PSD with norm at most its trace sum_s d-_s ||v_s||^2, and as
    |q * e| <= |q| * |e| entrywise, ||E||_F^2 is at most
    sum_t pair_counts[t] (|q| * |e|)_t^2. By Weyl's inequality every
    eigenvalue of A lies within the sum of these norms of the spectrum of G
    padded with zeros. With L = N + r + 2 order + deg q + (terms of q),
    roundoff moves the centers by at most L u T (the powers, the weights d,
    Gram sums of N products, and eigvalsh's backward error of about
    r u ||G|| <= r u T); the misfit norm by at most L u T (the measure's
    moments, sums of r products) plus (L + W) u times itself (subtractions,
    the shift and the sum over W = basis_size(dim, 2 order) entries); and
    eigvalsh's answer for A, which the bracket must contain, by at most
    N u ||A|| <= N u (T + ||E||_F). ``_ROUNDOFF`` is 8 u, so the radius
    below covers every item at least twice, and a bracket that decides a
    question decides it as eigvalsh's eigenvalues of A would.
    """
    dim = misfit.dim
    points = np.asarray(points, dtype=float).reshape(len(weights), dim)
    weights = np.asarray(weights, dtype=float)
    poly = MultivariatePoly.constant(dim, 1.0) if poly is None else poly
    degree = max(poly.degree, 0)
    tables = [power_table(axis, max(order, degree)) for axis in points.T]
    at_points = monomials(tables, np.array(tuple(poly.terms), dtype=np.intp).reshape(-1, dim))
    coefficients = np.array(list(poly.terms.values()), dtype=float)
    scaled = weights * (coefficients @ at_points)
    magnitude = np.abs(weights) * (np.abs(coefficients) @ np.abs(at_points))
    # |q| * |e| bounds q * e entry by entry, so its norm bounds ||E||_F
    bound = MultivariatePoly(dim, {g: abs(c) for g, c in poly.terms.items()})
    sizes = shift_sequence(TruncatedSequence(dim, misfit.max_degree, np.abs(misfit.array)), bound)
    window = sizes.array[: basis_size(dim, 2 * order)]
    misfit_norm = math.sqrt(float(pair_counts(dim, order) @ (window * window)))
    factor = monomials(tables, basis_array(dim, order))  # V^T, (N, r)
    n, r = factor.shape
    norms = np.einsum("is,is->s", factor, factor)
    length = n + r + 2 * order + degree + len(coefficients)
    radius = misfit_norm * (1.0 + _ROUNDOFF * (length + window.size)) + float(
        np.maximum(-scaled, 0.0) @ norms + _ROUNDOFF * length * (magnitude @ norms)
    )
    if not math.isfinite(radius):
        return None
    factor *= np.sqrt(np.maximum(scaled, 0.0))
    gram = factor.T @ factor if r <= n else factor @ factor.T
    centers = np.concatenate([np.linalg.eigvalsh(gram), np.zeros(n - len(gram))])
    centers.sort()
    return centers, radius


def bracket_check(
    seq: TruncatedSequence, order: int, bracket: tuple, psd_tol: float, rank_tol: float, scale=None
) -> tuple[PsdCheck, int] | None:
    """``psd_check`` and ``numeric_rank`` of M(order) of ``seq``, read from a bracket.

    The threshold is psd_check's, from the same diagonal summed the same
    way. None unless the bracket certifies the matrix PSD and decides its
    rank: a failing verdict reports eigvalsh's smallest eigenvalue, so it
    needs the matrix.
    """
    centers, radius = bracket
    diagonal = degree_lex_ranks(2 * basis_array(seq.dim, order))
    threshold = -psd_tol * (1.0 + abs(float(seq.array[diagonal].sum())))
    lowest = float(centers[0]) - radius
    rank = _bracket_rank(centers, radius, rank_tol, scale)
    if rank is None or lowest < threshold:
        return None
    return PsdCheck(True, lowest, threshold, certified=True), rank


def bilinear_form(
    f: MultivariatePoly, matrix: MomentMatrix, g: MultivariatePoly
) -> float:
    """vec(f)^T M vec(g) over the matrix's basis.

    Equals sum_{a,b} f_a g_b beta_{a+b}, the pairing <f, g> induced by the
    sequence; both degrees must fit within the matrix order.
    """
    if f.dim != matrix.dim or g.dim != matrix.dim:
        raise ValueError("dimension mismatch")
    vf = f.coefficient_vector(matrix.order)
    vg = g.coefficient_vector(matrix.order)
    return float(vf @ matrix.entries @ vg)
