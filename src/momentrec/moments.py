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
tolerances on one eigendecomposition: an eigenvalue floor of
``-tol * (1 + |trace|)`` and a singular value (|eigenvalue|) cutoff of
``tol * sigma_max``.
"""

from __future__ import annotations

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
    shift_plan,
)
from .polynomials import MultivariatePoly

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
    "bilinear_form",
]

DEFAULT_RANK_TOL = 1e-8
DEFAULT_PSD_TOL = 1e-8


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
        return replace(
            self, order=order, labels=self.labels[:n], entries=self.entries[:n, :n]
        )

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
    """Outcome of a tolerance-aware positive semidefiniteness test."""

    is_psd: bool
    min_eigenvalue: float
    threshold: float


def psd_check(matrix: MomentMatrix, tol: float = DEFAULT_PSD_TOL) -> PsdCheck:
    """PSD iff the smallest eigenvalue is >= -tol * (1 + |trace|)."""
    lam_min = float(matrix.eigenvalues[0])
    threshold = -tol * (1.0 + abs(float(np.trace(matrix.entries))))
    return PsdCheck(is_psd=lam_min >= threshold, min_eigenvalue=lam_min, threshold=threshold)


def numeric_rank(
    matrix: MomentMatrix, tol: float = DEFAULT_RANK_TOL, scale: float | None = None
) -> int:
    """Number of singular values above tol * max(sigma_max, scale).

    The matrix is symmetric, so its singular values are the absolute values
    of the eigenvalues ``psd_check`` reads; no second factorization runs.
    ``scale`` sets an external noise floor for matrices that are zero up to
    roundoff, where sigma_max itself is noise and a purely relative cutoff
    would count every singular value. A localizing matrix whose polynomial
    vanishes on all atoms is the standard case; pass the parent moment
    matrix's largest singular value there.
    """
    sigma = np.abs(matrix.eigenvalues)
    sigma_max = float(sigma.max(initial=0.0))
    reference = sigma_max if scale is None else max(sigma_max, scale)
    return int(np.count_nonzero(sigma > tol * reference))


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
