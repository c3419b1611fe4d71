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
and a singular value (|eigenvalue|) cutoff of ``tol * sigma_max``. Each
matrix computes at most one spectrum bracket and one eigendecomposition,
whichever check runs first paying for them. A matrix and the leading blocks
``truncate`` cuts from it share one pivoted Cholesky factorization, computed
when the first of them needs a bracket.

A matrix of ``CERTIFY_MIN_SIZE`` rows or more first gets a certificate in
place of an eigendecomposition. The matrix a block was cut from (or the
matrix itself) is factored as A = R^T R + E by a pivoted Cholesky, stopped
once the largest remaining Schur diagonal is at most ``FACTOR_STOP`` times
the largest diagonal; R has k rows, and E is the remaining Schur complement
plus roundoff. Every leading n-row block is then R'^T R' + E' with R' the
first n columns of R, so by Weyl's inequality each of its eigenvalues lies
within a radius of the spectrum of the smaller of R' R'^T and R'^T R',
padded with zeros. The radius is the Frobenius norm of E' (one band pass
over the Schur complement gives it for every block ``truncate`` can cut)
plus a roundoff allowance. The PSD verdict and the rank are read from these
brackets where they decide. Where the lower bound falls below the PSD floor,
or a bracket straddles the rank cutoff, eigvalsh runs and its eigenvalues
are read instead, so every verdict and rank is eigvalsh's. The one visible
difference is ``min_eigenvalue`` of a certified PSD matrix, which is then
the certificate's lower bound on the smallest eigenvalue. Smaller matrices
go straight to eigvalsh, which is the faster of the two there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
# Matrices with fewer rows skip the certificate and go straight to eigvalsh,
# which is the faster of the two below about this size.
CERTIFY_MIN_SIZE = 48
# The pivoted Cholesky stops once the largest remaining Schur diagonal is at
# most this times the largest diagonal of the matrix.
FACTOR_STOP = 1e-11
# Roundoff allowance of a certificate per row of the block plus row of the
# factor R, in units of ||S||_F + ||R||_F^2 over the block (S the Schur
# complement; the two bound ||A||_2): a generous multiple of the unit roundoff.
_ROUNDOFF = 4.0 * float(np.finfo(float).eps)
# Entries of the matrix gathered at once into the Schur complement, which
# keeps the certificate's working set below the copy eigvalsh makes.
_GATHER_BLOCK = 1 << 16


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
    # the matrix ``truncate`` cut this one from, whose factorization it reads
    _source: MomentMatrix | None = field(default=None, repr=False)

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

    @cached_property
    def _factorization(self) -> tuple[np.ndarray, dict[int, float]]:
        # the blocks ``truncate`` can cut that are large enough to be certified
        sizes = {basis_size(self.dim, order) for order in range(self.order + 1)}
        blocks = sorted(n for n in sizes | {self.size} if n >= CERTIFY_MIN_SIZE)
        return _pivoted_cholesky(self.entries, blocks)

    @cached_property
    def _certificate(self) -> tuple[np.ndarray, float] | None:
        source = self if self._source is None else self._source
        factor, schur_squares = source._factorization
        return _leading_spectrum(factor, schur_squares[self.size], self.size)

    @property
    def spectrum(self) -> tuple[np.ndarray, float]:
        """Ascending centers and a radius: eigenvalue i lies within radius of center i.

        The tightest bracket known so far: the exact ``eigenvalues`` (radius 0)
        once they are computed or the matrix is below ``CERTIFY_MIN_SIZE``
        rows, else the pivoted-Cholesky certificate. A block from ``truncate``
        reads its certificate off the factorization of the matrix it was cut
        from, which is computed once, on whichever of the two is checked first;
        the bracket is the same either way.
        """
        if "eigenvalues" not in self.__dict__ and len(self.labels) >= CERTIFY_MIN_SIZE:
            certificate = self._certificate
            if certificate is not None:
                return certificate
        return self.eigenvalues, 0.0

    @property
    def sigma_max(self) -> float:
        """Largest singular value, read from ``spectrum`` (exact within its radius)."""
        return float(np.abs(self.spectrum[0]).max(initial=0.0))

    def truncate(self, order: int) -> "MomentMatrix":
        """The same matrix at a lower order: its leading principal block.

        The block keeps the matrix it was cut from (for a block of a block,
        the first one) and is certified from that matrix's pivoted Cholesky,
        so a matrix and all its blocks are factored once.
        """
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order {self.order} to {order}")
        n = basis_size(self.dim, order)
        source = self if self._source is None else self._source
        entries = self.entries[:n, :n]
        return replace(self, order=order, labels=self.labels[:n], entries=entries, _source=source)

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

    ``certified`` marks ``min_eigenvalue`` as the certificate's lower bound on
    the smallest eigenvalue rather than eigvalsh's smallest eigenvalue.
    """

    is_psd: bool
    min_eigenvalue: float
    threshold: float
    certified: bool = False


def psd_check(matrix: MomentMatrix, tol: float = DEFAULT_PSD_TOL) -> PsdCheck:
    """PSD iff the smallest eigenvalue is >= -tol * (1 + |trace|).

    ``min_eigenvalue`` is the certificate's lower bound on the smallest
    eigenvalue when that bound clears the threshold, and eigvalsh's smallest
    eigenvalue otherwise; the verdict is eigvalsh's either way.
    """
    threshold = -tol * (1.0 + abs(float(np.trace(matrix.entries))))
    centers, radius = matrix.spectrum
    lowest = float(centers[0]) - radius
    if radius and lowest < threshold:
        lowest, radius = float(matrix.eigenvalues[0]), 0.0
    return PsdCheck(lowest >= threshold, lowest, threshold, certified=radius > 0.0)


def numeric_rank(
    matrix: MomentMatrix, tol: float = DEFAULT_RANK_TOL, scale: float | None = None
) -> int:
    """Number of singular values above tol * max(sigma_max, scale).

    The matrix is symmetric, so its singular values are the absolute values
    of the eigenvalues ``psd_check`` reads; the count comes from the same
    spectrum, and from the exact eigenvalues only where a certificate's
    bracket straddles the cutoff. ``scale`` sets an external noise floor for
    matrices that are zero up to roundoff, where sigma_max itself is noise
    and a purely relative cutoff would count every singular value. A
    localizing matrix whose polynomial vanishes on all atoms is the standard
    case; pass the parent moment matrix's largest singular value there.
    """
    rank = _bracket_rank(*matrix.spectrum, tol, scale)
    if rank is None:
        rank = _bracket_rank(matrix.eigenvalues, 0.0, tol, scale)
    return rank


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


def _pivoted_cholesky(
    entries: np.ndarray, blocks: list[int]
) -> tuple[np.ndarray, dict[int, float]]:
    """Pivoted Cholesky factor R of A and the Schur complement's norm in leading blocks.

    Rows of R are taken greedily at the largest remaining Schur diagonal
    until it falls to ``FACTOR_STOP`` times the largest diagonal, so
    A = R^T R + E, with R of shape (k, N) in A's own column order. E is the
    Schur complement S on the unpivoted rows, computed explicitly, plus
    roundoff on the pivoted ones. Every leading n-row block of A is then
    R[:, :n]^T R[:, :n] + E[:n, :n]. The second value maps each row count n
    in ``blocks`` to the squared Frobenius norm of S's part in that block.
    """
    n = entries.shape[0]
    schur = entries.diagonal().copy()
    stop = max(FACTOR_STOP * float(schur.max()), 0.0)
    rows = np.empty((n, n))  # pages are touched only for the rows written
    pivots = np.empty(n, dtype=np.intp)
    k = 0
    while k < n:
        p = int(schur.argmax())
        pivot = schur[p]
        if not pivot > stop:
            break
        row = rows[k]
        np.subtract(entries[p], rows[:k, p] @ rows[:k], out=row)
        row *= 1.0 / math.sqrt(pivot)
        row[pivots[:k]] = 0.0  # the factor is triangular in pivot order
        schur -= row * row
        schur[p] = -np.inf
        pivots[k] = p
        k += 1
    # a copy, so the matrix and its blocks keep k rows, not the N x N buffer,
    # which is released before the band pass
    factor = rows[:k].copy()
    rows = row = None
    free = np.flatnonzero(schur != -np.inf)
    rest = factor.take(free, 1)
    # S a band of rows at a time, from the band's diagonal block rightward;
    # an entry right of that block stands for its mirror image too. A block
    # whose boundary lies past the band takes the band's squares left of the
    # boundary; one whose boundary falls inside the band takes the part of
    # the diagonal block before it.
    schur_squares = dict.fromkeys(blocks, 0.0)
    cuts = free.searchsorted(blocks).tolist()
    step = max(1, _GATHER_BLOCK // n)
    for start in range(0, free.size, step):
        end = min(start + step, free.size)
        band = entries[free[start:end]].take(free[start:], 1)
        band -= rest[:, start:end].T @ rest[:, start:]
        running = np.einsum("ij,ij->j", band, band).cumsum()
        diagonal = running[end - start - 1]
        for size, cut in zip(blocks, cuts):
            if cut >= end:
                schur_squares[size] += float(2.0 * running[cut - start - 1] - diagonal)
            elif cut > start:
                head = band[: cut - start, : cut - start]
                schur_squares[size] += float(np.einsum("ij,ij->", head, head))
    return factor, schur_squares


def _leading_spectrum(
    factor: np.ndarray, schur_squares: float, n: int
) -> tuple[np.ndarray, float] | None:
    """Eigenvalue centers and radius of the leading n-row block; None if not finite.

    With R' = R[:, :n] of ``_pivoted_cholesky`` and ``schur_squares`` the
    squared norm of the Schur complement's part in the block, the spectrum of
    R'^T R' is that of the smaller of R' R'^T and R'^T R', padded with zeros,
    and by Weyl's inequality each eigenvalue of the block lies within
    ||E[:n, :n]||_2 <= ||E[:n, :n]||_F of its counterpart there. The
    ``_ROUNDOFF`` allowance bounds the roundoff on the pivoted rows, that of
    forming S and the Gram matrix, and the backward error of eigvalsh itself,
    so a bracket that decides a question decides it as eigvalsh's
    eigenvalues would.
    """
    head = factor[:, :n]
    k = head.shape[0]
    gram = head @ head.T if k <= n else head.T @ head
    schur_norm = math.sqrt(schur_squares)
    radius = schur_norm + _ROUNDOFF * (n + k) * (schur_norm + float(np.trace(gram)))
    if not math.isfinite(radius):
        return None
    centers = np.concatenate([np.linalg.eigvalsh(gram), np.zeros(n - len(gram))])
    centers.sort()
    return centers, radius


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
