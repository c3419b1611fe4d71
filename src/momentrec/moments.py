"""Truncated moment sequences, moment matrices, and localizing matrices.

A truncated sequence stores one real value per exponent tuple of total degree
up to ``max_degree`` (dense), in one degree-lex array, and nothing else: read
by exponent tuple (``values``), it is a view over that array through the
label index ``indexing`` keeps once per dimension. The moment matrix of
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
sequence. ``moments_and_grams`` makes one pass over the measure: it takes
the moments from products of head rows x'^h (the first dim - 1 variables)
with the powers of the last variable, and one r x r running sum
K = sum_a v_a v_a^T of the rows v_a = x^a up to the largest order. Every
requested matrix, M(n) or M_q(n), scales the K of its rows by its diagonal:
they share V and differ only there.
``moment_bracket`` puts every eigenvalue of the data's matrix within a
radius (||E||_F plus roundoff, by Weyl's inequality) of the Gram spectrum.
Where w q(x) is negative at some atom, ``signed_bracket`` centers it on the
spectrum of R diag(w q(x)) R^T instead, R from the thin QR of the factor
V^T. ``bracket_check`` reads the PSD verdict, failing or not, and the rank
from a bracket where it decides them as eigvalsh would.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _lapack
from .errors import NonFiniteShiftError
from .indexing import (
    MultiIndex,
    basis_array,
    basis_labels,
    basis_size,
    check_int32,
    degree_lex_ranks,
    diagonal_plan,
    label_index,
    moment_plan,
    pair_counts,
    shift_plan,
    split_plan,
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
    "GramSum",
    "moments_and_grams",
    "misfit_bound",
    "moment_bracket",
    "signed_bracket",
    "bracket_check",
    "bilinear_form",
]

DEFAULT_RANK_TOL = 1e-8
DEFAULT_PSD_TOL = 1e-8
# The solver brackets matrices of this many rows or more from the measure's
# factor; smaller ones are built and go to eigvalsh, which is cheap there.
CERTIFY_MIN_SIZE = 48
# The measure pass evaluates about this many (row, atom) products at a time.
MOMENT_BLOCK_ENTRIES = 1 << 15
# Roundoff allowance of a bracket per unit of the lengths in
# ``moment_bracket``'s proof: a generous multiple of the unit roundoff.
_ROUNDOFF = 4.0 * float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False, init=False)
class TruncatedSequence:
    """Dense real multisequence truncated at a total degree.

    The only stored state is ``array``: the finite values in degree-lex order,
    read-only. ``values`` may be given as that array or as a mapping from
    exponent tuples; read back, it is a read-only mapping view over the array,
    made on each access, whose lookups go through the dimension's shared
    ``indexing.label_index``. Reading it keeps nothing on the sequence.
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
        self._hold(dim, max_degree, array)

    def _hold(self, dim: int, max_degree: int, array: np.ndarray) -> None:
        array.flags.writeable = False
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "array", array)

    @classmethod
    def _of_finite(cls, dim: int, max_degree: int, array: np.ndarray) -> "TruncatedSequence":
        """The sequence held in ``array``, not copied: the caller's own float array of
        basis_size(dim, max_degree) values, all of which it has checked are finite."""
        seq = cls.__new__(cls)
        seq._hold(dim, max_degree, array)
        return seq

    @property
    def values(self) -> Mapping[MultiIndex, float]:
        return _Values(self)

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


class _Values(Mapping):
    """A sequence's moments by exponent tuple: a read-only view over its array.

    Keys iterate in degree-lex order and map to Python floats. A lookup is
    one probe of the shared label index, whose labels of higher degree than
    the sequence's sit at positions past its array; the index is fetched on
    the first read by label, so a length needs none.
    """

    __slots__ = ("_seq", "_labels")

    def __init__(self, seq: TruncatedSequence):
        self._seq = seq
        self._labels = None

    def _index(self) -> dict[MultiIndex, int]:
        if self._labels is None:
            self._labels = label_index(self._seq.dim, self._seq.max_degree)
        return self._labels

    def __len__(self) -> int:
        return self._seq.array.size

    def __iter__(self):
        return itertools.islice(self._index(), len(self))

    def __getitem__(self, key) -> float:
        array = self._seq.array
        position = self._index().get(key, array.size)
        if position >= array.size:
            raise KeyError(key)
        return array.item(position)

    def items(self):
        return _Items(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _Items(ItemsView):
    """The (label, value) pairs, read in one pass over the array."""

    def __iter__(self):
        return zip(self._mapping, self._mapping._seq.array.tolist())


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
        return _lapack.eigvalsh(self.entries)

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


# a near-overflow sequence may overflow the sums; the first non-finite entry is reported
@np.errstate(over="ignore", invalid="ignore")
def shift_sequence(seq: TruncatedSequence, poly: MultivariatePoly) -> TruncatedSequence:
    """The sequence (q * beta)_a = sum_g q_g beta_{g+a}.

    The result is dense up to seq.max_degree - deg q. A sum that leaves the
    float range raises NonFiniteShiftError for the first such entry in
    degree-lex order, with no floating-point warning.
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
    shifted = poly.coefficients @ seq.array[shift_plan(seq.dim, poly.exponents, new_degree)]
    if not np.isfinite(shifted).all():
        bad = np.flatnonzero(~np.isfinite(shifted))[0]
        index = tuple(basis_array(seq.dim, new_degree)[bad].tolist())
        raise NonFiniteShiftError(index, float(shifted[bad]))
    return TruncatedSequence._of_finite(seq.dim, new_degree, shifted)


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


@dataclass(frozen=True, eq=False)
class GramSum:
    """An atomic measure's factor summed over the basis of M_q(order) in ``dim`` variables.

    With rows v_i = (x_s^{a_i})_s for |a_i| <= order, K = sum_i v_i v_i^T,
    the diagonal d_s = w_s q(x_s) (q = 1 where ``poly`` is None),
    m_s = |w_s| sum_g |q_g x_s^g| and column norms n_s = K_ss: ``gram`` is
    the r x r matrix D+^1/2 K D+^1/2 with D+ = diag(max(d, 0)),
    ``diagonal`` is d, ``negative`` is sum_s max(-d_s, 0) n_s and ``total``
    is T = sum_s m_s n_s.
    """

    dim: int
    order: int
    poly: MultivariatePoly | None
    gram: np.ndarray
    diagonal: np.ndarray
    negative: float
    total: float


def _diagonal(tables, weights: np.ndarray, poly: MultivariatePoly | None):
    """d = w q(x) and m = |w| sum_g |q_g x^g| at the atoms of ``tables``; q = 1 for None."""
    if poly is None:
        return weights, np.abs(weights)
    terms = np.array(poly.exponents, dtype=np.intp).reshape(-1, len(tables))
    at_points = monomials(tables, terms)
    scaled = weights * (poly.coefficients @ at_points)
    return scaled, np.abs(weights) * (np.abs(poly.coefficients) @ np.abs(at_points))


# powers of far atoms may overflow; the non-finite moments are reported by the caller
@np.errstate(over="ignore", invalid="ignore")
def moments_and_grams(
    points, weights, degree: int, requests=()
) -> tuple[np.ndarray, list[GramSum]]:
    """Moments of an atomic measure to ``degree``, and one GramSum per request.

    One pass over the atoms ``points`` (r, dim) with ``weights``, from one
    power table per variable. A moment splits as x^a = x'^h x_d^k, a head in
    the first dim - 1 variables times a power of the last, so the moments
    read one table: row h holds sum_s w_s x'_s^h x_{d,s}^k for k <= degree.
    Its rows come a block of heads at a time, each block one product
    (heads * w) @ P_d^T of about MOMENT_BLOCK_ENTRIES (head, atom) values
    (256 KB), and ``indexing.split_plan`` gathers the moments from it; in
    one variable they are P_1 @ w.

    The Gram sums come from one running r x r sum K = sum_a v_a v_a^T over
    the rows v_a = x^a, gathered from the tables a block of rows at a time
    up to the largest requested order, so each row is evaluated once and no
    rows x atoms factor is held. When K holds the rows of degree <= order,
    a request (order, q), q None for M(order), scales it by the square
    roots of its diagonal max(w q(x), 0) on both sides: M(n+1)'s Gram
    matrix continues M(n)'s, and a constraint costs no row products. A basis
    or head table that int32 positions cannot index raises ValueError before
    it is allocated. Powers that overflow give non-finite moments and sums
    without a warning; the caller refuses them.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    count, dim = points.shape
    check_int32(dim, degree)
    for order, poly in requests:
        if not 0 <= order <= degree or (poly is not None and poly.degree > degree):
            raise ValueError(f"a Gram sum of order {order} needs rows beyond degree {degree}")
    tables = [power_table(axis, degree) for axis in points.T]
    step = max(1, MOMENT_BLOCK_ENTRIES // max(1, count))
    if dim == 1:
        values = tables[0] @ weights
    else:
        # split_plan refuses a table int32 positions cannot index before it is allocated
        plan = split_plan(dim, degree)
        heads = basis_array(dim - 1, degree)
        table = np.empty((len(heads), degree + 1))
        for start in range(0, len(heads), step):
            block = monomials(tables[:-1], heads[start : start + step])
            block *= weights
            # heads come by ascending degree, so the first one's is the block's least
            width = degree + 1 - int(heads[start].sum())
            table[start : start + step, :width] = block @ tables[-1][:width].T
        values = table.ravel()[plan]
    return values, _gram_sums(tables, weights, requests, step)


def _gram_sums(tables, weights: np.ndarray, requests, step: int) -> list[GramSum]:
    """``moments_and_grams``' Gram sums: one running K = sum_a v_a v_a^T, scaled at each size."""
    if not requests:
        return []
    size = [basis_size(len(tables), order) for order, _ in requests]
    exponents = basis_array(len(tables), max(order for order, _ in requests))
    kernel = np.zeros((len(weights), len(weights)))
    out: list = [None] * len(requests)
    low = 0
    for high in sorted(set(size)):
        for start in range(low, high, step):
            rows = monomials(tables, exponents[start : min(start + step, high)])
            kernel += rows.T @ rows
        low = high
        norms = kernel.diagonal()
        for k in (k for k, n in enumerate(size) if n == high):
            order, poly = requests[k]
            diagonal, magnitude = _diagonal(tables, weights, poly)
            root = np.sqrt(np.maximum(diagonal, 0.0))
            gram = kernel * root[:, None]
            gram *= root
            negative = float(np.maximum(-diagonal, 0.0) @ norms)
            total = float(magnitude @ norms)
            out[k] = GramSum(len(tables), order, poly, gram, diagonal, negative, total)
    return out


# a misfit near the float range may overflow the sum; an inf bound brackets nothing
@np.errstate(over="ignore")
def misfit_bound(sums: GramSum, misfit: TruncatedSequence) -> float:
    """A bound on ||E||_F, E the misfit's M_q(order) for ``sums``' order and q.

    ||E||_F^2 is at most sum_t pair_counts[t] (|q| * |e|)_t^2 over the t of
    degree <= 2 order, |e| itself for q = 1 (a shift by 1.0 is exact, so it
    is skipped); ``misfit`` must reach degree 2 order + deg q. Both brackets
    of one matrix take this bound.
    """
    dim, order = sums.dim, sums.order
    width = basis_size(dim, 2 * order)
    if sums.poly is None:
        window = np.abs(misfit.array[:width])
    else:
        # |q| * |e| bounds q * e entry by entry, so its norm bounds ||E||_F
        degree = max(sums.poly.degree, 0)
        plan = shift_plan(dim, sums.poly.exponents, misfit.max_degree - degree)
        window = np.abs(sums.poly.coefficients) @ np.abs(misfit.array)[plan[:, :width]]
    return math.sqrt(float(pair_counts(dim, order) @ (window * window)))


def _radius(sums: GramSum, bound: float, spare: int, measure: float) -> float:
    """A bracket's radius: the ``misfit_bound``, then ``measure`` and the roundoff on T.

    With L = N + r + 2 order + deg q + (terms of q) + ``spare`` and
    W = basis_size(dim, 2 order), the radius is the bound times
    1 + _ROUNDOFF (L + W), plus ``measure``, plus _ROUNDOFF L T.
    """
    dim, order = sums.dim, sums.order
    poly = sums.poly
    degree, terms = (0, 1) if poly is None else (max(poly.degree, 0), len(poly.terms))
    length = basis_size(dim, order) + len(sums.diagonal) + 2 * order + degree + terms + spare
    return bound * (1.0 + _ROUNDOFF * (length + basis_size(dim, 2 * order))) + (
        measure + _ROUNDOFF * length * sums.total
    )


def _padded(eigenvalues: np.ndarray, n: int) -> np.ndarray:
    """r ascending eigenvalues of a rank <= min(r, n) part as n ascending centers."""
    r = len(eigenvalues)
    if r > n:
        return eigenvalues[r - n :]
    return np.sort(np.concatenate([eigenvalues, np.zeros(n - r)]))


def moment_bracket(
    sums: GramSum, bound: float, rank_tol: float | None = None, scale: float | None = None
) -> tuple[np.ndarray, float] | None:
    """Ascending centers and a radius for the spectrum of the data's M(order).

    The data are the moments of an atomic measure (``sums``, from
    ``moments_and_grams``) plus a misfit e whose ``misfit_bound`` is
    ``bound``; with ``sums.poly`` = q the matrix is the localizing
    M_q(order). Eigenvalue i of the matrix lies within the radius of
    center i. None if the sums overflow, before any eigvalsh runs. Where
    ``rank_tol`` is given, also None, before eigvalsh, when the radius
    alone leaves ``bracket_check``'s rank at ``rank_tol`` and ``scale``
    undecided, whatever the centers: N > r and
    rank_tol * max(2 ||G||_F, scale) < radius (see the last paragraph).

    Proof. Take q = 1 for M(order). Let N be the row count, r the atom
    count, u the unit roundoff, V[s, i] = x_s^{a_i}, and d, m, n_s and T as
    in ``GramSum``, with d as computed. The data's matrix is
    A = V^T D V + E exactly, with D = diag(d) and E_ij = (q * e)_{a_i + a_j}
    for the exact misfit e. Split D = D+ - D-: the nonzero eigenvalues of
    V^T D+ V are those of the r x r Gram matrix G = D+^1/2 V V^T D+^1/2,
    V^T D- V is PSD with norm at most its trace sum_s d-_s n_s, and as
    |q * e| <= |q| * |e| entrywise, ||E||_F^2 is at most
    sum_t pair_counts[t] (|q| * |e|)_t^2. By Weyl's inequality every
    eigenvalue of A lies within the sum of these norms of the spectrum of G
    padded with zeros to N values, or, when r > N, of G's N largest
    eigenvalues (G has rank at most N, so the others are zero; Weyl's
    inequality moves each of G's ordered eigenvalues by at most the norm of
    a perturbation, so the computed G's N largest stand in the same
    allowance). With L = N + r + 2 order + deg q + (terms of q), roundoff
    moves the centers by at most L u T (the powers, the weights d and their
    square roots; the sums of N products of unweighted powers in K = V V^T,
    whose bound holds for any order and grouping of the terms, so for the
    blocks of ``moments_and_grams``; the two products by rounded square
    roots that make G = D+^1/2 K D+^1/2 of K, so that G's error is
    entrywise at most L u |D+^1/2 V| |D+^1/2 V|^T, a nonnegative PSD matrix
    of norm at most its trace sum_s d+_s n_s <= T; n_s, K's diagonal, the
    same sum of N squares in K's grouping; and eigvalsh's backward error of
    about r u ||G|| <= r u T); the misfit norm by at most
    L u T (the measure's moments: each is a sum of r products of at most
    |a| + 2 rounded factors, the head's powers and their product, the weight
    and the last variable's power, whatever order and grouping the head
    table's matrix product sums them in) plus (L + W) u times
    itself (subtractions, the shift and the sum over W =
    basis_size(dim, 2 order) entries); and eigvalsh's answer for A, which
    the bracket must contain, by at most N u ||A|| <= N u (T + ||E||_F).
    ``_ROUNDOFF`` is 8 u, so the radius below (``_radius`` with the norm of
    V^T D- V as its measure term) covers every item at least twice, and a
    bracket that decides a question decides it as eigvalsh's eigenvalues of
    A would.

    The rank rule. For N > r the centers hold N - r padded zeros, and
    ``_bracket_rank`` decides a center sigma = 0 only if 0 > high + radius,
    which fails as high >= 0 and radius > 0, or 0 <= low - radius with
    low = rank_tol * max(sigma_max - radius, scale or 0), sigma_max the
    largest |eigenvalue| eigvalsh computes for the computed G. Those are
    within about r u ||G||_2 of G's exact eigenvalues (backward stability),
    ||G||_2 <= ||G||_F, and the computed ||G||_F is within (r^2 + 1) u of
    the exact one, so sigma_max <= 2 ||G||_F as computed for any r < 2^20
    (a Gram matrix of 2^20 atoms would hold 8 TB).
    Then low <= rank_tol * max(2 ||G||_F, scale) < radius puts the zeros
    inside the undecided band: the rank, and so ``bracket_check``, is None.
    A norm or radius that is not finite skips nothing.
    """
    radius = _radius(sums, bound, 0, sums.negative)
    if not math.isfinite(radius):
        return None
    n = basis_size(sums.dim, sums.order)
    if rank_tol is not None and n > len(sums.diagonal):
        flat = sums.gram.ravel()
        top = 2.0 * math.sqrt(flat @ flat)
        if rank_tol * max(top, 0.0 if scale is None else scale) < radius:
            return None
    return _padded(_lapack.eigvalsh(sums.gram), n), radius


def signed_bracket(points, sums: GramSum, bound: float) -> tuple[np.ndarray, float] | None:
    """``moment_bracket`` of M_q(order) for a diagonal d = w q(x) of either sign.

    ``sums`` is the measure's GramSum of M_q(order), ``points`` its r atoms
    (r, dim), and ``bound`` as for ``moment_bracket``. The rows x^a,
    |a| <= order, at the atoms are evaluated again from one power table per
    variable, as the measure pass evaluates them, into the N x r factor
    F = V^T; its thin QR F = QR gives F D F^T = Q (R D R^T) Q^T, whose
    nonzero spectrum is that of the r x r matrix R D R^T. The centers are
    that spectrum padded with zeros to N values. (For r > N, R is N x r and
    R D R^T is N x N, no cheaper than M_q itself.) None if the sums
    overflow, before the factor is evaluated; a finite T bounds the entries
    of R D R^T (see below).

    Proof. In ``moment_bracket``'s notation A = F D F^T + E exactly, and
    ``_radius`` bounds ||E||_F and its roundoff as there; D is no longer
    split, so there is no V^T D- V term. Each column of the computed factor
    F' is within order u of F's in relative norm, which moves F D F^T by at
    most 2 order u sum_s |d_s| n_s <= 2 order u T, as |d_s| <= m_s; the
    rounding of d moves it by at most sum_s |d'_s - d_s| n_s
    <= (deg q + terms of q + 1) u T. Householder QR is backward stable
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm. 19.4):
    F' + dF = Q'R' with Q' of orthonormal columns and ||dF_s|| <= g ||F'_s||
    for each column s, g = c N r u with c a small constant. As
    ||F' D dF^T||_2 <= sum_s |d_s| ||F'_s|| ||dF_s|| <= g T, Q'R' D R'^T Q'^T
    is within (2 g + g^2) T of F' D F'^T, and its spectrum is exactly that of
    R' D R'^T plus N - r zeros (none for r > N). The product (R' D) R'^T errs entrywise by at
    most (r + 1) u |R'| |D| |R'|^T, a nonnegative PSD matrix of norm at most
    its trace sum_s |d_s| ||R'_s||^2 <= (1 + g)^2 T, and so does the one
    triangle eigvalsh reads; eigvalsh's backward error on it is about
    r u (1 + g)^2 T, and eigvalsh's answer for A again needs
    N u (T + ||E||_F). By Weyl's inequality, applied to each of these
    perturbations in turn and to the padded spectra, eigenvalue i of A lies
    within their sum of center i. ``_radius`` takes 2 N r units of L for
    the QR on top of ``moment_bracket``'s L, so at ``_ROUNDOFF`` = 8 u the
    radius covers 2 g for c up to 8 and every other item at least twice.
    """
    n = basis_size(sums.dim, sums.order)
    radius = _radius(sums, bound, 2 * n * len(sums.diagonal), 0.0)
    if not math.isfinite(radius):
        return None
    tables = [power_table(axis, sums.order) for axis in np.asarray(points, dtype=float).T]
    factor = _lapack.qr(monomials(tables, basis_array(sums.dim, sums.order)))
    return _padded(_lapack.eigvalsh((factor * sums.diagonal) @ factor.T), n), radius


def bracket_check(
    seq: TruncatedSequence, order: int, bracket: tuple, psd_tol: float, rank_tol: float, scale=None
) -> tuple[PsdCheck, int] | None:
    """``psd_check`` and ``numeric_rank`` of M(order) of ``seq``, read from a bracket.

    The threshold is psd_check's, from the same diagonal
    (``indexing.diagonal_plan``) summed the same way. The verdict is certified where the whole bracket
    of the smallest eigenvalue lies on one side of the threshold, and its
    ``min_eigenvalue`` is then the bracket's lower end, a lower bound on
    eigvalsh's value: PSD where the lower end clears the threshold, not PSD
    where the upper end (center + radius) falls below it. A measure's Gram
    bracket has centers of a PSD matrix, so only ``signed_bracket`` certifies
    the second. None where the bracket straddles the threshold or the rank
    cutoff: the matrix is then built for eigvalsh.
    """
    centers, radius = bracket
    threshold = -psd_tol * (1.0 + abs(float(seq.array[diagonal_plan(seq.dim, order)].sum())))
    lowest = float(centers[0])
    rank = _bracket_rank(centers, radius, rank_tol, scale)
    if rank is None or lowest - radius < threshold <= lowest + radius:
        return None
    return PsdCheck(lowest - radius >= threshold, lowest - radius, threshold, certified=True), rank


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
