"""Closed-form power expansions of recursive multisequences and their measures.

A sequence annihilated by per-variable characteristic polynomials with simple
roots is a combination of products of root powers:

    beta_i = sum_s c_s * prod_l root[l][s_l] ** i_l

with one coefficient per point of the root grid. The coefficient tensor is
obtained by solving one-dimensional Vandermonde systems mode by mode on the
initial block of the sequence. A nonnegative atomic measure exists exactly
when the surviving coefficients are positive reals sitting at real grid
points; the conversion prunes negligible coefficients first and reports the
offending grid index otherwise.

Tensor-product Lagrange interpolants on the root grid provide the dual basis
used by the solver's extraction identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ComplexAtomError,
    InsufficientDataError,
    NegativeWeightError,
    RepeatedRootsError,
)
from .indexing import basis_array, grid_plan
from .moments import TruncatedSequence
from .polynomials import MultivariatePoly, UnivariatePoly, poly_roots
from .recurrence import CharacteristicSystem

__all__ = [
    "BinetExpansion",
    "AtomicMeasure",
    "univariate_binet",
    "multivariate_binet",
    "expansion_to_measure",
    "evaluate_moments",
    "lagrange_interpolant",
]

DEFAULT_IMAG_TOL = 1e-7
DEFAULT_WEIGHT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class BinetExpansion:
    """Root grid plus the dense complex coefficient tensor over it."""

    roots: tuple[tuple[complex, ...], ...]
    coefficients: np.ndarray
    source_residual: float

    @property
    def dim(self) -> int:
        return len(self.roots)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.roots)

    def grid_point(self, grid_index: tuple[int, ...]) -> tuple[complex, ...]:
        return tuple(self.roots[axis][k] for axis, k in enumerate(grid_index))


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many point masses with strictly positive weights."""

    dim: int
    points: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]
    support: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        points = tuple(tuple(float(x) for x in p) for p in self.points)
        weights = tuple(float(w) for w in self.weights)
        if len(points) != len(weights):
            raise ValueError("points and weights differ in length")
        for p in points:
            if len(p) != self.dim:
                raise ValueError(f"point {p} does not have dimension {self.dim}")
        if any(w <= 0.0 for w in weights):
            raise ValueError("weights must be strictly positive")
        if len(set(points)) != len(points):
            raise ValueError("atoms must be pairwise distinct")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def atom_count(self) -> int:
        return len(self.points)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [
                {"point": list(p), "weight": w}
                for p, w in zip(self.points, self.weights)
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AtomicMeasure":
        if "dim" not in data or "atoms" not in data:
            raise ValueError("measure JSON needs 'dim' and 'atoms'")
        dim = int(data["dim"])
        points = []
        weights = []
        for atom in data["atoms"]:
            points.append(tuple(float(x) for x in atom["point"]))
            weights.append(float(atom["weight"]))
        return cls(dim=dim, points=tuple(points), weights=tuple(weights))


def _simple_roots(poly: UnivariatePoly, axis: int) -> tuple[complex, ...]:
    """Roots of one characteristic polynomial, required simple, sorted."""
    roots = poly_roots(poly)
    for root, multiplicity in roots:
        if multiplicity > 1:
            raise RepeatedRootsError(axis, root, multiplicity)
    return tuple(root for root, _ in roots)


def _vandermonde(roots: Sequence[complex], rows: int | None = None) -> np.ndarray:
    """Row k holds root ** k, for k below ``rows`` (default: one per root)."""
    roots = np.asarray(roots, dtype=complex)
    v = np.empty((len(roots) if rows is None else rows, len(roots)), dtype=complex)
    v[0] = 1.0
    for k in range(1, len(v)):
        v[k] = v[k - 1] * roots
    return v


def _mode_apply(matrix: np.ndarray, tensor: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(tensor, axis, 0)
    flat = matrix @ moved.reshape(moved.shape[0], -1)
    return np.moveaxis(flat.reshape((matrix.shape[0],) + moved.shape[1:]), 0, axis)


def _mode_solve(matrix: np.ndarray, tensor: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(tensor, axis, 0)
    flat = np.linalg.solve(matrix, moved.reshape(moved.shape[0], -1))
    return np.moveaxis(flat.reshape(moved.shape), 0, axis)


def univariate_binet(
    poly: UnivariatePoly, initial: Sequence[float]
) -> list[tuple[complex, complex]]:
    """Coefficients c_i with s_k = sum_i c_i root_i^k, from initial terms.

    ``initial`` must provide exactly deg(poly) leading terms; the roots must
    be simple. Returns (root, coefficient) pairs sorted by root.
    """
    m = poly.degree
    if m < 1:
        raise ValueError("polynomial must have degree >= 1")
    if len(initial) != m:
        raise InsufficientDataError(
            f"need exactly {m} initial terms, got {len(initial)}"
        )
    roots = _simple_roots(poly, axis=0)
    coef = np.linalg.solve(_vandermonde(roots), np.asarray(initial, dtype=complex))
    return [(roots[i], complex(coef[i])) for i in range(m)]


def multivariate_binet(
    system: CharacteristicSystem,
    seq: TruncatedSequence,
    mode_order: Sequence[int] | None = None,
) -> BinetExpansion:
    """Coefficient tensor over the root grid of a characteristic system.

    The initial block prod_l {0..deg p_l - 1} of the sequence is solved
    against one Vandermonde matrix per variable, one mode at a time
    (``mode_order`` only permutes the numerically equivalent solve order).
    The residual is the maximum relative reconstruction error over every
    entry of ``seq``, not just the initial block.
    """
    if system.dim != seq.dim:
        raise ValueError("dimension mismatch between system and sequence")
    roots = tuple(
        _simple_roots(poly, axis) for axis, poly in enumerate(system.polys)
    )
    shape = tuple(len(r) for r in roots)
    block_degree = sum(m - 1 for m in shape)
    if seq.max_degree < block_degree:
        raise InsufficientDataError(
            f"initial block needs moments to degree {block_degree}, "
            f"only {seq.max_degree} available"
        )
    order = list(mode_order) if mode_order is not None else list(range(seq.dim))
    if sorted(order) != list(range(seq.dim)):
        raise ValueError("mode_order must be a permutation of the axes")
    # the initial block, solved in place one mode at a time
    coefficients = seq.array[grid_plan(shape)].astype(complex)
    for axis in order:
        coefficients = _mode_solve(_vandermonde(roots[axis]), coefficients, axis)

    # reconstruct the full rectangle containing all known entries
    recon = coefficients
    for axis in order:
        recon = _mode_apply(_vandermonde(roots[axis], seq.max_degree + 1), recon, axis)
    exponents = basis_array(seq.dim, seq.max_degree)
    err = np.abs(recon[tuple(exponents.T)] - seq.array) / (1.0 + np.abs(seq.array))
    residual = float(err.max())
    return BinetExpansion(roots=roots, coefficients=coefficients, source_residual=residual)


def expansion_to_measure(
    expansion: BinetExpansion,
    tol_imag: float = DEFAULT_IMAG_TOL,
    tol_weight: float = DEFAULT_WEIGHT_TOL,
) -> AtomicMeasure:
    """Convert an expansion into a nonnegative atomic measure.

    Coefficients with |c| <= tol_weight * max|c| are pruned first; every
    surviving grid point must then have real coordinates, a real coefficient,
    and a positive weight. The realness threshold is
    ``tol_imag * (1 + max |Re c|)`` over the survivors and applies to both
    coefficients and coordinates. Failures carry the offending grid index.
    """
    coef = expansion.coefficients
    magnitudes = np.abs(coef)
    max_abs = float(magnitudes.max(initial=0.0))
    # grid indices in C order; an all-zero tensor has none
    survivors = [tuple(i) for i in np.argwhere(magnitudes > tol_weight * max_abs).tolist()]
    if not survivors:
        return AtomicMeasure(dim=expansion.dim, points=(), weights=(), support=())
    scale = 1.0 + max(abs(coef[idx].real) for idx in survivors)
    threshold = tol_imag * scale
    points = []
    weights = []
    for grid_idx in survivors:
        raw_point = expansion.grid_point(grid_idx)
        for coord in raw_point:
            if abs(coord.imag) > threshold:
                raise ComplexAtomError(grid_idx, coord, "coordinate")
        c = complex(coef[grid_idx])
        if abs(c.imag) > threshold:
            raise ComplexAtomError(grid_idx, c, "weight")
        point = tuple(x.real for x in raw_point)
        if c.real <= 0.0:
            raise NegativeWeightError(grid_idx, point, c.real)
        points.append(point)
        weights.append(c.real)
    return AtomicMeasure(
        dim=expansion.dim,
        points=tuple(points),
        weights=tuple(weights),
        support=tuple(survivors),
    )


def evaluate_moments(measure: AtomicMeasure, degree: int) -> TruncatedSequence:
    """Moments beta_i = sum w * point^i for all |i| <= degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    exponents = basis_array(measure.dim, degree)
    points = np.array(measure.points).reshape(measure.atom_count, measure.dim)
    # powers[a, l, e] = x_l^e at atom a
    powers = np.power(points[:, :, None], np.arange(degree + 1))
    values = np.zeros(len(exponents))
    # one atom at a time keeps memory at one row of monomials, not atoms x rows
    for weight, table in zip(measure.weights, powers):
        values += weight * table[np.arange(measure.dim), exponents].prod(axis=1)
    return TruncatedSequence(measure.dim, degree, values)


def lagrange_interpolant(
    roots_per_variable: Sequence[Sequence[complex]], grid_index: Sequence[int]
) -> MultivariatePoly:
    """Tensor-product Lagrange polynomial that is 1 at one grid point.

    The grid is the cartesian product of the per-variable root lists, which
    must be real (imaginary parts below 1e-9 relative are discarded); the
    result is the product over variables of the univariate Lagrange basis
    polynomial picked by ``grid_index``.
    """
    dim = len(roots_per_variable)
    if len(grid_index) != dim:
        raise ValueError("grid index does not match the number of variables")
    result = MultivariatePoly.constant(dim, 1.0)
    for axis, (roots, pick) in enumerate(zip(roots_per_variable, grid_index)):
        nodes = []
        for r in roots:
            r = complex(r)
            if abs(r.imag) > 1e-9 * (1.0 + abs(r.real)):
                raise ValueError(f"non-real grid node {r} in variable {axis}")
            nodes.append(r.real)
        if not 0 <= pick < len(nodes):
            raise ValueError(f"grid index {pick} out of range for variable {axis}")
        others = [nodes[j] for j in range(len(nodes)) if j != pick]
        if others:
            denominator = float(np.prod([nodes[pick] - x for x in others]))
            if denominator == 0.0:
                raise ValueError(f"coincident grid nodes in variable {axis}")
            factor = UnivariatePoly.from_roots(others).scale(1.0 / denominator)
        else:
            factor = UnivariatePoly((1.0,))
        result = result * MultivariatePoly.from_univariate(dim, axis, factor)
    return result
