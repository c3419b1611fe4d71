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

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ComplexAtomError,
    InsufficientDataError,
    NegativeWeightError,
    RepeatedRootsError,
)
from .indexing import basis_array, grid_plan
from .moments import TruncatedSequence
from .polynomials import MultivariatePoly, UnivariatePoly, monomials, poly_roots, power_table
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
MOMENT_BLOCK_ENTRIES = 1 << 15


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
    """Finitely many point masses at finite points with finite positive weights."""

    dim: int
    points: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]
    support: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        points = tuple(tuple(float(x) for x in p) for p in self.points)
        weights = tuple(float(w) for w in self.weights)
        if len(points) != len(weights):
            raise ValueError("points and weights differ in length")
        for k, (p, w) in enumerate(zip(points, weights)):
            if len(p) != self.dim:
                raise ValueError(f"point {p} does not have dimension {self.dim}")
            if not (0.0 < w < math.inf and all(map(math.isfinite, p))):
                raise ValueError(
                    f"atom {k} at {p} has weight {w}: coordinates must be finite "
                    "and weights finite and strictly positive"
                )
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


def _by_mode(
    tensor: np.ndarray, operations: Sequence[Callable[[np.ndarray], np.ndarray]]
) -> np.ndarray:
    """Apply operations[l] to mode l, for l = 0..d-1 in turn.

    Each acts on the (rows, rest) unfolding of the leading mode, which then
    moves to the back, so the modes end in their original order.
    """
    for operate in operations:
        flat = operate(tensor.reshape(tensor.shape[0], -1))
        tensor = flat.T.reshape(tensor.shape[1:] + flat.shape[:1])
    return tensor


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
    coef = np.linalg.solve(power_table(roots, m - 1), np.asarray(initial, dtype=complex))
    return [(roots[i], complex(coef[i])) for i in range(m)]


def multivariate_binet(
    system: CharacteristicSystem, seq: TruncatedSequence
) -> BinetExpansion:
    """Coefficient tensor over the root grid of a characteristic system.

    Each variable l gets one power table P_l[k, s] = root_{l,s} ** k for
    k <= max_degree. The initial block prod_l {0..deg p_l - 1} of the
    sequence is solved against the leading square block of P_l along mode l,
    for l = 0..d-1 in that fixed order (the result does not depend on it
    beyond rounding). The whole tables rebuild the rectangle containing every
    entry of ``seq``; the residual is the maximum relative reconstruction
    error over all of them, not just the initial block.
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
    tables = [power_table(r, seq.max_degree) for r in roots]
    solves = [partial(np.linalg.solve, t[:m]) for t, m in zip(tables, shape)]
    coefficients = _by_mode(seq.array[grid_plan(shape)].astype(complex), solves)
    recon = _by_mode(coefficients, [partial(np.matmul, t) for t in tables])
    exponents = basis_array(seq.dim, seq.max_degree)
    residual = relative_misfit(seq.array, recon[tuple(exponents.T)])
    return BinetExpansion(roots=roots, coefficients=coefficients, source_residual=residual)


def relative_misfit(data: np.ndarray, model: np.ndarray) -> float:
    """max |data - model| / (1 + |data|), the reconstruction error of a sequence."""
    return float(np.max(np.abs(data - model) / (1.0 + np.abs(data))))


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
    """Moments beta_i = sum_s w_s prod_l x_{l,s} ** i_l for all |i| <= degree.

    Gathers from one power table per variable, as the Binet expansion uses,
    about MOMENT_BLOCK_ENTRIES (row, atom) products (256 KB) at a time.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    exponents = basis_array(measure.dim, degree)
    points = np.array(measure.points, dtype=float).reshape(measure.atom_count, measure.dim)
    tables = [power_table(axis, degree) for axis in points.T]
    weights = np.array(measure.weights, dtype=float)
    values = np.empty(len(exponents))
    step = max(1, MOMENT_BLOCK_ENTRIES // max(1, measure.atom_count))
    for start in range(0, len(exponents), step):
        values[start : start + step] = monomials(tables, exponents[start : start + step]) @ weights
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
