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

``lagrange_interpolant`` gives the tensor-product Lagrange polynomial of one
root-grid point, the dual basis of the paper's extraction identities; the
solver reads weights and atoms off the expansion and does not call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _lapack
from .errors import (
    ComplexAtomError,
    InsufficientDataError,
    NegativeWeightError,
    RepeatedRootsError,
)
from .indexing import grid_plan, split_plan
from .moments import TruncatedSequence, moments_and_grams
from .polynomials import MultivariatePoly, UnivariatePoly, poly_roots, power_table
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

    @classmethod
    def _of_checked(cls, dim, points, weights, support) -> "AtomicMeasure":
        """The measure of tuples of float tuples and floats that the caller has
        checked: distinct finite points of dimension dim, finite positive weights."""
        measure = cls.__new__(cls)
        fields = {"dim": dim, "points": points, "weights": weights, "support": support}
        for name, value in fields.items():
            object.__setattr__(measure, name, value)
        return measure

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
    return tuple([root for root, _ in roots])


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
    coef = _lapack.solve(power_table(roots, m - 1), np.asarray(initial, dtype=complex))
    return [(roots[i], complex(coef[i])) for i in range(m)]


def multivariate_binet(
    system: CharacteristicSystem, seq: TruncatedSequence
) -> BinetExpansion:
    """Coefficient tensor over the root grid of a characteristic system.

    Each variable l gets one power table P_l[k, s] = root_{l,s} ** k for
    k <= max_degree. The initial block prod_l {0..deg p_l - 1} of the
    sequence is solved against the leading square block of P_l along mode l,
    for l = 0..d-1 in that fixed order (the result does not depend on it
    beyond rounding); a variable with one root has the block [[1]] and
    makes no solve. The residual is the maximum relative reconstruction
    error over every entry of ``seq``, not just the initial block, and the
    reconstruction is evaluated at those entries only: the tables of
    variables 0..d-2 contract their modes in turn, each keeping only the
    prefixes (exponents of the variables contracted so far) of degree <=
    max_degree, which ``indexing.split_plan`` picks from the prefix-by-power
    product; the heads (exponents of variables 0..d-2) then take one product
    with P_{d-1}, and ``split_plan`` gathers the entries from it.
    """
    if len(system.polys) != seq.dim:
        raise ValueError("dimension mismatch between system and sequence")
    roots = tuple([_simple_roots(poly, axis) for axis, poly in enumerate(system.polys)])
    shape = tuple(map(len, roots))
    block_degree = sum(shape) - len(shape)
    degree = seq.max_degree
    if degree < block_degree:
        raise InsufficientDataError(
            f"initial block needs moments to degree {block_degree}, "
            f"only {degree} available"
        )
    tables = [power_table(r, degree) for r in roots]
    # mode l in turn: the unfolding of the leading mode is solved against
    # P_l's leading block, a variable with one root (the block [[1]]) makes
    # no solve, and the mode moves to the back, so after all d the modes end
    # in their original order
    coefficients = seq.array[grid_plan(shape)].astype(complex)
    for table, m in zip(tables, shape):
        flat = coefficients.reshape(m, -1)
        if m > 1:
            flat = _lapack.solve(table[:m], flat)
        coefficients = flat.T.reshape(coefficients.shape[1:] + (m,))
    # modes 0..d-2 contracted in turn; after mode c a column per prefix (the
    # exponents of variables 0..c) of degree <= max_degree, in degree-lex
    # order, which split_plan picks from the prefix-by-power product (the
    # split plan of one variable is the identity, so mode 0 needs no pick)
    heads = coefficients.reshape(-1, 1)
    for axis, table in enumerate(tables[:-1]):
        rows = math.prod(shape[axis + 1 :])
        heads = (table @ heads.reshape(shape[axis], -1)).T.reshape(rows, -1)
        if axis:
            heads = heads[:, split_plan(axis + 1, degree)]
    recon = (heads.T @ tables[-1].T).ravel()
    if seq.dim > 1:
        recon = recon[split_plan(seq.dim, degree)]
    residual = relative_misfit(seq.array, recon)
    return BinetExpansion(roots=roots, coefficients=coefficients, source_residual=residual)


def relative_misfit(data: np.ndarray, model: np.ndarray) -> float:
    """max |data - model| / (1 + |data|), the reconstruction error of a sequence."""
    gap = np.abs(data - model)
    gap /= 1.0 + np.abs(data)
    return float(gap.max())


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
    Two survivors whose real parts coincide differ on some axis by a
    non-real root, so they raise ComplexAtomError too.
    """
    coef = expansion.coefficients
    magnitudes = np.abs(coef)
    max_abs = float(magnitudes.max(initial=0.0))
    # grid indices and coefficients in C order; an all-zero tensor has none
    kept = magnitudes > tol_weight * max_abs
    columns = [axis.tolist() for axis in kept.nonzero()]
    if not columns[0]:
        return AtomicMeasure(dim=expansion.dim, points=(), weights=(), support=())
    survivors = list(zip(*columns))
    picked = coef[kept]
    values = picked.tolist()
    weights = picked.real.tolist()
    threshold = tol_imag * (1.0 + max(map(abs, weights)))
    # each root is tested and split once: the axes with a root that is not
    # real, and every root's real part, from which each point's coordinate
    # along the axis is read
    complex_axes, coordinates, finite = [], [], True
    for axis, (roots, k) in enumerate(zip(expansion.roots, columns)):
        flags = [abs(r.imag) > threshold for r in roots]
        if True in flags:
            complex_axes.append((axis, flags))
        parts = [float(r.real) for r in roots]
        finite = finite and all(map(math.isfinite, parts))
        coordinates.append(list(map(parts.__getitem__, k)))
    points = list(zip(*coordinates))
    seen: dict = {}  # each real point's grid index, in survivor order
    for grid_idx, point, c in zip(survivors, points, values):
        for axis, flags in complex_axes:
            k = grid_idx[axis]
            if flags[k]:
                raise ComplexAtomError(grid_idx, expansion.roots[axis][k], "coordinate")
        if abs(c.imag) > threshold:
            raise ComplexAtomError(grid_idx, c, "weight")
        if c.real <= 0.0:
            raise NegativeWeightError(grid_idx, point, c.real)
        earlier = seen.setdefault(point, grid_idx)
        if earlier is not grid_idx:
            # the roots are simple: on the first axis the indices differ, the
            # two roots share a real part, so one of them is not real
            axis = next(l for l, (a, b) in enumerate(zip(earlier, grid_idx)) if a != b)
            witness = grid_idx if expansion.roots[axis][grid_idx[axis]].imag else earlier
            raise ComplexAtomError(witness, expansion.roots[axis][witness[axis]], "coordinate")
    weights, points, support = tuple(weights), tuple(points), tuple(survivors)
    if not (finite and all(map(math.isfinite, weights))):
        # the validating constructor names the offending atom
        return AtomicMeasure(len(expansion.roots), points, weights, support)
    return AtomicMeasure._of_checked(len(expansion.roots), points, weights, support)


def evaluate_moments(measure: AtomicMeasure, degree: int) -> TruncatedSequence:
    """Moments beta_i = sum_s w_s prod_l x_{l,s} ** i_l for all |i| <= degree.

    The measure pass ``moments.moments_and_grams`` with no Gram sums: one
    power table per variable, as the Binet expansion uses; the heads in the
    first dim - 1 variables are evaluated a block at a time and each block
    takes one product with the last variable's table.
    """
    points = np.array(measure.points, dtype=float).reshape(measure.atom_count, measure.dim)
    values, _ = moments_and_grams(points, measure.weights, degree)
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
