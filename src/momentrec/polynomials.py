"""Dense univariate and sparse multivariate polynomial arithmetic.

Univariate coefficients are stored lowest degree first, so ``coeffs[k]`` is
the coefficient of x^k and the leading coefficient sits at the end. The zero
polynomial is represented as ``(0.0,)``. Multivariate polynomials map
exponent tuples to nonzero coefficients.

Roots are the eigenvalues of the companion matrix that ``numpy.roots``
builds, with multiplicities recovered by clustering; a degree-one
polynomial's root is read off its coefficients.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import _lapack
from .indexing import MultiIndex, basis_size, degree_lex_rank, degree_lex_ranks, total_degree

__all__ = [
    "UnivariatePoly",
    "MultivariatePoly",
    "poly_roots",
    "power_table",
    "monomials",
]

ROOT_CLUSTER_TOL = 1e-7


@dataclass(frozen=True, slots=True)
class UnivariatePoly:
    """Dense real univariate polynomial, lowest-degree coefficient first."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        cleaned = [float(c) for c in self.coeffs]
        while len(cleaned) > 1 and cleaned[-1] == 0.0:
            cleaned.pop()
        if not cleaned:
            cleaned = [0.0]
        object.__setattr__(self, "coeffs", tuple(cleaned))

    @classmethod
    def _of_monic(cls, coeffs: tuple[float, ...]) -> "UnivariatePoly":
        """The polynomial of ``coeffs``, not copied: the caller's own tuple of
        floats, whose last entry is 1.0."""
        poly = cls.__new__(cls)
        object.__setattr__(poly, "coeffs", coeffs)
        return poly

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1.0

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    def evaluate(self, x):
        """Evaluate by Horner's rule; x may be scalar, complex, or ndarray."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def monic(self) -> "UnivariatePoly":
        lead = self.coeffs[-1]
        if lead == 0.0:
            raise ValueError("cannot normalize the zero polynomial")
        return UnivariatePoly(tuple(c / lead for c in self.coeffs))

    def __mul__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        prod = np.convolve(np.asarray(self.coeffs), np.asarray(other.coeffs))
        return UnivariatePoly(tuple(prod))

    def __add__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n)
        a[: len(self.coeffs)] = self.coeffs
        a[: len(other.coeffs)] += other.coeffs
        return UnivariatePoly(tuple(a))

    def __sub__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n)
        a[: len(self.coeffs)] = self.coeffs
        a[: len(other.coeffs)] -= other.coeffs
        return UnivariatePoly(tuple(a))

    def scale(self, factor: float) -> "UnivariatePoly":
        return UnivariatePoly(tuple(factor * c for c in self.coeffs))

    @classmethod
    def from_roots(cls, roots: Iterable[complex]) -> "UnivariatePoly":
        """Monic polynomial with the given roots.

        Complex roots must come in conjugate pairs for the result to be real;
        stray imaginary parts below 1e-9 (relative) are discarded.
        """
        coeffs = np.array([1.0 + 0.0j])
        for r in roots:
            coeffs = np.convolve(coeffs, np.array([-r, 1.0 + 0.0j]))
        scale = 1.0 + float(np.max(np.abs(coeffs)))
        if np.max(np.abs(coeffs.imag)) > 1e-9 * scale:
            raise ValueError("roots are not closed under conjugation")
        return cls(tuple(coeffs.real))

    def to_dict(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "UnivariatePoly":
        coeffs = data.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs:
            raise ValueError("univariate polynomial JSON needs a nonempty 'coeffs' list")
        return cls(tuple(float(c) for c in coeffs))


def poly_roots(p: UnivariatePoly) -> list[tuple[complex, int]]:
    """Roots with multiplicities via companion-matrix eigenvalues.

    A degree-one polynomial c_0 + c_1 x with finite c_0 / c_1 != 0 has the
    root -(c_0 / c_1), the value LAPACK returns for its 1 x 1 companion
    matrix, and calls no LAPACK; c_0 = 0 takes numpy.roots' path to +0.
    Eigenvalues closer than ``ROOT_CLUSTER_TOL * (1 + max |root|)`` are merged
    into one root (their mean) with the cluster size as multiplicity.
    Returned sorted by (real, imag).
    """
    if len(p.coeffs) == 1:
        if p.coeffs[0] == 0.0:
            raise ValueError("the zero polynomial has no well-defined roots")
        return []
    lead = p.coeffs[-1]
    coeffs = [c / lead for c in p.coeffs]
    if len(coeffs) == 2 and coeffs[0] != 0.0 and math.isfinite(coeffs[0]):
        return [(complex(-coeffs[0]), 1)]
    # numpy.roots' rules: exactly-zero low coefficients are roots at +0 kept
    # out of the matrix, whose first row is -c_{n-1} .. -c_0 over a shifted
    # identity; eigvals gives float roots when all are real
    zeros = next(k for k, c in enumerate(coeffs) if c != 0.0)
    n = len(coeffs) - 1 - zeros
    companion = np.zeros((n, n))
    companion.ravel()[n :: n + 1] = 1.0
    companion[:1] = [-c for c in reversed(coeffs[zeros:-1])]
    raw = _lapack.eigvals(companion).tolist() + [0.0] * zeros
    raw.sort(key=_real_imag)
    threshold = ROOT_CLUSTER_TOL * (1.0 + max(map(abs, raw)))
    # the loop compares each root with its neighbour's cluster: if no two
    # neighbours are that close, each root is a cluster of one, its own mean
    if all(abs(b - a) > threshold for a, b in zip(raw, raw[1:])):
        return [(complex(z), 1) for z in raw]
    raw = np.array(raw)
    clusters: list[list[complex]] = []
    for z in raw:
        if clusters and abs(z - np.mean(clusters[-1])) <= threshold:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    return [(complex(np.mean(c)), len(c)) for c in clusters]


_real_imag = operator.attrgetter("real", "imag")


def power_table(values, degree: int) -> np.ndarray:
    """Row k holds values ** k for k = 0..degree, by repeated products, in their dtype."""
    values = np.asarray(values)
    table = np.empty((degree + 1, len(values)), dtype=values.dtype)
    table[0] = 1.0
    for k in range(1, degree + 1):
        np.multiply(table[k - 1], values, out=table[k])
    return table


def monomials(tables, exponents: np.ndarray) -> np.ndarray:
    """Row i holds x^exponents[i] at every point, from the points' per-axis ``power_table``s."""
    out = tables[0][exponents[:, 0]]
    for table, column in zip(tables[1:], exponents.T[1:]):
        out *= table[column]
    return out


@dataclass(frozen=True, slots=True)
class MultivariatePoly:
    """Sparse real polynomial in d variables: exponent tuple -> coefficient."""

    dim: int
    terms: dict[MultiIndex, float] = field(default_factory=dict)
    # set from the terms at construction: total degree (-1 for the zero
    # polynomial) and largest |coefficient| (0.0 for it)
    degree: int = field(init=False, repr=False, compare=False)
    max_coefficient: float = field(init=False, repr=False, compare=False)
    # (exponents, coefficients) in ``terms`` order, made when first read and
    # kept: a polynomial that is never solved with holds no arrays
    _arrays: tuple | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        cleaned: dict[MultiIndex, float] = {}
        for idx, coef in self.terms.items():
            key = tuple(int(e) for e in idx)
            if len(key) != self.dim:
                raise ValueError(f"exponent tuple {key} does not have length {self.dim}")
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            c = float(coef)
            if not math.isfinite(c):
                raise ValueError(f"coefficient of {key} is not finite: {c}")
            if c != 0.0:
                cleaned[key] = c
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "degree", max(map(total_degree, cleaned), default=-1))
        object.__setattr__(self, "max_coefficient", max(map(abs, cleaned.values()), default=0.0))

    def _kept(self) -> tuple:
        """(exponents, coefficients), made at the first call and kept."""
        arrays = self._arrays
        if arrays is None:
            coefficients = np.array(list(self.terms.values()), dtype=float)
            coefficients.flags.writeable = False
            arrays = (tuple(self.terms), coefficients)
            object.__setattr__(self, "_arrays", arrays)
        return arrays

    @property
    def exponents(self) -> tuple[MultiIndex, ...]:
        """The exponent tuples in ``terms`` order, made once."""
        return self._kept()[0]

    @property
    def coefficients(self) -> np.ndarray:
        """The coefficients in ``terms`` order, a read-only float64 array made once."""
        return self._kept()[1]

    def evaluate(self, point) -> float:
        total = 0.0
        for idx, coef in self.terms.items():
            value = coef
            for x, e in zip(point, idx):
                if e:
                    value *= x**e
            total += value
        return total

    def __add__(self, other: "MultivariatePoly") -> "MultivariatePoly":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        merged = dict(self.terms)
        for idx, coef in other.terms.items():
            merged[idx] = merged.get(idx, 0.0) + coef
        return MultivariatePoly(self.dim, merged)

    def __sub__(self, other: "MultivariatePoly") -> "MultivariatePoly":
        return self + other.scale(-1.0)

    def __mul__(self, other: "MultivariatePoly") -> "MultivariatePoly":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        out: dict[MultiIndex, float] = {}
        for ia, ca in self.terms.items():
            for ib, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ia, ib))
                out[key] = out.get(key, 0.0) + ca * cb
        return MultivariatePoly(self.dim, out)

    def scale(self, factor: float) -> "MultivariatePoly":
        return MultivariatePoly(
            self.dim, {idx: factor * c for idx, c in self.terms.items()}
        )

    def coefficient_vector(self, order: int) -> np.ndarray:
        """Coefficients embedded in the degree-lex basis of degree <= order."""
        if self.degree > order:
            raise ValueError(
                f"polynomial degree {self.degree} exceeds basis order {order}"
            )
        vec = np.zeros(basis_size(self.dim, order))
        exponents = np.array(list(self.terms), dtype=np.intp).reshape(-1, self.dim)
        vec[degree_lex_ranks(exponents)] = list(self.terms.values())
        return vec

    @classmethod
    def zero(cls, dim: int) -> "MultivariatePoly":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value: float) -> "MultivariatePoly":
        return cls(dim, {tuple([0] * dim): value})

    @classmethod
    def variable(cls, dim: int, axis: int) -> "MultivariatePoly":
        if not 0 <= axis < dim:
            raise ValueError(f"axis {axis} out of range for dimension {dim}")
        idx = tuple(1 if k == axis else 0 for k in range(dim))
        return cls(dim, {idx: 1.0})

    @classmethod
    def from_univariate(cls, dim: int, axis: int, poly: UnivariatePoly) -> "MultivariatePoly":
        """Embed a univariate polynomial as a polynomial in x_axis."""
        if not 0 <= axis < dim:
            raise ValueError(f"axis {axis} out of range for dimension {dim}")
        terms = {}
        for power, coef in enumerate(poly.coeffs):
            idx = tuple(power if k == axis else 0 for k in range(dim))
            terms[idx] = coef
        return cls(dim, terms)

    def to_dict(self) -> dict:
        ordered = sorted(self.terms, key=degree_lex_rank)
        return {
            "dim": self.dim,
            "terms": [{"idx": list(idx), "coef": self.terms[idx]} for idx in ordered],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MultivariatePoly":
        if "dim" not in data or "terms" not in data:
            raise ValueError("polynomial JSON needs 'dim' and 'terms'")
        dim = int(data["dim"])
        terms: dict[MultiIndex, float] = {}
        for entry in data["terms"]:
            idx = tuple(int(e) for e in entry["idx"])
            if idx in terms:
                raise ValueError(f"duplicate exponent tuple {idx}")
            terms[idx] = float(entry["coef"])
        return cls(dim, terms)
