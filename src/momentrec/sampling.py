"""Seeded random product-grid instances for tests, demos, and the CLI.

Instances follow one recipe: a small product grid (at most four distinct
coordinates per variable, drawn from [-2, 2] with pairwise separation at
least 0.2), up to eight atoms placed on grid points, weights uniform in
[0.1, 5]. Moments are synthesized to degree 2(tau + 1) where tau is computed
from the coordinates the atoms actually use, so the instance carries exactly
the data the recovery pipeline is entitled to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .binet import AtomicMeasure, evaluate_moments
from .moments import TruncatedSequence

__all__ = [
    "SampledInstance",
    "sample_coordinates",
    "sample_measure",
    "sample_instance",
    "minimal_tau",
]

COORDINATE_LOW = -2.0
COORDINATE_HIGH = 2.0
MIN_SEPARATION = 0.2
WEIGHT_LOW = 0.1
WEIGHT_HIGH = 5.0
MAX_COORDINATES = 4
MAX_ATOMS = 8


@dataclass(frozen=True)
class SampledInstance:
    """A ground-truth measure together with its synthesized moments."""

    measure: AtomicMeasure
    tau: int
    moments: TruncatedSequence


def sample_coordinates(
    rng: np.random.Generator,
    count: int,
    low: float = COORDINATE_LOW,
    high: float = COORDINATE_HIGH,
    separation: float = MIN_SEPARATION,
) -> list[float]:
    """``count`` values in [low, high] with pairwise distance >= separation."""
    coords: list[float] = []
    attempts = 0
    while len(coords) < count:
        x = float(rng.uniform(low, high))
        if all(abs(x - y) >= separation for y in coords):
            coords.append(x)
        attempts += 1
        if attempts > 1000 * count:
            raise RuntimeError("coordinate sampling stalled; separation too strict")
    return coords


def minimal_tau(measure: AtomicMeasure) -> int:
    """Sum over variables of (number of distinct atom coordinates - 1), 0 with no atoms.

    This is the tau of the minimal characteristic system of the measure's
    moment sequence: each variable's minimal recurrence has one root per
    coordinate value actually used by some atom.
    """
    total = 0
    for axis in range(measure.dim):
        total += max(len({p[axis] for p in measure.points}) - 1, 0)
    return total


def sample_measure(rng: np.random.Generator, dim: int | None = None) -> AtomicMeasure:
    """Random atomic measure supported on a random product grid."""
    if dim is None:
        dim = int(rng.integers(1, 4))
    per_axis = [
        sample_coordinates(rng, int(rng.integers(1, MAX_COORDINATES + 1)))
        for _ in range(dim)
    ]
    grid = list(itertools.product(*per_axis))
    count = int(rng.integers(1, min(MAX_ATOMS, len(grid)) + 1))
    chosen = sorted(int(k) for k in rng.choice(len(grid), size=count, replace=False))
    points = tuple(grid[k] for k in chosen)
    weights = tuple(float(rng.uniform(WEIGHT_LOW, WEIGHT_HIGH)) for _ in points)
    return AtomicMeasure(dim=dim, points=points, weights=weights)


def sample_instance(rng: np.random.Generator, dim: int | None = None) -> SampledInstance:
    """Random measure plus moments to degree 2(tau + 1)."""
    measure = sample_measure(rng, dim)
    tau = minimal_tau(measure)
    moments = evaluate_moments(measure, 2 * (tau + 1))
    return SampledInstance(measure=measure, tau=tau, moments=moments)
