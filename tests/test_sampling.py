"""Random instance generation: determinism, ranges, and tau bookkeeping."""

import numpy as np
import pytest

from momentrec.binet import AtomicMeasure
from momentrec.sampling import (
    COORDINATE_HIGH,
    COORDINATE_LOW,
    MAX_ATOMS,
    MAX_COORDINATES,
    MIN_SEPARATION,
    WEIGHT_HIGH,
    WEIGHT_LOW,
    minimal_tau,
    sample_coordinates,
    sample_instance,
    sample_measure,
)


def test_same_seed_same_instance():
    """Equal seeds reproduce the instance exactly."""
    a = sample_instance(np.random.default_rng(7))
    b = sample_instance(np.random.default_rng(7))
    assert a.measure.points == b.measure.points
    assert a.measure.weights == b.measure.weights
    assert a.tau == b.tau
    assert a.moments.values == b.moments.values
    c = sample_instance(np.random.default_rng(8))
    assert c.measure.points != a.measure.points or c.measure.weights != a.measure.weights


def test_coordinate_separation_and_range():
    """Sampled coordinates stay in range and pairwise separated."""
    rng = np.random.default_rng(9)
    for _ in range(50):
        coords = sample_coordinates(rng, 4)
        assert len(coords) == 4
        for x in coords:
            assert COORDINATE_LOW <= x <= COORDINATE_HIGH
        for i, x in enumerate(coords):
            for y in coords[i + 1 :]:
                assert abs(x - y) >= MIN_SEPARATION


def test_coordinate_sampling_stall_guard():
    """Impossible separation requests fail fast instead of spinning."""
    with pytest.raises(RuntimeError):
        sample_coordinates(np.random.default_rng(0), 5, low=0.0, high=0.1, separation=1.0)


def test_measure_respects_global_bounds():
    """Dimension, atom count, grid size, and weights stay in their boxes."""
    rng = np.random.default_rng(10)
    for _ in range(100):
        measure = sample_measure(rng)
        assert 1 <= measure.dim <= 3
        assert 1 <= measure.atom_count <= MAX_ATOMS
        for axis in range(measure.dim):
            distinct = {p[axis] for p in measure.points}
            assert len(distinct) <= MAX_COORDINATES
        for w in measure.weights:
            assert WEIGHT_LOW <= w <= WEIGHT_HIGH
        assert len(set(measure.points)) == measure.atom_count


def test_measure_fixed_dimension():
    """An explicit dimension is honored."""
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3):
        assert sample_measure(rng, dim=dim).dim == dim


def test_minimal_tau_hand_cases():
    """tau counts distinct per-axis coordinates minus one, summed."""
    single = AtomicMeasure(2, ((1.0, 1.0),), (1.0,))
    assert minimal_tau(single) == 0
    pair = AtomicMeasure(2, ((0.0, 0.0), (1.0, 1.0)), (1.0, 1.0))
    assert minimal_tau(pair) == 2
    mixed = AtomicMeasure(2, ((0.0, 2.0), (1.0, 2.0)), (1.0, 1.0))
    assert minimal_tau(mixed) == 1
    grid = AtomicMeasure(
        2,
        ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)),
        (1.0, 1.0, 1.0, 1.0),
    )
    assert minimal_tau(grid) == 2
    assert minimal_tau(AtomicMeasure(2, (), ())) == 0


def test_instance_moment_degree_matches_tau():
    """Each instance ships moments exactly to degree 2(tau + 1)."""
    rng = np.random.default_rng(12)
    for _ in range(50):
        inst = sample_instance(rng)
        assert inst.tau == minimal_tau(inst.measure)
        assert inst.moments.max_degree == 2 * (inst.tau + 1)
        assert inst.moments.dim == inst.measure.dim
