"""Power-sum expansions over root grids and their conversion to measures."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from momentrec.binet import (
    MOMENT_BLOCK_ENTRIES,
    AtomicMeasure,
    BinetExpansion,
    evaluate_moments,
    expansion_to_measure,
    lagrange_interpolant,
    multivariate_binet,
    univariate_binet,
)
from momentrec.errors import (
    ComplexAtomError,
    InsufficientDataError,
    NegativeWeightError,
    RepeatedRootsError,
)
from momentrec.indexing import basis_size, iter_basis
from momentrec.moments import TruncatedSequence, build_moment_matrix, bilinear_form
from momentrec.polynomials import MultivariatePoly, UnivariatePoly
from momentrec.recurrence import CharacteristicSystem, detect_characteristic_system
from momentrec.sampling import sample_instance

ONES_D2 = TruncatedSequence(2, 2, {idx: 1.0 for idx in iter_basis(2, 2)})
PAIR = AtomicMeasure(dim=2, points=((0.0, 0.0), (1.0, 1.0)), weights=(1.0, 1.0))
PAIR_SEQ = evaluate_moments(PAIR, 4)

SQRT5 = np.sqrt(5.0)


def triple_product_sequence(degree):
    """Three-variable data 3^n 5^m (2^v - 1) up to the given degree."""
    values = {
        idx: float(3 ** idx[0] * 5 ** idx[1] * (2 ** idx[2] - 1))
        for idx in iter_basis(3, degree)
    }
    return TruncatedSequence(3, degree, values)


def test_univariate_single_root():
    """x - 1 with initial term 7 gives the constant expansion."""
    pairs = univariate_binet(UnivariatePoly((-1.0, 1.0)), [7.0])
    assert len(pairs) == 1
    root, coef = pairs[0]
    assert root == pytest.approx(1.0)
    assert coef == pytest.approx(7.0)


def test_univariate_fibonacci():
    """x^2 - x - 1 on (0, 1) gives coefficients -+ 1/sqrt(5), roots sorted."""
    pairs = univariate_binet(UnivariatePoly((-1.0, -1.0, 1.0)), [0.0, 1.0])
    (r0, c0), (r1, c1) = pairs
    assert r0.real == pytest.approx((1.0 - SQRT5) / 2.0, abs=1e-12)
    assert r1.real == pytest.approx((1.0 + SQRT5) / 2.0, abs=1e-12)
    assert c0.real == pytest.approx(-1.0 / SQRT5, abs=1e-12)
    assert c1.real == pytest.approx(1.0 / SQRT5, abs=1e-12)


def test_univariate_mersenne():
    """x^2 - 3x + 2 on (0, 1) splits as -1 * 1^k + 1 * 2^k."""
    pairs = univariate_binet(UnivariatePoly((2.0, -3.0, 1.0)), [0.0, 1.0])
    (r0, c0), (r1, c1) = pairs
    assert (r0.real, c0.real) == pytest.approx((1.0, -1.0), abs=1e-12)
    assert (r1.real, c1.real) == pytest.approx((2.0, 1.0), abs=1e-12)


def test_univariate_initial_length_contract():
    """Exactly deg(p) initial terms are required."""
    p = UnivariatePoly((2.0, -3.0, 1.0))
    with pytest.raises(InsufficientDataError):
        univariate_binet(p, [0.0])
    with pytest.raises(InsufficientDataError):
        univariate_binet(p, [0.0, 1.0, 3.0])


def test_univariate_repeated_roots():
    """(x - 1)^2 has a double root and is rejected."""
    with pytest.raises(RepeatedRootsError) as info:
        univariate_binet(UnivariatePoly((1.0, -2.0, 1.0)), [1.0, 1.0])
    assert info.value.multiplicity == 2
    assert info.value.root == pytest.approx(1.0)


def test_multivariate_constant():
    """All-ones data expands to a single unit coefficient at root (1, 1)."""
    system = detect_characteristic_system(ONES_D2)
    exp = multivariate_binet(system, ONES_D2)
    assert exp.roots == ((1.0,), (1.0,))
    assert exp.coefficients.shape == (1, 1)
    assert exp.coefficients[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert exp.source_residual < 1e-12


def test_multivariate_two_atoms():
    """The two-atom data puts unit mass on the diagonal grid points."""
    system = detect_characteristic_system(PAIR_SEQ)
    exp = multivariate_binet(system, PAIR_SEQ)
    assert np.allclose(exp.roots, ((0.0, 1.0), (0.0, 1.0)), atol=1e-9)
    assert np.allclose(exp.coefficients, [[1.0, 0.0], [0.0, 1.0]], atol=1e-9)
    assert exp.source_residual < 1e-9
    assert np.allclose(exp.grid_point((1, 0)), (1.0, 0.0), atol=1e-9)


def test_multivariate_product_with_sign():
    """3^n 5^m (2^v - 1) has coefficients -1 and +1 on a 1x1x2 grid."""
    seq = triple_product_sequence(4)
    system = detect_characteristic_system(seq)
    assert [p.degree for p in system.polys] == [1, 1, 2]
    exp = multivariate_binet(system, seq)
    assert exp.grid_shape == (1, 1, 2)
    assert np.allclose(exp.roots[0], (3.0,), atol=1e-9)
    assert np.allclose(exp.roots[1], (5.0,), atol=1e-9)
    assert np.allclose(exp.roots[2], (1.0, 2.0), atol=1e-9)
    assert exp.coefficients[0, 0, 0] == pytest.approx(-1.0, abs=1e-8)
    assert exp.coefficients[0, 0, 1] == pytest.approx(1.0, abs=1e-8)


def test_residual_covers_entries_outside_the_block():
    """A doctored high-degree entry shows up in the reconstruction residual."""
    values = dict(PAIR_SEQ.values)
    values[(2, 2)] = 1.1
    doctored = TruncatedSequence(2, 4, values)
    system = detect_characteristic_system(PAIR_SEQ)
    exp = multivariate_binet(system, doctored)
    assert exp.source_residual == pytest.approx(0.1 / 2.1, abs=1e-9)


def test_block_degree_guard():
    """Data shorter than the initial block is rejected."""
    seq = TruncatedSequence(2, 1, {(0, 0): 2.0, (1, 0): 1.0, (0, 1): 1.0})
    p = UnivariatePoly((0.0, -1.0, 1.0))
    system = CharacteristicSystem.from_polys([p, p])
    with pytest.raises(InsufficientDataError):
        multivariate_binet(system, seq)


def test_measure_from_constant_expansion():
    """All-ones data becomes the unit mass at (1, 1)."""
    system = detect_characteristic_system(ONES_D2)
    measure = expansion_to_measure(multivariate_binet(system, ONES_D2))
    assert measure.points == ((1.0, 1.0),)
    assert measure.weights == (1.0,)
    assert measure.support == ((0, 0),)


def test_measure_from_two_atom_expansion():
    """Cross-grid coefficients are pruned, diagonal atoms survive."""
    system = detect_characteristic_system(PAIR_SEQ)
    measure = expansion_to_measure(multivariate_binet(system, PAIR_SEQ))
    assert measure.atom_count == 2
    assert measure.support == ((0, 0), (1, 1))
    recovered = {
        tuple(round(x, 9) for x in p): w
        for p, w in zip(measure.points, measure.weights)
    }
    assert recovered[(0.0, 0.0)] == pytest.approx(1.0, abs=1e-9)
    assert recovered[(1.0, 1.0)] == pytest.approx(1.0, abs=1e-9)


def test_measure_rejects_negative_coefficient():
    """The signed product data fails with the offending grid point."""
    seq = triple_product_sequence(4)
    system = detect_characteristic_system(seq)
    with pytest.raises(NegativeWeightError) as info:
        expansion_to_measure(multivariate_binet(system, seq))
    assert info.value.grid_index == (0, 0, 0)
    assert info.value.weight == pytest.approx(-1.0, abs=1e-8)
    assert np.allclose(info.value.point, (3.0, 5.0, 1.0), atol=1e-8)


def test_measure_rejects_complex_coordinates():
    """x^2 + 1 data (2, 0, -2, 0, 2) has atoms at -+ i."""
    values = {(k,): v for k, v in enumerate([2.0, 0.0, -2.0, 0.0, 2.0])}
    seq = TruncatedSequence(1, 4, values)
    system = detect_characteristic_system(seq)
    assert np.allclose(system.polys[0].coeffs, (1.0, 0.0, 1.0), atol=1e-9)
    with pytest.raises(ComplexAtomError) as info:
        expansion_to_measure(multivariate_binet(system, seq))
    assert info.value.what == "coordinate"


def test_measure_prunes_tiny_coefficients():
    """Coefficients at the relative weight floor are dropped."""
    exp = BinetExpansion(
        roots=((0.0 + 0j, 1.0 + 0j),),
        coefficients=np.array([1e-12 + 0j, 1.0 + 0j]),
        source_residual=0.0,
    )
    measure = expansion_to_measure(exp)
    assert measure.points == ((1.0,),)
    assert measure.weights == (1.0,)


def test_measure_from_zero_expansion_is_empty():
    """An all-zero coefficient tensor gives the empty measure."""
    exp = BinetExpansion(
        roots=((1.0 + 0j,), (1.0 + 0j,)),
        coefficients=np.zeros((1, 1), dtype=complex),
        source_residual=0.0,
    )
    measure = expansion_to_measure(exp)
    assert measure.atom_count == 0
    assert measure.dim == 2


def test_evaluate_moments_examples():
    """Frozen moment values for unit, scaled, paired, and empty measures."""
    ones = evaluate_moments(AtomicMeasure(2, ((1.0, 1.0),), (1.0,)), 4)
    assert all(v == 1.0 for v in ones.values.values())
    spike = evaluate_moments(AtomicMeasure(1, ((0.0,),), (2.0,)), 4)
    assert [spike.values[(k,)] for k in range(5)] == [2.0, 0.0, 0.0, 0.0, 0.0]
    pair = evaluate_moments(PAIR, 2)
    assert pair.values[(0, 0)] == 2.0
    assert all(v == 1.0 for idx, v in pair.values.items() if idx != (0, 0))
    empty = evaluate_moments(AtomicMeasure(2, (), ()), 2)
    assert all(v == 0.0 for v in empty.values.values())
    with pytest.raises(ValueError):
        evaluate_moments(PAIR, -1)


def test_evaluate_moments_matches_direct_power_sums():
    """Every moment equals sum_s w_s prod_l x_l**i_l, computed atom by atom."""
    rng = np.random.default_rng(8)
    spread = AtomicMeasure(2, rng.uniform(-1.5, 1.5, (300, 2)), rng.uniform(0.1, 1.0, 300))
    solid = AtomicMeasure(3, rng.uniform(-1.0, 1.0, (7, 3)), rng.uniform(0.1, 1.0, 7))
    # 231 rows x 300 atoms: the rows run through several blocks
    assert basis_size(2, 20) * spread.atom_count > 2 * MOMENT_BLOCK_ENTRIES
    for measure, degree in ((AtomicMeasure(2, (), ()), 6), (spread, 20), (solid, 9)):
        seq = evaluate_moments(measure, degree)
        for idx, value in seq.values.items():
            terms = [
                w * math.prod(x**e for x, e in zip(point, idx))
                for point, w in zip(measure.points, measure.weights)
            ]
            # product rounding grows with the degree, summation with the atom count
            tol = (degree + measure.atom_count) * np.finfo(float).eps * sum(map(abs, terms))
            assert abs(value - math.fsum(terms)) <= tol, idx


def test_evaluate_moments_memory_follows_the_block():
    """The 6^3 grid at degree 32 stays far below one rows x atoms array (11.3 MB)."""
    axis = np.linspace(-1.0, 1.0, 6)
    points = tuple(itertools.product(axis, axis, axis))
    grid = AtomicMeasure(3, points, tuple(1.0 + 0.01 * i for i in range(len(points))))
    tracemalloc.start()
    try:
        seq = evaluate_moments(grid, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seq.array.size * grid.atom_count * 8 > 11 * 10**6
    assert peak < 4 * 10**6


def test_roundtrip_measure_to_moments_to_measure():
    """Synthesized measures come back atom for atom."""
    rng = np.random.default_rng(21)
    for _ in range(25):
        inst = sample_instance(rng)
        system = detect_characteristic_system(inst.moments)
        measure = expansion_to_measure(multivariate_binet(system, inst.moments))
        assert measure.atom_count == inst.measure.atom_count
        truth = {p: w for p, w in zip(inst.measure.points, inst.measure.weights)}
        for point, weight in zip(measure.points, measure.weights):
            nearest = min(truth, key=lambda t: max(abs(a - b) for a, b in zip(t, point)))
            assert max(abs(a - b) for a, b in zip(nearest, point)) < 1e-7
            assert abs(truth[nearest] - weight) < 1e-7


def test_lagrange_single_node():
    """A one-node grid gives the constant polynomial 1."""
    poly = lagrange_interpolant(((0.5,),), (0,))
    assert poly.terms == {(0,): 1.0}


def test_lagrange_unit_square():
    """Frozen coefficients on the grid {0, 1}^2."""
    grid = ((0.0, 1.0), (0.0, 1.0))
    corner = lagrange_interpolant(grid, (1, 1))
    assert corner.terms == {(1, 1): pytest.approx(1.0)}
    origin = lagrange_interpolant(grid, (0, 0))
    expected = {(0, 0): 1.0, (1, 0): -1.0, (0, 1): -1.0, (1, 1): 1.0}
    assert set(origin.terms) == set(expected)
    for idx, coef in expected.items():
        assert origin.terms[idx] == pytest.approx(coef, abs=1e-12)


def test_lagrange_kronecker_property():
    """Each interpolant is 1 at its own node and 0 at every other."""
    rng = np.random.default_rng(22)
    for _ in range(5):
        grid = tuple(
            tuple(sorted(rng.uniform(-2, 2, size=rng.integers(1, 4))))
            for _ in range(2)
        )
        shape = tuple(len(g) for g in grid)
        for pick in np.ndindex(shape):
            poly = lagrange_interpolant(grid, pick)
            for other in np.ndindex(shape):
                point = tuple(grid[ax][k] for ax, k in enumerate(other))
                target = 1.0 if other == pick else 0.0
                assert poly.evaluate(point) == pytest.approx(target, abs=1e-8)


def test_lagrange_validation():
    """Non-real nodes and out-of-range picks are rejected."""
    with pytest.raises(ValueError):
        lagrange_interpolant(((1.0j, 2.0),), (0,))
    with pytest.raises(ValueError):
        lagrange_interpolant(((0.0, 1.0),), (2,))
    with pytest.raises(ValueError):
        lagrange_interpolant(((0.0, 1.0),), (0, 0))


def test_weight_extraction_identity():
    """Pairing an interpolant with the moment matrix reads off its weight."""
    m2 = build_moment_matrix(PAIR_SEQ, 2)
    grid = ((0.0, 1.0), (0.0, 1.0))
    one = MultivariatePoly.constant(2, 1.0)
    for pick, expected in (((0, 0), 1.0), ((1, 1), 1.0), ((0, 1), 0.0)):
        interp = lagrange_interpolant(grid, pick)
        assert bilinear_form(interp, m2, interp) == pytest.approx(expected, abs=1e-9)
        assert bilinear_form(interp, m2, one) == pytest.approx(expected, abs=1e-9)


def test_measure_validation_and_serialization():
    """Constructor contracts and JSON round trip."""
    with pytest.raises(ValueError):
        AtomicMeasure(2, ((0.0, 0.0),), (-1.0,))
    with pytest.raises(ValueError):
        AtomicMeasure(2, ((0.0, 0.0), (0.0, 0.0)), (1.0, 1.0))
    with pytest.raises(ValueError):
        AtomicMeasure(2, ((0.0,),), (1.0,))
    with pytest.raises(ValueError, match="atom 0"):
        AtomicMeasure(1, ((0.5,),), (math.nan,))
    with pytest.raises(ValueError, match="atom 0"):
        AtomicMeasure(1, ((math.inf,),), (1.0,))
    again = AtomicMeasure.from_dict(PAIR.to_dict())
    assert again.points == PAIR.points
    assert again.weights == PAIR.weights
