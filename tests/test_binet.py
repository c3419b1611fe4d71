"""Power-sum expansions over root grids and their conversion to measures."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from momentrec import _lapack
from momentrec.binet import (
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
from momentrec.moments import (
    MOMENT_BLOCK_ENTRIES,
    TruncatedSequence,
    bilinear_form,
    build_moment_matrix,
)
from momentrec.polynomials import MultivariatePoly, UnivariatePoly, poly_roots, power_table
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


def test_one_root_variables_make_no_lapack_call(monkeypatch):
    """Atoms that share their x1 give x1 one root: only x2 takes an eigvals and a solve."""
    from momentrec.solver import solve_full

    measure = AtomicMeasure(2, ((0.5, -1.0), (0.5, 0.25), (0.5, 2.0)), (1.0, 2.0, 3.0))
    calls = {"eigvals": [], "solve": []}
    for name, shapes in calls.items():
        function = getattr(_lapack, name)

        def counted(matrix, *args, function=function, shapes=shapes):
            shapes.append(np.shape(matrix))
            return function(matrix, *args)

        monkeypatch.setattr(_lapack, name, counted)
    report = solve_full(evaluate_moments(measure, 6))
    assert report.status == "Success"
    assert np.allclose(report.measure.points, measure.points, atol=1e-9)
    assert calls == {"eigvals": [(3, 3)], "solve": [(3, 3)]}


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


@pytest.mark.parametrize(
    "coefficients, error, grid_index, what",
    [
        # several survivors fail: the first in C order is reported, whatever its kind
        ([[-1.0, 1.0], [1.0, 1.0]], NegativeWeightError, (0, 0), None),
        ([[1.0, 1e-12], [1.0 + 0.5j, -1.0]], ComplexAtomError, (1, 0), "weight"),
        # one survivor with several faults: coordinate, then weight, then sign
        ([[0.0, -1.0 + 1.0j], [0.0, 0.0]], ComplexAtomError, (0, 1), "coordinate"),
        ([[-1.0 + 1.0j, 0.0], [0.0, 0.0]], ComplexAtomError, (0, 0), "weight"),
        ([[-1.0, 0.0], [0.0, 0.0]], NegativeWeightError, (0, 0), None),
    ],
)
def test_measure_error_order(coefficients, error, grid_index, what):
    """The error names the first failing survivor in C order, checked in a fixed order."""
    # grid points (x, 3 + i) are complex; the 1e-12 coefficient is pruned
    exp = BinetExpansion(
        roots=((1.0 + 0j, 2.0 + 0j), (0.5 + 0j, 3.0 + 1.0j)),
        coefficients=np.array(coefficients, dtype=complex),
        source_residual=0.0,
    )
    with pytest.raises(error) as info:
        expansion_to_measure(exp)
    assert info.value.grid_index == grid_index
    if what is not None:
        assert info.value.what == what


@pytest.mark.parametrize(
    "roots, grid_index, value",
    [
        # a conjugate pair on the second axis: the later survivor is named
        (((1.0 + 0j, 2.0 + 0j), (0.5 - 1e-4j, 0.5 + 1e-4j)), (0, 1), 0.5 + 1e-4j),
        # a real root beside a non-real one of the same real part: the non-real one is named
        (((0.5 - 1e-4j, 0.5 + 0j),), (0,), 0.5 - 1e-4j),
    ],
)
def test_measure_rejects_survivors_that_realify_to_one_point(roots, grid_index, value):
    """Non-real roots within tol_imag of one real point are a complex atom, not two atoms."""
    coefficients = np.ones(tuple(map(len, roots)), dtype=complex)
    exp = BinetExpansion(roots=roots, coefficients=coefficients, source_residual=0.0)
    with pytest.raises(ComplexAtomError) as info:
        expansion_to_measure(exp, tol_imag=1e-2)
    assert info.value.grid_index == grid_index and info.value.value == value
    assert info.value.what == "coordinate"


@pytest.mark.parametrize(
    "roots, coefficients, options, error, message",
    [
        (
            ((1.0 + 0j, 2.0 + 0j), (0.5 + 0j,), (4.0 + 0j, 5.0 + 2.0j)),
            np.ones((2, 1, 2)),
            {},
            ComplexAtomError,
            "non-real coordinate 5+2j at grid index (0, 0, 1)",
        ),
        (
            ((1.0 + 0j, 2.0 + 0j), (0.5 + 0j, 3.0 + 0j)),
            [[1.0, 1.0], [1.0 + 0.5j, 1.0]],
            {},
            ComplexAtomError,
            "non-real weight 1+0.5j at grid index (1, 0)",
        ),
        (
            ((1.0 + 0j, 2.0 + 0j), (0.5 + 0j, 3.0 + 0j)),
            [[1.0, 1.0], [1.0, -2.0]],
            {},
            NegativeWeightError,
            "negative weight -2 at grid index (1, 1), point (2.0, 3.0)",
        ),
        (
            ((1.0 + 0j, 2.0 + 0j), (0.5 - 1e-4j, 0.5 + 1e-4j)),
            np.ones((2, 2)),
            {"tol_imag": 1e-2},
            ComplexAtomError,
            "non-real coordinate 0.5+0.0001j at grid index (0, 1)",
        ),
        (
            ((1.0 + 0j, 2.0 + 0j),),
            [1.0, math.inf],
            {"tol_weight": -1.0},
            ValueError,
            "atom 1 at (2.0,) has weight inf: coordinates must be finite and weights finite "
            "and strictly positive",
        ),
        (
            ((1.0 + 0j, math.inf + 0j),),
            [1.0, 1.0],
            {},
            ValueError,
            "atom 1 at (inf,) has weight 1.0: coordinates must be finite and weights finite "
            "and strictly positive",
        ),
    ],
    ids=["later-axis-coordinate", "weight", "negative", "one-real-point", "inf-weight", "inf-root"],
)
def test_measure_errors_keep_their_type_and_message(roots, coefficients, options, error, message):
    """Each kind of failing survivor raises the exception, with the message, that a check of
    every atom coordinate followed by the validating AtomicMeasure constructor gives."""
    exp = BinetExpansion(
        roots=roots, coefficients=np.array(coefficients, dtype=complex), source_residual=0.0
    )
    with pytest.raises(error) as info:
        expansion_to_measure(exp, **options)
    assert type(info.value) is error and str(info.value) == message


def test_measure_conversion_matches_the_validating_constructor():
    """The measure of a 3-D 6^3 grid's expansion holds the same float tuples the validating
    constructor makes, and equals the measure that constructor builds from them."""
    seq = evaluate_moments(_grid(3, 6), 32)
    measure = expansion_to_measure(multivariate_binet(detect_characteristic_system(seq), seq))
    assert measure.atom_count == 216
    assert all(type(x) is float for p in measure.points for x in p)
    assert all(type(w) is float for w in measure.weights)
    assert all(type(k) is int for idx in measure.support for k in idx)
    again = AtomicMeasure(3, measure.points, measure.weights, measure.support)
    assert again == measure


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


def test_evaluate_moments_that_overflow_raise_without_a_warning():
    """Powers of an atom at 1e100 overflow at degree 4: the ValueError names the moment."""
    with pytest.raises(ValueError, match=r"moment \(4,\) is not finite: inf"):
        evaluate_moments(AtomicMeasure(1, ((1e100,),), (1.0,)), 4)


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
    wide = AtomicMeasure(4, rng.uniform(-1.2, 1.2, (400, 4)), rng.uniform(0.1, 1.0, 400))
    deep = AtomicMeasure(5, rng.uniform(-1.2, 1.2, (400, 5)), rng.uniform(0.1, 1.0, 400))
    # the heads (exponents of all but the last variable) run through several blocks
    assert basis_size(3, 8) * wide.atom_count > 2 * MOMENT_BLOCK_ENTRIES
    assert basis_size(4, 6) * deep.atom_count > 2 * MOMENT_BLOCK_ENTRIES
    cases = ((AtomicMeasure(2, (), ()), 6), (spread, 20), (solid, 9), (wide, 8), (deep, 6))
    for measure, degree in cases:
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


def _grid(dim, nodes):
    axis = np.linspace(-1.0, 1.0, nodes)
    points = tuple(itertools.product(*([axis] * dim)))
    return AtomicMeasure(dim, points, tuple(1.0 + 0.01 * i for i in range(len(points))))


def test_evaluate_moments_of_5d_follows_the_head_block():
    """5-D 3^5 at degree 22 (80,730 moments, 14,950 heads) stays below 8 MB with its plans kept.

    One heads x atoms array would be 29 MB, one rows x atoms array 157 MB.
    """
    grid = _grid(5, 3)
    evaluate_moments(grid, 22)  # the basis and split plan are kept from here on
    tracemalloc.start()
    try:
        seq = evaluate_moments(grid, 22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis_size(4, 22) * grid.atom_count * 8 > 29 * 10**6
    assert seq.array.size == 80730
    assert peak < 8 * 10**6


@pytest.mark.parametrize(
    "dim, nodes, degree, bound",
    [(4, 4, 26, 27**4 * 16), (5, 3, 22, 3 * 23**4 * 16)],
)
def test_binet_residual_needs_no_rectangle(dim, nodes, degree, bound):
    """The residual's peak follows the data, not a rectangle of powers.

    4-D 4^4 at degree 26 stays below one 27^4 complex rectangle (8.5 MB);
    5-D 3^5 at degree 22 below one 3 x 23^4 rectangle of heads by the last
    variable's roots (13.4 MB), for 80,730 data entries.
    """
    seq = evaluate_moments(_grid(dim, nodes), degree)
    system = detect_characteristic_system(seq)
    tracemalloc.start()
    try:
        expansion = multivariate_binet(system, seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert expansion.source_residual < 1e-9
    assert peak < bound


def _rectangle_residual(system, seq, coefficients):
    """The expansion rebuilt on the whole (max_degree + 1)^dim rectangle, mode by mode."""
    recon = coefficients
    for poly in system.polys:
        table = power_table([root for root, _ in poly_roots(poly)], seq.max_degree)
        flat = table @ recon.reshape(recon.shape[0], -1)
        recon = flat.T.reshape(recon.shape[1:] + flat.shape[:1])
    model = np.array([recon[idx] for idx in iter_basis(seq.dim, seq.max_degree)])
    return float(np.max(np.abs(seq.array - model) / (1.0 + np.abs(seq.array))))


def test_source_residual_matches_the_rectangle():
    """On random 1-4-D systems and data the residual equals the rectangle's, bit for bit."""
    rng = np.random.default_rng(2026)
    for trial in range(24):
        dim = 1 + trial % 4
        polys = []
        for _ in range(dim):
            roots = list(rng.uniform(-2.0, 2.0, rng.integers(1, 4)))
            if rng.random() < 0.3:
                pair = complex(rng.uniform(-1, 1), rng.uniform(0.2, 1))
                roots += [pair, pair.conjugate()]
            polys.append(UnivariatePoly.from_roots(roots))
        tau = sum(p.degree - 1 for p in polys)
        system = CharacteristicSystem(tuple(polys), tau, 0.0)
        degree = tau + int(rng.integers(0, 6))
        seq = TruncatedSequence(dim, degree, rng.standard_normal(basis_size(dim, degree)))
        expansion = multivariate_binet(system, seq)
        assert expansion.source_residual == _rectangle_residual(
            system, seq, expansion.coefficients
        ), trial


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
