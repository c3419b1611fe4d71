"""End-to-end solver pipelines, reports, and certificate bookkeeping."""

import itertools
import math
import tracemalloc
import warnings
from collections import OrderedDict

import numpy as np
import pytest

from momentrec import indexing, moments, solver
from momentrec.binet import AtomicMeasure, evaluate_moments
from momentrec.errors import NoRecurrenceError, NonFiniteShiftError
from momentrec.indexing import basis_size, iter_basis
from momentrec.moments import TruncatedSequence
from momentrec.polynomials import MultivariatePoly, UnivariatePoly
from momentrec.recurrence import CharacteristicSystem
from momentrec.sampling import sample_instance
from momentrec.solver import (
    STATUS_COMPLEX_ATOM,
    STATUS_NEGATIVE_WEIGHT,
    STATUS_NOT_POSITIVE,
    STATUS_NOT_RECURSIVE,
    STATUS_SUCCESS,
    STATUS_SUPPORT_VIOLATION,
    SemialgebraicSet,
    Tolerances,
    count_atoms_in_zero_set,
    flat_extension_check,
    solve_constrained,
    solve_full,
    verify_measure,
)

ONES_D2 = TruncatedSequence(2, 2, {idx: 1.0 for idx in iter_basis(2, 2)})
PAIR = AtomicMeasure(dim=2, points=((0.0, 0.0), (1.0, 1.0)), weights=(1.0, 1.0))
PAIR_SEQ = evaluate_moments(PAIR, 4)
SPIKE = AtomicMeasure(dim=2, points=((1.0, 1.0),), weights=(1.0,))
SPIKE_SEQ = evaluate_moments(SPIKE, 4)
SIGNED_PAIR = TruncatedSequence(1, 4, [0.0, -1.0, -1.0, -1.0, -1.0])


def atoms_by_point(measure):
    """Dict of rounded atom locations to weights for stable comparison."""
    return {
        tuple(round(x, 9) for x in p): w
        for p, w in zip(measure.points, measure.weights)
    }


def test_solve_full_constant():
    """All-ones moments recover the unit mass at (1, 1)."""
    report = solve_full(ONES_D2)
    assert report.status == STATUS_SUCCESS
    assert report.tau == 0
    assert [r.order for r in report.psd_records] == [0, 1]
    assert all(r.is_psd for r in report.psd_records)
    assert report.measure.points == ((1.0, 1.0),)
    assert report.measure.weights == (1.0,)
    assert report.moment_residual < 1e-12
    assert report.expansion_residual < 1e-12


def test_solve_full_two_atoms():
    """The two-atom sequence comes back with both atoms and flat ranks."""
    report = solve_full(PAIR_SEQ)
    assert report.status == STATUS_SUCCESS
    assert report.tau == 2
    assert [r.order for r in report.psd_records] == [2, 3]
    assert report.psd_records[-1].rank == 2
    recovered = atoms_by_point(report.measure)
    assert recovered[(0.0, 0.0)] == pytest.approx(1.0, abs=1e-9)
    assert recovered[(1.0, 1.0)] == pytest.approx(1.0, abs=1e-9)


def test_solve_full_signed_sequence():
    """(0, -1, -1, -1, -1) fails the PSD gate with a frozen eigenvalue."""
    values = {(k,): v for k, v in enumerate([0.0, -1.0, -1.0, -1.0, -1.0])}
    report = solve_full(TruncatedSequence(1, 4, values))
    assert report.status == STATUS_NOT_POSITIVE
    first = report.psd_records[0]
    assert first.order == 1
    assert first.min_eigenvalue == pytest.approx((-1.0 - np.sqrt(5.0)) / 2.0, abs=1e-9)
    assert not first.is_psd
    assert "expansion witness" in report.detail


@pytest.mark.parametrize(
    "values, status, detail",
    [
        ([0.0, -1.0, -1.0, -1.0, -1.0], STATUS_NEGATIVE_WEIGHT, "negative weight -1"),
        ([2.0 * math.cos(0.7 * k) for k in range(5)], STATUS_COMPLEX_ATOM, "non-real"),
        ([float(k) for k in range(5)], STATUS_NOT_POSITIVE, "multiplicity 2"),
    ],
)
def test_stage_error_statuses(values, status, detail):
    """With the PSD gate loosened, the expansion stage's error names the status."""
    report = solve_full(TruncatedSequence(1, 4, values), Tolerances(psd=1e3))
    assert all(r.is_psd for r in report.psd_records)
    assert report.status == status
    assert detail in report.detail
    assert report.measure is None


def test_a_conjugate_pair_within_tol_imag_is_a_complex_atom():
    """Roots 0.5 -+ 1e-4 i both pass tol.imag = 1e-2 and realify to one point: ComplexAtom."""
    roots, weights = (0.5 + 1e-4j, 0.5 - 1e-4j, -1.0), (2.5, 2.5, 5.0)
    values = [sum(c * z**k for c, z in zip(weights, roots)).real for k in range(9)]
    report = solve_full(TruncatedSequence(1, 8, values), Tolerances(imag=1e-2, residual=1e-12))
    assert report.status == STATUS_COMPLEX_ATOM and report.measure is None
    assert report.detail == "non-real coordinate 0.5+0.0001j at grid index (2,)"


def test_recovered_atoms_fit_the_basis_of_degree_tau():
    """r <= prod_l deg p_l <= C(tau + d, d): the bound that lets every bracketed matrix,
    of order >= tau, hold at least as many rows as atoms."""
    rng = np.random.default_rng(19)
    inputs = [sample_instance(rng, dim=dim).moments for dim in (1, 2, 3, 4) for _ in range(10)]
    for dim, nodes in ((1, 6), (1, 9), (2, 4), (2, 6), (3, 3), (3, 4), (4, 2), (4, 3)):
        inputs.append(_grid_sequence(dim, nodes, 2 * dim * (nodes - 1) + 2))
    for seq in inputs:
        report = solve_full(seq)
        assert report.status == STATUS_SUCCESS
        assert report.measure.atom_count <= basis_size(seq.dim, report.tau)


def test_solve_full_zero_sequence():
    """Identically zero moments give the empty measure, successfully."""
    zero = TruncatedSequence(2, 4, {idx: 0.0 for idx in iter_basis(2, 4)})
    report = solve_full(zero)
    assert report.status == STATUS_SUCCESS
    assert report.measure.atom_count == 0
    assert report.moment_residual == 0.0


def test_solve_full_noise_is_not_recursive():
    """Random noise reports NotRecursive with an explanatory detail."""
    rng = np.random.default_rng(31)
    values = {idx: float(rng.normal()) for idx in iter_basis(2, 6)}
    report = solve_full(TruncatedSequence(2, 6, values))
    assert report.status == STATUS_NOT_RECURSIVE
    assert "no recurrence" in report.detail
    assert report.measure is None


def test_measure_that_misses_the_data_is_not_recursive():
    """A fit within tolerance whose measure misses the data by more is refused, with evidence."""
    seq = TruncatedSequence(1, 2, [1.0, 10.0, 100.0005])
    report = solve_full(seq)
    assert report.status == STATUS_NOT_RECURSIVE
    assert report.system.residual < 1e-6 < report.moment_residual < 1e-5
    assert report.detail == (
        f"recovered measure misses the data: residual {report.moment_residual:.3e} > 1.000e-06"
    )
    assert report.measure.atom_count == 1
    assert report.measure.points[0][0] == pytest.approx(10.0000495, abs=1e-7)
    payload = report.to_dict()
    assert payload["measure"] is not None
    assert payload["moment_residual"]["value"] == report.moment_residual
    assert solve_full(seq, Tolerances(residual=1e-5)).status == STATUS_SUCCESS


def test_relabelling_variables_permutes_the_atoms():
    """Relabelled data gives the same atoms with their coordinates relabelled."""
    # 2, 3 and 4 distinct coordinates on the axes: the root grid is 2 x 3 x 4,
    # so a power table paired with the wrong mode cannot go unnoticed
    uneven = AtomicMeasure(
        dim=3,
        points=((0.0, -1.0, 0.5), (1.0, 0.0, -0.5), (0.0, 2.0, 1.5), (1.0, -1.0, 2.5)),
        weights=(1.0, 0.5, 2.0, 0.25),
    )
    rng = np.random.default_rng(32)
    seqs = [evaluate_moments(uneven, 8)] + [sample_instance(rng).moments for _ in range(8)]
    for seq in seqs:
        # variable k of the relabelled data is variable perm[k] of the original
        perm = tuple(range(1, seq.dim)) + (0,)
        relabelled = TruncatedSequence(
            seq.dim,
            seq.max_degree,
            {tuple(idx[p] for p in perm): v for idx, v in seq.values.items()},
        )
        base, moved = solve_full(seq), solve_full(relabelled)
        assert base.status == moved.status == STATUS_SUCCESS
        expected = {
            tuple(point[p] for p in perm): w
            for point, w in atoms_by_point(base.measure).items()
        }
        found = atoms_by_point(moved.measure)
        assert set(found) == set(expected)
        for point, weight in expected.items():
            assert found[point] == pytest.approx(weight, abs=1e-9)


def test_solve_full_roundtrip_property():
    """Synthesized instances come back atom for atom."""
    rng = np.random.default_rng(33)
    for _ in range(25):
        inst = sample_instance(rng)
        report = solve_full(inst.moments)
        assert report.status == STATUS_SUCCESS
        truth = atoms_by_point(inst.measure)
        found = atoms_by_point(report.measure)
        assert len(found) == len(truth)
        for point, weight in found.items():
            nearest = min(
                truth, key=lambda t: max(abs(x - y) for x, y in zip(t, point))
            )
            assert max(abs(x - y) for x, y in zip(nearest, point)) < 1e-7
            assert abs(truth[nearest] - weight) < 1e-7
        assert report.moment_residual < 1e-8


def test_solve_constrained_halfplane():
    """x_1 >= 0 holds for the two-atom measure and the counts match."""
    constraint = MultivariatePoly.variable(2, 0)
    report = solve_constrained(PAIR_SEQ, SemialgebraicSet((constraint,)))
    assert report.status == STATUS_SUCCESS
    record = report.constraint_records[0]
    assert record.is_psd
    assert not record.violated
    assert record.rank == 1
    assert record.atoms_in_zero_set == 1
    assert record.cardinality_ok
    assert record.min_over_atoms == pytest.approx(0.0, abs=1e-9)
    assert report.psd_records[-1].rank == 2


def test_solve_constrained_violation():
    """x_1 - 2 >= 0 fails on the unit mass at (1, 1)."""
    constraint = MultivariatePoly.variable(2, 0) - MultivariatePoly.constant(2, 2.0)
    report = solve_constrained(SPIKE_SEQ, SemialgebraicSet((constraint,)))
    assert report.status == STATUS_SUPPORT_VIOLATION
    record = report.constraint_records[0]
    assert record.violated
    assert not record.is_psd
    assert record.min_over_atoms == pytest.approx(-1.0, abs=1e-9)
    assert "constraint 0" in report.detail
    assert report.measure is not None


def test_an_overflowing_extension_is_not_recursive():
    """One atom at 1e100 overflows the extension to degree 4: a report, with no warning."""
    seq = evaluate_moments(AtomicMeasure(1, ((1e100,),), (1.0,)), 2)
    x = MultivariatePoly.variable(1, 0)
    report = solve_constrained(seq, SemialgebraicSet((MultivariatePoly.constant(1, 4.0) - x * x,)))
    assert report.status == STATUS_NOT_RECURSIVE
    assert report.detail == "extended entry (4,) is not finite: inf"


def test_an_overflowing_shift_is_not_recursive():
    """Moments times 2^1021 with q = 4 - x1^2: 4 * beta_0 overflows q * beta. The solve is a
    NotRecursive report naming the constraint and the first non-finite shifted entry, with no
    warning; shift_sequence itself raises NonFiniteShiftError."""
    seq = sample_instance(np.random.default_rng(11)).moments
    assert (seq.dim, seq.max_degree) == (1, 2)
    big = TruncatedSequence(seq.dim, seq.max_degree, seq.array * 2.0**1021)
    x = MultivariatePoly.variable(1, 0)
    box = MultivariatePoly.constant(1, 4.0) - x * x
    constraints = SemialgebraicSet((x + MultivariatePoly.constant(1, 1.0), box))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve_constrained(big, constraints)
        with pytest.raises(NonFiniteShiftError) as raised:
            moments.shift_sequence(big, box)
    assert report.status == STATUS_NOT_RECURSIVE
    assert report.detail == "constraint 1: shifted entry (0,) is not finite: inf"
    assert report.constraint_records == ()
    assert (raised.value.index, raised.value.value) == ((0,), math.inf)


def _eigvalsh_path_inputs():
    """(moments, constraints) of sampled corpus and constrained draws, product-grid rungs
    and a signed input: every solve of them reaches the PSD records."""
    rng = np.random.default_rng(2026)
    inputs = []
    for _ in range(30):
        instance = sample_instance(rng)
        dim, first = instance.moments.dim, instance.measure.points[0][0]
        x1 = MultivariatePoly.variable(dim, 0)
        cut = x1 - MultivariatePoly.constant(dim, first)
        inputs.append((instance.moments, (cut, MultivariatePoly.constant(dim, 4.0) - x1 * x1)))
    for dim, nodes in ((1, 9), (2, 4), (3, 3)):
        axis = tuple(float(x) for x in np.linspace(-1.0, 1.0, nodes))
        points = tuple(itertools.product(*([axis] * dim)))
        weights = tuple(1.0 + 0.01 * i for i in range(len(points)))
        grid = evaluate_moments(AtomicMeasure(dim, points, weights), 2 * dim * (nodes - 1) + 2)
        inputs.append((grid, ()))
    # the pair with its atom at (1, 1) of weight -1
    inputs.append((TruncatedSequence(2, 4, PAIR_SEQ.array - 2.0 * SPIKE_SEQ.array), ()))
    return inputs


def test_eigvalsh_path_matches_psd_check_and_numeric_rank():
    """The solver's eigvalsh-path records of M(tau+1), of M(tau) cut from its entries and of
    each M_q with its rank floor equal psd_check and numeric_rank of the built matrices, bit
    for bit, and so do the spectra."""
    tol = Tolerances()
    signs = set()
    for seq, polys in _eigvalsh_path_inputs():
        system = solver.detect_characteristic_system(seq, tol.residual)
        extra = max([q.degree for q in polys], default=0)
        ext = solver.extend_sequence(seq, system, max(seq.max_degree, 2 * system.tau + 2 + extra))
        high, spectrum, full = solver._psd_record(ext, system.tau + 1, tol, ())
        low, _, _ = solver._psd_record(ext, system.tau, tol, (), full)
        checked = [(low, ext, None), (high, ext, None)]
        noise = float(np.abs(spectrum).max(initial=0.0))
        for q in polys:
            scale = noise * (1.0 + q.max_coefficient)
            order = moments.max_localizing_order(ext, q)
            shifted = moments.shift_sequence(ext, q)
            record, _, _ = solver._psd_record(shifted, order, tol, (), scale=scale)
            checked.append((record, shifted, scale))
        for record, source, scale in checked:
            matrix = moments.build_moment_matrix(source, record.order)
            check = moments.psd_check(matrix, tol.psd)
            rank = moments.numeric_rank(matrix, tol.rank, scale=scale)
            assert record.min_eigenvalue.hex() == check.min_eigenvalue.hex()
            assert (record.is_psd, record.rank, record.certified) == (check.is_psd, rank, False)
            signs.add(record.is_psd)
        reference = moments.build_moment_matrix(ext, system.tau + 1).eigenvalues
        assert np.array_equal(spectrum, reference)
    assert signs == {True, False}


def test_moments_near_the_float_range_solve_with_no_warning():
    """Moments times 2^900 overflow the misfit bound to inf: eigvalsh decides, silently."""
    seq = sample_instance(np.random.default_rng(0)).moments
    assert (seq.dim, seq.max_degree) == (3, 16)
    big = TruncatedSequence(seq.dim, seq.max_degree, seq.array * 2.0**900)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve_full(big)
    assert report.status == STATUS_SUCCESS
    assert len(report.measure.points) == 7


MIRRORS = {
    # (term map, point map) of x -> (x_d, ..., x_1) and of x_1 -> -x_1; each is
    # its own inverse, so the point map also takes a transform's atoms back
    "reverse": (lambda idx, c: (idx[::-1], c), lambda point: point[::-1]),
    "reflect": (
        lambda idx, c: (idx, -c if idx[0] % 2 else c),
        lambda point: (-point[0],) + point[1:],
    ),
}


def test_reversing_and_reflecting_the_variables_move_no_verdict():
    """Reversed variables and x_1 -> -x_1, on the data and the constraints, give the same
    status, atom count, and atoms and weights mapped back within 1e-9 relative."""
    rng = np.random.default_rng(39)
    inputs = [(sample_instance(rng, dim).moments, None) for dim in (1, 2, 3, 3)]
    for dim, nodes in ((1, 6), (2, 4), (3, 3)):
        axis = np.linspace(-1.0, 1.0, nodes).tolist()
        points = tuple(itertools.product(*[axis] * dim))
        weights = tuple(1.0 + 0.1 * k for k in range(len(points)))
        grid = AtomicMeasure(dim=dim, points=points, weights=weights)
        inputs.append((evaluate_moments(grid, 2 * dim * (nodes - 1) + 2), None))
    draw = sample_instance(rng, 2)
    x1 = MultivariatePoly.variable(2, 0)
    cut = x1 - MultivariatePoly.constant(2, draw.measure.points[0][0])
    inputs.append((draw.moments, (cut, MultivariatePoly.constant(2, 4.0) - x1 * x1)))

    def solve(seq, constraints):
        if constraints is None:
            return solve_full(seq)
        return solve_constrained(seq, SemialgebraicSet(constraints))

    for seq, constraints in inputs:
        base = solve(seq, constraints)
        for term, point in MIRRORS.values():
            mirrored = TruncatedSequence(
                seq.dim, seq.max_degree, dict(term(*t) for t in seq.values.items())
            )
            polys = None if constraints is None else tuple(
                MultivariatePoly(seq.dim, dict(term(*t) for t in q.terms.items()))
                for q in constraints
            )
            moved = solve(mirrored, polys)
            assert moved.status == base.status
            if base.measure is None:
                assert moved.measure is None
                continue
            assert len(moved.measure.points) == len(base.measure.points)
            found = {point(p): w for p, w in zip(moved.measure.points, moved.measure.weights)}
            for p, w in zip(base.measure.points, base.measure.weights):
                near = min(found, key=lambda q: max(abs(a - b) for a, b in zip(p, q)))
                assert near == pytest.approx(p, rel=1e-9, abs=1e-9)
                assert found[near] == pytest.approx(w, rel=1e-9)


def test_solve_constrained_empty_set_matches_full():
    """No constraints reduces to the unconstrained pipeline."""
    plain = solve_full(PAIR_SEQ)
    boxed = solve_constrained(PAIR_SEQ, SemialgebraicSet(()))
    assert boxed.status == plain.status == STATUS_SUCCESS
    assert boxed.constraint_records == ()
    assert atoms_by_point(boxed.measure) == atoms_by_point(plain.measure)


def test_solve_constrained_zero_polynomial_rejected():
    """A zero or wrong-dimension constraint is refused, whatever the data."""
    with pytest.raises(ValueError):
        solve_constrained(PAIR_SEQ, SemialgebraicSet((MultivariatePoly.zero(2),)))
    # refused before the solve, so failing data cannot mask a bad constraint
    for q in (MultivariatePoly.zero(1), MultivariatePoly.variable(3, 0)):
        with pytest.raises(ValueError):
            solve_constrained(SIGNED_PAIR, SemialgebraicSet((q,)))


def test_solve_constrained_cardinality_property():
    """rank M - rank M_q counts zero-set atoms on sampled instances."""
    rng = np.random.default_rng(34)
    for _ in range(20):
        inst = sample_instance(rng)
        d = inst.measure.dim
        # place the constraint's zero line on the first atom's first coordinate
        cut = inst.measure.points[0][0]
        q = MultivariatePoly.variable(d, 0) - MultivariatePoly.constant(d, cut)
        expected = sum(1 for p in inst.measure.points if abs(p[0] - cut) < 1e-9)
        violated = any(p[0] < cut - 1e-9 for p in inst.measure.points)
        report = solve_constrained(inst.moments, SemialgebraicSet((q,)))
        record = report.constraint_records[0]
        assert record.atoms_in_zero_set == expected
        assert record.cardinality_ok
        assert record.violated == violated


def test_flat_extension_examples():
    """Frozen ranks for one, two, and three atoms."""
    one = flat_extension_check(ONES_D2, None, 1)
    assert (one.flat, one.rank_n, one.rank_next) == (True, 1, 1)
    two = flat_extension_check(PAIR_SEQ, None, 1)
    assert (two.flat, two.rank_n, two.rank_next) == (True, 2, 2)
    corners = AtomicMeasure(
        2, ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), (1.0, 1.0, 1.0)
    )
    seq = evaluate_moments(corners, 2)
    p = UnivariatePoly((0.0, -1.0, 1.0))
    system = CharacteristicSystem.from_polys([p, p])
    three = flat_extension_check(seq, system, 1)
    assert (three.flat, three.rank_n, three.rank_next) == (True, 3, 3)


def test_flat_extension_needs_a_recurrence():
    """Degree-2 data for three atoms supports no detected recurrence."""
    corners = AtomicMeasure(
        2, ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), (1.0, 1.0, 1.0)
    )
    seq = evaluate_moments(corners, 2)
    with pytest.raises(NoRecurrenceError):
        flat_extension_check(seq, None, 1)


def test_flat_extension_on_sampled_instances():
    """Rank stabilizes at the atom count from order tau onward."""
    rng = np.random.default_rng(35)
    for _ in range(10):
        inst = sample_instance(rng)
        result = flat_extension_check(inst.moments, None, inst.tau)
        assert result.flat
        assert result.rank_n == inst.measure.atom_count


def test_count_atoms_in_zero_set_examples():
    """Zero sets of coordinate, zero, and affine polynomials."""
    assert count_atoms_in_zero_set(PAIR, MultivariatePoly.variable(2, 0)) == 1
    assert count_atoms_in_zero_set(PAIR, MultivariatePoly.zero(2)) == 2
    plane = (
        MultivariatePoly.variable(2, 0)
        + MultivariatePoly.variable(2, 1)
        - MultivariatePoly.constant(2, 2.0)
    )
    assert count_atoms_in_zero_set(SPIKE, plane) == 1
    with pytest.raises(ValueError):
        count_atoms_in_zero_set(SPIKE, MultivariatePoly.variable(3, 0))


def test_verify_measure_examples():
    """Exact data scores ~0; a frozen mismatch scores exactly 1/3."""
    assert verify_measure(PAIR, PAIR_SEQ) < 1e-12
    doubled = TruncatedSequence(2, 2, {idx: 2.0 for idx in iter_basis(2, 2)})
    assert verify_measure(SPIKE, doubled) == pytest.approx(1.0 / 3.0, abs=1e-12)
    empty = AtomicMeasure(2, (), ())
    zero = TruncatedSequence(2, 2, {idx: 0.0 for idx in iter_basis(2, 2)})
    assert verify_measure(empty, zero) == 0.0
    with pytest.raises(ValueError):
        verify_measure(SPIKE, TruncatedSequence(1, 1, {(0,): 1.0, (1,): 1.0}))


def test_tolerances_must_be_positive():
    """Non-positive tolerances are rejected at construction."""
    with pytest.raises(ValueError):
        Tolerances(rank=0.0)
    with pytest.raises(ValueError):
        Tolerances(residual=-1e-6)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["rank", "psd", "imag", "weight", "residual"])
def test_tolerances_must_be_finite(name, value):
    """NaN passes every `<= 0` test and inf disables a gate: both are rejected."""
    with pytest.raises(ValueError, match=f"tolerance '{name}' must be finite"):
        Tolerances(**{name: value})


def test_report_serialization_pairs_values_with_tolerances():
    """Every numeric block in the JSON names the tolerance used against it."""
    constraint = MultivariatePoly.variable(2, 0)
    report = solve_constrained(PAIR_SEQ, SemialgebraicSet((constraint,)))
    data = report.to_dict()
    assert data["status"] == STATUS_SUCCESS
    assert data["tau"] == 2
    assert data["moment_residual"]["tolerance"] == report.tolerances.residual
    assert data["expansion_residual"]["value"] == report.expansion_residual
    for entry in data["psd"]:
        assert entry["psd_tolerance"] == report.tolerances.psd
        assert entry["rank_tolerance"] == report.tolerances.rank
    entry = data["constraints"][0]
    assert entry["support_tolerance"] == report.tolerances.residual
    assert entry["cardinality_ok"] is True
    assert entry["polynomial"] == constraint.to_dict()
    assert data["measure"]["dim"] == 2
    assert len(data["measure"]["atoms"]) == 2
    assert data["system"]["tau"] == 2
    assert data["tolerances"] == report.tolerances.to_dict()


def test_custom_tolerances_flow_through():
    """A loose residual tolerance lets lightly perturbed data succeed."""
    rng = np.random.default_rng(36)
    values = {
        idx: v + float(rng.normal()) * 1e-9 for idx, v in PAIR_SEQ.values.items()
    }
    seq = TruncatedSequence(2, 4, values)
    strict = solve_full(seq, Tolerances(residual=1e-12))
    loose = solve_full(seq, Tolerances(residual=1e-4))
    assert strict.status == STATUS_NOT_RECURSIVE
    assert loose.status == STATUS_SUCCESS


def _grid_sequence(dim, nodes, degree):
    axis = np.linspace(-1.0, 1.0, nodes)
    points = tuple(itertools.product(*([tuple(axis)] * dim)))
    weights = tuple(1.0 + 0.01 * i for i in range(len(points)))
    return evaluate_moments(AtomicMeasure(dim, points, weights), degree)


def test_cardinality_law_is_read_off_the_factor(monkeypatch):
    """rank M(13) - rank M_q(13) = atoms in Z(q) on the 3-D 5^3 grid, from brackets alone."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return eigvalsh(a, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("a moment or localizing matrix was built")

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    monkeypatch.setattr(solver, "build_moment_matrix", refused)
    x1 = MultivariatePoly.variable(3, 0)
    one = MultivariatePoly.constant(3, 1.0)
    constraints = SemialgebraicSet((one - x1 * x1, x1 + one))
    report = solve_constrained(_grid_sequence(3, 5, 26), constraints)
    assert report.status == STATUS_SUCCESS and report.tau == 12
    assert report.psd_records[1].rank == 124
    for record, in_zero, rank in zip(report.constraint_records, (50, 25), (74, 99)):
        assert record.order == 13 and record.certified and record.is_psd
        assert record.atoms_in_zero_set == in_zero and record.rank == rank
        assert record.cardinality_ok
    # M(13) and both M_q(13) have 560 rows; only the 125 x 125 Gram matrices reach eigvalsh
    assert set(sizes) == {125}


def test_solve_full_peaks_below_one_moment_matrix():
    """A warm 3-D 6^3 solve (N(16) = 969) allocates less than one 969 x 969 float array."""
    seq = _grid_sequence(3, 6, 32)
    solve_full(seq)  # plans and tables are kept from here on
    tracemalloc.start()
    try:
        report = solve_full(seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.status == STATUS_SUCCESS and report.tau == 15
    assert all(record.certified for record in report.psd_records)
    assert peak < 969 * 969 * 8


def test_a_repeated_solve_builds_no_plan(monkeypatch):
    """Solved again, an input reads every pair-rank plan from the store.

    The plans of its first solve are all kept, the per-order recurrence fits
    of the 4-D 4^4 and 5-D 3^5 grids too; their large M(n) and M_q checks are
    certified from the recovered measure and build no plan.
    """
    rng = np.random.default_rng(17)
    draw = sample_instance(rng, dim=2)
    x1 = MultivariatePoly.variable(2, 0)
    cut = x1 - MultivariatePoly.constant(2, draw.measure.points[0][0])
    box = MultivariatePoly.constant(2, 4.0) - x1 * x1
    inputs = [(sample_instance(rng, dim=dim).moments, None) for dim in (1, 2, 3)]
    inputs += [(_grid_sequence(*shape), None) for shape in ((3, 5, 26), (4, 4, 26), (5, 3, 22))]
    inputs.append((draw.moments, SemialgebraicSet((cut, box))))
    calls = []
    ranks = indexing.degree_lex_pair_ranks

    def recording(left, right):
        calls.append(len(left) * len(right))
        return ranks(left, right)

    monkeypatch.setattr(indexing, "degree_lex_pair_ranks", recording)
    for seq, constraints in inputs:
        monkeypatch.setattr(indexing, "_plans", OrderedDict())
        monkeypatch.setattr(indexing, "_plans_entries", 0)
        for solve in range(2):
            calls.clear()
            if constraints is None:
                solve_full(seq)
            else:
                solve_constrained(seq, constraints)
            if solve == 0:
                assert calls
                kept = set(indexing._plans)
        assert calls == []
        assert set(indexing._plans) == kept


def test_a_solve_evaluates_the_measures_monomials_once(monkeypatch):
    """One measure pass per solve: head rows for the moments, rows only as far as the Gram sums.

    On the 3-D 5^3 grid, solve_full evaluates the N_2(26) = 378 two-variable
    heads of its moments, not their N_3(26) = 3,654 rows, and the N_3(13) =
    560 rows of M(13), whose Gram sum M(12)'s continues; solve_constrained
    evaluates the heads to its extension's degree 28, the same rows (every
    localizing matrix has order 13) and only each constraint's terms besides.
    A constraint x1 that cuts through the atoms adds the 560 rows of the
    factor its signed bracket takes the QR of, and nothing else.
    """
    seq = _grid_sequence(3, 5, 26)
    rows = []
    original = moments.monomials

    def recording(tables, exponents):
        rows.append(len(exponents))
        return original(tables, exponents)

    monkeypatch.setattr(moments, "monomials", recording)
    report = solve_full(seq)
    assert report.status == STATUS_SUCCESS and report.tau == 12
    assert all(record.certified for record in report.psd_records)
    assert sum(rows) == basis_size(2, 26) + basis_size(3, 13) == 378 + 560
    rows.clear()
    x1 = MultivariatePoly.variable(3, 0)
    one = MultivariatePoly.constant(3, 1.0)
    report = solve_constrained(seq, SemialgebraicSet((one - x1 * x1, x1 + one)))
    assert report.status == STATUS_SUCCESS
    assert all(record.certified for record in report.constraint_records)
    assert sum(rows) == basis_size(2, 28) + basis_size(3, 13) + 2 + 2
    rows.clear()
    report = solve_constrained(seq, SemialgebraicSet((one - x1 * x1, x1 + one, x1)))
    assert report.status == STATUS_SUPPORT_VIOLATION
    assert all(record.certified for record in report.constraint_records)
    assert [record.is_psd for record in report.constraint_records] == [True, True, False]
    assert sum(rows) == basis_size(2, 28) + basis_size(3, 13) + 2 + 2 + 1 + basis_size(3, 13)
