"""End-to-end solver pipelines, reports, and certificate bookkeeping."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from momentrec import solver
from momentrec.binet import AtomicMeasure, evaluate_moments
from momentrec.errors import NoRecurrenceError
from momentrec.indexing import iter_basis
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
        raise AssertionError("a localizing matrix was built")

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    monkeypatch.setattr(solver, "build_localizing_matrix", refused)
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
