"""Minimal recurrence detection, sequence extension, annihilation checks."""

import numpy as np
import pytest

from momentrec.binet import AtomicMeasure, evaluate_moments
from momentrec.errors import (
    InconsistentRecurrenceError,
    InsufficientInitialDataError,
    NoRecurrenceError,
)
from momentrec.indexing import iter_basis
from momentrec.moments import TruncatedSequence, build_moment_matrix
from momentrec.polynomials import UnivariatePoly
from momentrec.recurrence import (
    CharacteristicSystem,
    detect_characteristic_system,
    detect_minimal_recurrence,
    extend_sequence,
    verify_annihilation,
)
from momentrec.sampling import sample_instance

from euclid import univariate_lcm

ONES_D2 = TruncatedSequence(2, 4, {idx: 1.0 for idx in iter_basis(2, 4)})
PAIR = AtomicMeasure(dim=2, points=((0.0, 0.0), (1.0, 1.0)), weights=(1.0, 1.0))
PAIR_SEQ = evaluate_moments(PAIR, 4)


def univariate_sequence(values):
    """Dense one-variable sequence from a plain list."""
    return TruncatedSequence(1, len(values) - 1, {(k,): float(values[k]) for k in range(len(values))})


def test_constant_sequence_minimal_recurrence():
    """All-ones data satisfies s_{v+1} = s_v, so p = x - 1 at order 1."""
    poly, residual = detect_minimal_recurrence(ONES_D2, 0)
    assert np.allclose(poly.coeffs, (-1.0, 1.0), atol=1e-12)
    assert residual < 1e-12


def test_two_atom_minimal_recurrence():
    """Coordinates {0, 1} per axis give p = x^2 - x on both axes."""
    for axis in range(2):
        poly, residual = detect_minimal_recurrence(PAIR_SEQ, axis)
        assert np.allclose(poly.coeffs, (0.0, -1.0, 1.0), atol=1e-10)
        assert residual < 1e-10


def test_mersenne_style_recurrence():
    """s_v = 2^v - 1 = (0, 1, 3, 7, 15) satisfies s_{v+2} = 3 s_{v+1} - 2 s_v."""
    seq = univariate_sequence([0, 1, 3, 7, 15])
    poly, _ = detect_minimal_recurrence(seq, 0)
    assert np.allclose(poly.coeffs, (2.0, -3.0, 1.0), atol=1e-10)
    vals = [0, 1, 3, 7, 15]
    for v in range(3):
        assert 3 * vals[v + 1] - 2 * vals[v] == vals[v + 2]


def test_characteristic_system_tau():
    """tau sums (deg p_l - 1) over the variables."""
    assert detect_characteristic_system(ONES_D2).tau == 0
    assert detect_characteristic_system(PAIR_SEQ).tau == 2
    mixed = evaluate_moments(
        AtomicMeasure(2, ((0.0, 2.0), (1.0, 2.0)), (1.0, 1.0)), 4
    )
    system = detect_characteristic_system(mixed)
    assert system.tau == 1
    assert [p.degree for p in system.polys] == [2, 1]


def test_per_slice_lcm_oracle():
    """The joint fit matches the lcm of per-slice minimal recurrences.

    For the two-atom measure, freezing x_2 = 0 powers gives slices along
    x_1: the m = 0 slice (2, 1, 1, 1, 1) needs x^2 - x while the m = 1
    slice (1, 1, 1, 1) needs only x - 1. Their lcm is x^2 - x, which is
    exactly what the joint detection returns.
    """
    slice0 = univariate_sequence([PAIR_SEQ.values[(v, 0)] for v in range(5)])
    slice1 = univariate_sequence([PAIR_SEQ.values[(v, 1)] for v in range(4)])
    p0, _ = detect_minimal_recurrence(slice0, 0)
    p1, _ = detect_minimal_recurrence(slice1, 0)
    assert np.allclose(p0.coeffs, (0.0, -1.0, 1.0), atol=1e-10)
    assert np.allclose(p1.coeffs, (-1.0, 1.0), atol=1e-10)
    joined = univariate_lcm(p0, p1)
    joint, _ = detect_minimal_recurrence(PAIR_SEQ, 0)
    assert np.allclose(joined.coeffs, joint.coeffs, atol=1e-10)


def test_detected_order_is_minimal():
    """No recurrence of one lower order fits the sampled data."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        inst = sample_instance(rng)
        seq = inst.moments
        for axis in range(seq.dim):
            poly, _ = detect_minimal_recurrence(seq, axis)
            order = poly.degree
            if order == 1:
                continue
            # Re-fit at order - 1 with the same joint least squares.
            step = order - 1
            rows = list(iter_basis(seq.dim, seq.max_degree - step))
            a_mat = np.empty((len(rows), step))
            b_vec = np.empty(len(rows))
            for r, idx in enumerate(rows):
                for k in range(1, step + 1):
                    shifted = tuple(
                        idx[j] + (step - k if j == axis else 0)
                        for j in range(seq.dim)
                    )
                    a_mat[r, k - 1] = seq.values[shifted]
                top = tuple(
                    idx[j] + (step if j == axis else 0) for j in range(seq.dim)
                )
                b_vec[r] = seq.values[top]
            w, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
            resid = np.linalg.norm(a_mat @ w - b_vec) / (1.0 + np.linalg.norm(b_vec))
            assert resid >= 1e-6


def test_detected_poly_divides_coordinate_product():
    """The detected p_l divides prod (x - c) over that axis's coordinates."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        inst = sample_instance(rng)
        for axis in range(inst.measure.dim):
            coords = sorted({p[axis] for p in inst.measure.points})
            full = UnivariatePoly.from_roots(coords)
            detected, _ = detect_minimal_recurrence(inst.moments, axis)
            # numpy's polydiv wants highest-degree-first coefficients
            _, rem = np.polydiv(full.coeffs[::-1], detected.coeffs[::-1])
            assert np.max(np.abs(rem)) < 1e-7


def test_extend_constant_sequence():
    """All-ones data extends to all ones."""
    system = detect_characteristic_system(ONES_D2)
    ext = extend_sequence(ONES_D2, system, 6)
    assert ext.max_degree == 6
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in ext.values.values())


def test_extend_fibonacci():
    """x^2 - x - 1 on (0, 1) reproduces the Fibonacci numbers."""
    seq = univariate_sequence([0, 1, 1, 2, 3, 5])
    system = CharacteristicSystem.from_polys([UnivariatePoly((-1.0, -1.0, 1.0))])
    ext = extend_sequence(seq, system, 10)
    fib = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    for k, expected in enumerate(fib):
        assert ext.values[(k,)] == pytest.approx(expected, abs=1e-9)


def test_extend_two_atom_measure():
    """Extension reproduces the true high-degree moments of the atoms."""
    system = detect_characteristic_system(PAIR_SEQ)
    ext = extend_sequence(PAIR_SEQ, system, 8)
    truth = evaluate_moments(PAIR, 8)
    for idx, value in truth.values.items():
        assert ext.values[idx] == pytest.approx(value, abs=1e-9)
    assert ext.values[(4, 4)] == pytest.approx(1.0, abs=1e-12)


def test_extend_noop_at_or_below_degree():
    """Targets at or below the present degree return the input."""
    system = detect_characteristic_system(PAIR_SEQ)
    assert extend_sequence(PAIR_SEQ, system, 4) is PAIR_SEQ
    assert extend_sequence(PAIR_SEQ, system, 2) is PAIR_SEQ


def test_extension_redetection_idempotent():
    """Re-detection on extended data returns the same system."""
    rng = np.random.default_rng(13)
    for _ in range(10):
        inst = sample_instance(rng)
        system = detect_characteristic_system(inst.moments)
        ext = extend_sequence(inst.moments, system, inst.moments.max_degree + 4)
        again = detect_characteristic_system(ext)
        for p, q in zip(system.polys, again.polys):
            assert p.degree == q.degree
            assert np.allclose(p.coeffs, q.coeffs, atol=1e-8)


def test_detection_degree_threshold():
    """Detection succeeds once max_degree reaches twice the coordinate count."""
    measure = AtomicMeasure(
        2, ((0.0, 0.0), (1.0, 0.5), (2.0, 1.0)), (1.0, 2.0, 3.0)
    )
    enough = evaluate_moments(measure, 6)
    system = detect_characteristic_system(enough)
    assert [p.degree for p in system.polys] == [3, 3]
    short = evaluate_moments(measure, 4)
    with pytest.raises(NoRecurrenceError):
        detect_characteristic_system(short)


def test_no_recurrence_on_noise():
    """Random noise admits no data-supported recurrence."""
    rng = np.random.default_rng(14)
    values = {idx: float(rng.normal()) for idx in iter_basis(2, 6)}
    noisy = TruncatedSequence(2, 6, values)
    with pytest.raises(NoRecurrenceError) as info:
        detect_minimal_recurrence(noisy, 0)
    assert info.value.best_residual > 1e-6


def test_inconsistent_recurrence_cross_check():
    """Conflicting producers along different axes raise with the index."""
    values = {(0, 0): 2.0, (1, 0): 1.0, (0, 1): 1.0, (2, 0): 7.0, (1, 1): 1.0, (0, 2): 1.0}
    seq = TruncatedSequence(2, 2, values)
    p = UnivariatePoly((-1.0, 1.0))
    system = CharacteristicSystem.from_polys([p, p])
    with pytest.raises(InconsistentRecurrenceError) as info:
        extend_sequence(seq, system, 3)
    assert info.value.index == (2, 1)


def test_insufficient_initial_data():
    """Recurrence windows longer than the data raise with the index."""
    cube = UnivariatePoly((0.0, 0.0, 0.0, 1.0))
    system = CharacteristicSystem.from_polys([cube, cube])
    seq = PAIR_SEQ.truncate(2)
    with pytest.raises(InsufficientInitialDataError) as info:
        extend_sequence(seq, system, 3)
    assert info.value.index == (2, 1)


def test_annihilation_examples():
    """Characteristic vectors lie in the kernel; foreign vectors do not."""
    m1 = build_moment_matrix(ONES_D2, 1)
    ones_sys = CharacteristicSystem.from_polys(
        [UnivariatePoly((-1.0, 1.0)), UnivariatePoly((-1.0, 1.0))]
    )
    assert verify_annihilation(m1, ones_sys)
    pair_sys = detect_characteristic_system(PAIR_SEQ)
    m2 = build_moment_matrix(PAIR_SEQ, 2)
    assert verify_annihilation(m2, pair_sys)
    wrong = CharacteristicSystem.from_polys(
        [UnivariatePoly((-2.0, 1.0)), UnivariatePoly((-1.0, 1.0))]
    )
    assert not verify_annihilation(m1, wrong)


def test_annihilation_order_guard():
    """Polynomials deeper than the matrix order are rejected."""
    m1 = build_moment_matrix(PAIR_SEQ, 1)
    pair_sys = detect_characteristic_system(PAIR_SEQ)
    with pytest.raises(ValueError):
        verify_annihilation(m1, pair_sys)


def test_system_serialization():
    """System JSON round trips polys, tau, and residual."""
    system = detect_characteristic_system(PAIR_SEQ)
    again = CharacteristicSystem.from_dict(system.to_dict())
    assert again.tau == system.tau
    assert again.residual == system.residual
    for p, q in zip(system.polys, again.polys):
        assert p.coeffs == q.coeffs


def test_system_validation():
    """Empty systems and non-monic polynomials are rejected."""
    with pytest.raises(ValueError):
        CharacteristicSystem.from_polys([])
    with pytest.raises(ValueError):
        CharacteristicSystem.from_polys([UnivariatePoly((1.0, 2.0))])
