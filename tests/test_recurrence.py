"""Minimal recurrence detection, sequence extension, annihilation checks."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from momentrec.binet import AtomicMeasure, evaluate_moments
from momentrec.errors import (
    InconsistentRecurrenceError,
    InsufficientInitialDataError,
    NoRecurrenceError,
)
from momentrec.indexing import basis_size, enumerate_basis, iter_basis
from momentrec.moments import TruncatedSequence, build_moment_matrix
from momentrec import _lapack, recurrence
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


def _reference_fill(seq, system, target_degree):
    """extend_sequence's values, one entry at a time in degree-lex order.

    Each entry is the lowest reaching variable's sum of a_k beta_{i - k e_l},
    k = 1, 2, ..., added to 0 in that order.
    """
    beta = dict(seq.values)
    labels = enumerate_basis(seq.dim, target_degree)
    for idx in labels[basis_size(seq.dim, seq.max_degree) :]:
        axis = next(l for l, p in enumerate(system.polys) if idx[l] >= p.degree)
        weights = [-c for c in system.polys[axis].coeffs[-2::-1]]
        step = [0] * seq.dim
        terms = []
        for k, w in enumerate(weights, 1):
            step[axis] = k
            terms.append(w * beta[tuple(a - b for a, b in zip(idx, step))])
        beta[idx] = sum(terms)
    return np.array([beta[idx] for idx in labels])


def test_extension_matches_an_entry_by_entry_fill_bit_for_bit():
    """Multi-block extensions in 1 to 4 variables equal the reference fill in every bit.

    The data are power sums over roots that include 0, so every
    characteristic polynomial has a zero constant term (a weight of -0.0);
    each exact zero in the data is stored as -0.0, and the other roots are
    not binary fractions, up to three of them. So the signs of zeros, a sum
    of terms not started from 0 and one added in another order would all
    show.
    """
    rng = np.random.default_rng(20)
    others = [-1.5, -0.7, 0.3, 1.1, 2.5]
    for case in range(24):
        dim = case % 4 + 1
        roots = [
            [0.0] + rng.choice(others, size=rng.integers(0, 4 if dim < 3 else 3), replace=False).tolist()
            for _ in range(dim)
        ]
        weights = {
            point: float(rng.uniform(0.5, 2.0))
            for point in itertools.product(*(range(len(r)) for r in roots))
        }
        system = CharacteristicSystem.from_polys([UnivariatePoly.from_roots(r) for r in roots])
        degree = system.tau + int(rng.integers(0, 3))

        def moment(idx):
            return sum(
                c * math.prod(r[s] ** e for r, s, e in zip(roots, point, idx))
                for point, c in weights.items()
            )

        seq = TruncatedSequence(
            dim, degree, [moment(idx) or -0.0 for idx in iter_basis(dim, degree)]
        )
        target = degree + 4
        ext = extend_sequence(seq, system, target)
        assert ext.array.tobytes() == _reference_fill(seq, system, target).tobytes(), case
        # and the fill continues the power sums
        truth = [moment(idx) for idx in iter_basis(dim, target)]
        assert ext.array == pytest.approx(truth, rel=1e-9, abs=1e-9)


def test_an_extension_checks_its_values_once(monkeypatch):
    """The extended sequence holds the filled array itself, read-only: its values were
    checked by the extension, so the constructor's finiteness pass does not run again."""
    system = detect_characteristic_system(PAIR_SEQ)
    calls = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda *args: calls.append(args) or isfinite(*args))
    ext = extend_sequence(PAIR_SEQ, system, 8)
    assert calls == [] and not ext.array.flags.writeable
    assert ext.array.tobytes() == TruncatedSequence(2, 8, ext.array).array.tobytes()
    assert len(calls) == 1


def test_inconsistency_is_reported_before_a_later_overflow():
    """An inconsistent first new block is reported even where a later block overflows.

    Along both axes beta_{i+e} = 1e100 beta_i: degree 3 disagrees at (2, 1)
    (1e100 along x1, 7e100 along x2) and degree 6 overflows.
    """
    values = {(0, 0): 2.0, (1, 0): 1.0, (0, 1): 1.0, (2, 0): 7.0, (1, 1): 1.0, (0, 2): 1.0}
    seq = TruncatedSequence(2, 2, values)
    p = UnivariatePoly((-1e100, 1.0))
    system = CharacteristicSystem.from_polys([p, p])
    for target in (3, 8):
        with pytest.raises(InconsistentRecurrenceError) as info:
            extend_sequence(seq, system, target)
        assert info.value.index == (2, 1)
        assert (info.value.value_a, info.value.value_b) == (1e100 * 1.0, 1e100 * 7.0)


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


def test_a_fit_whose_sums_of_squares_overflow_is_scored():
    """b = (1e150, 1e155) overflows b . b; the order-1 fit misses by 1e-5 of ||b||, above tol."""
    with pytest.raises(NoRecurrenceError) as info:
        detect_minimal_recurrence(TruncatedSequence(1, 2, [1.0, 1e150, 1e155]), 0)
    assert info.value.best_residual == pytest.approx(1.0e-5, rel=1e-6)


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


def _grid(dim, nodes, degree=None):
    """Moments of the equally spaced product grid on [-1, 1] with weights 1 + 0.01 i."""
    axis = np.linspace(-1.0, 1.0, nodes)
    points = tuple(itertools.product(*([tuple(axis.tolist())] * dim)))
    weights = tuple(1.0 + 0.01 * i for i in range(len(points)))
    tau = dim * (nodes - 1)
    return evaluate_moments(AtomicMeasure(dim, points, weights), degree or 2 * (tau + 1))


def _screen_inputs():
    """Grid ladder, long 1-D grids, 5-D 3^5, 2-D 12^2, and sampled draws and grids
    with relative noise 1e-7 or 1e-5."""
    seqs = [_grid(1, m) for m in range(4, 21)]
    seqs += [_grid(2, 10), _grid(2, 12), _grid(3, 5), _grid(3, 6), _grid(4, 3)]
    seqs += [_grid(3, 5, 12), _grid(4, 3, 8), _grid(5, 3)]
    rng = np.random.default_rng(21)
    draws = [sample_instance(rng).moments for _ in range(24)]
    # long scans on which no order fits, so that the certified orders are fitted too
    draws += [_grid(1, 12), _grid(1, 12), _grid(2, 6), _grid(2, 6)]
    for n, seq in enumerate(draws):
        level = (1e-7, 1e-5)[n % 2]
        seqs.append(TruncatedSequence(
            seq.dim, seq.max_degree, seq.array * (1.0 + level * rng.standard_normal(seq.array.size))
        ))
    return seqs


def _steps(seq, axis):
    return tuple(
        (0,) * axis + (j,) + (0,) * (seq.dim - axis - 1) for j in range(seq.max_degree // 2 + 1)
    )


def test_screen_certifies_only_failing_orders():
    """Every order the screen certifies, order 1 included, scores a fit residual >= tol, for
    data scaled by 2^-30, 1 and 2^30 and tol 1e-2, 1e-6 and 1e-12; most failing orders of 2
    or more are certified, and screening one variable alone certifies what the stacked
    screen of all variables certifies for it."""
    certified = failing = 0
    for seq in _screen_inputs():
        for scale in (2.0**-30, 1.0, 2.0**30):
            scaled = TruncatedSequence(seq.dim, seq.max_degree, seq.array * scale)
            residuals = [
                [recurrence._fit_along(scaled, _steps(seq, axis), k)[1]
                 for k in range(1, seq.max_degree // 2 + 1)]
                for axis in range(seq.dim)
            ]
            for tol in (1e-2, 1e-6, 1e-12):
                proven = recurrence._certified_failures(scaled, slice(None), tol)
                assert proven.shape == (seq.dim, seq.max_degree // 2)
                for axis in range(seq.dim):
                    alone = recurrence._certified_failures(scaled, slice(axis, axis + 1), tol)
                    assert np.array_equal(alone, proven[axis : axis + 1])
                    for k in np.flatnonzero(proven[axis]) + 1:
                        residual = residuals[axis][k - 1]
                        assert not residual < tol, (seq.dim, seq.max_degree, axis, k, tol)
                    certified += int(proven[axis, 1:].sum())
                    failing += sum(not r < tol for r in residuals[axis][1:])
    assert certified >= 0.75 * failing


def _plain_scan(seq, axis, tol):
    """The order-by-order scan: every order fitted until one scores below tol."""
    steps, best = _steps(seq, axis), math.inf
    for order in range(1, len(steps)):
        weights, residual = recurrence._fit_along(seq, steps, order)
        if residual < tol:
            return UnivariatePoly(tuple([-float(w) for w in weights[::-1]] + [1.0])), residual
        best = min(best, residual)
    raise NoRecurrenceError(axis, len(steps) - 1, best)


def _outcome(detect, *args):
    try:
        found = detect(*args)
    except NoRecurrenceError as exc:
        return str(exc)
    if isinstance(found, CharacteristicSystem):
        return [p.coeffs for p in found.polys], found.residual
    return found[0].coeffs, found[1]


@pytest.mark.parametrize("gate", sorted({recurrence.SCREEN_MIN_ORDERS, 10, 1}, reverse=True))
def test_screened_scans_match_an_order_by_order_scan(monkeypatch, gate):
    """Both detect functions return the plain scan's polynomials, residuals and
    NoRecurrenceError text, at the default gate, at the earlier gate 10 and with
    every scan screened."""
    monkeypatch.setattr(recurrence, "SCREEN_MIN_ORDERS", gate)
    screened, fallbacks = [0], [0]
    certify = recurrence._certified_failures

    def counting(*args):
        screened[0] += 1
        return certify(*args)

    monkeypatch.setattr(recurrence, "_certified_failures", counting)
    seqs = [seq for seq in _screen_inputs() if seq.dim < 5]
    for seq in seqs:
        for tol in (1e-2, 1e-6, 1e-12):
            plain = []
            for axis in range(seq.dim):
                before = screened[0]
                expected = _outcome(_plain_scan, seq, axis, tol)
                assert _outcome(detect_minimal_recurrence, seq, axis, tol) == expected
                fallbacks[0] += isinstance(expected, str) and screened[0] > before
                plain.append(expected)
            failed = [p for p in plain if isinstance(p, str)]
            if failed:
                expected = failed[0]
            else:
                expected = [c for c, _ in plain], max(r for _, r in plain)
            assert _outcome(detect_characteristic_system, seq, tol) == expected
    assert screened[0] > 0 and fallbacks[0] > 0


def _count_linalg(monkeypatch) -> Counter:
    """Count the package's lstsq, qr and inv calls (looked up in _lapack on every call)."""
    calls = Counter()
    for name in ("lstsq", "qr", "inv"):
        function = getattr(_lapack, name)

        def counted(*args, _name=name, _function=function, **kwargs):
            calls[_name] += 1
            return _function(*args, **kwargs)

        monkeypatch.setattr(_lapack, name, counted)
    return calls


def test_a_scan_below_the_gate_makes_the_plain_fits(monkeypatch):
    """A scan of fewer than SCREEN_MIN_ORDERS orders fits every order up to the accepted
    one and makes no QR; one at the gate makes one QR and fewer fits."""
    calls = _count_linalg(monkeypatch)
    below = _grid(1, recurrence.SCREEN_MIN_ORDERS - 1)
    poly, _ = detect_minimal_recurrence(below, 0)
    assert below.max_degree // 2 == poly.degree == recurrence.SCREEN_MIN_ORDERS - 1
    assert calls == {"lstsq": poly.degree}
    calls.clear()
    at = _grid(1, recurrence.SCREEN_MIN_ORDERS)
    poly, _ = detect_minimal_recurrence(at, 0)
    assert at.max_degree // 2 == recurrence.SCREEN_MIN_ORDERS and poly.degree > 1
    assert calls["qr"] == calls["inv"] == 1 and calls["lstsq"] < poly.degree


def test_a_system_takes_one_screen_and_one_fit_per_variable_on_grids(monkeypatch):
    """Above the gate, detect_characteristic_system makes one qr and one inv whatever the
    dimension; on 2-D and 3-D grids the screen proves every order below each variable's
    own, so each variable takes exactly one lstsq."""
    calls = _count_linalg(monkeypatch)
    for dim, nodes, degree in ((1, 12, None), (2, 6, None), (3, 5, None), (4, 3, 20)):
        seq = _grid(dim, nodes, degree)
        assert seq.max_degree // 2 >= recurrence.SCREEN_MIN_ORDERS
        calls.clear()
        system = detect_characteristic_system(seq)
        assert calls["qr"] == calls["inv"] == 1, (dim, calls)
        if dim in (2, 3):
            assert [p.degree for p in system.polys] == [nodes] * dim
            assert calls["lstsq"] == dim


def test_a_variable_with_a_zero_pivot_leaves_the_others_screened(monkeypatch):
    """Seven atoms (k/7, y) at degree 14: with every atom at y = 0 the x_2 block of the
    screen is singular, yet x_1's orders are still proven, and detection makes the same
    three fits, and finds the same x_1 recurrence, as with the atoms at y = 0.5."""
    fits = Counter()
    fit = recurrence._fit_along

    def counted(*args):
        fits["lstsq"] += 1
        return fit(*args)

    monkeypatch.setattr(recurrence, "_fit_along", counted)
    seqs, systems = [], []
    for y in (0.0, 0.5):
        points = tuple((k / 7, y) for k in range(7))
        weights = tuple(1.0 + 0.1 * k for k in range(7))
        seqs.append(evaluate_moments(AtomicMeasure(2, points, weights), 14))
        assert seqs[-1].max_degree // 2 >= recurrence.SCREEN_MIN_ORDERS
        fits.clear()
        systems.append(detect_characteristic_system(seqs[-1]))
        assert fits["lstsq"] == 3, y
    flat, shifted = systems
    assert [p.degree for p in flat.polys] == [p.degree for p in shifted.polys]
    assert flat.polys[1].coeffs == (0.0, 1.0)
    proven = recurrence._certified_failures(seqs[0], slice(None), 1e-6)
    assert proven[0].any() and not proven[1].any()
