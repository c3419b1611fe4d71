"""Moment matrices, localizing matrices, PSD/rank analysis, bilinear forms."""

import itertools
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from momentrec import indexing, moments, solver
from momentrec.binet import AtomicMeasure, evaluate_moments, multivariate_binet
from momentrec.indexing import basis_labels, enumerate_basis, iter_basis
from momentrec.moments import (
    MomentMatrix,
    TruncatedSequence,
    bilinear_form,
    build_localizing_matrix,
    build_moment_matrix,
    max_localizing_order,
    numeric_rank,
    psd_check,
    shift_sequence,
)
from momentrec.polynomials import MultivariatePoly
from momentrec.recurrence import detect_characteristic_system, extend_sequence
from momentrec.sampling import sample_instance
from momentrec.solver import (
    STATUS_NOT_POSITIVE,
    STATUS_SUCCESS,
    Tolerances,
    flat_extension_check,
    solve_full,
)

ONES_D2 = TruncatedSequence(2, 2, {idx: 1.0 for idx in iter_basis(2, 2)})
PAIR = AtomicMeasure(dim=2, points=((0.0, 0.0), (1.0, 1.0)), weights=(1.0, 1.0))
PAIR_SEQ = evaluate_moments(PAIR, 4)


def matrix_from_atoms(measure, order, weight_fn=None):
    """Independent oracle: M = sum_atoms w * v(p) v(p)^T with monomial v."""
    labels = enumerate_basis(measure.dim, order)
    out = np.zeros((len(labels), len(labels)))
    for point, weight in zip(measure.points, measure.weights):
        v = np.array([np.prod([x**e for x, e in zip(point, idx)]) for idx in labels])
        w = weight if weight_fn is None else weight * weight_fn(point)
        out += w * np.outer(v, v)
    return out


def test_sequence_density_validation():
    """Sparse or over-degree inputs are rejected."""
    with pytest.raises(ValueError):
        TruncatedSequence(2, 2, {(0, 0): 1.0})
    with pytest.raises(ValueError):
        TruncatedSequence(1, 1, {(0,): 1.0, (1,): 1.0, (2,): 1.0})
    with pytest.raises(ValueError):
        TruncatedSequence(1, 2, np.ones(4))


def test_sequence_rejects_non_finite_values():
    """NaN and infinite moments are refused with the offending index named."""
    for bad in (float("nan"), float("inf"), float("-inf")):
        values = {idx: 1.0 for idx in iter_basis(2, 2)}
        values[(1, 1)] = bad
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            TruncatedSequence(2, 2, values)
    with pytest.raises(ValueError, match=r"\(2,\)"):
        TruncatedSequence(1, 2, [1.0, 0.5, np.nan])


def test_sequence_serialization():
    """Round trip, plus cheap rejection of missing and duplicate indices."""
    again = TruncatedSequence.from_dict(PAIR_SEQ.to_dict())
    assert again.values == PAIR_SEQ.values
    data = PAIR_SEQ.to_dict()
    data["moments"] = data["moments"][:-1]
    with pytest.raises(ValueError):
        TruncatedSequence.from_dict(data)
    dup = ONES_D2.to_dict()
    dup["moments"].append({"idx": [0, 0], "value": 5.0})
    with pytest.raises(ValueError):
        TruncatedSequence.from_dict(dup)
    # a short file claiming a high degree is refused at a cost set by its size
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="not dense"):
            TruncatedSequence.from_dict({"dim": 3, "degree": 150, "moments": []})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_values_is_a_read_only_view_over_the_array():
    """values maps each label, in degree-lex order, to its moment as a Python float, compares
    and copies like a dict, refuses every key that is not a label and every assignment, and
    reading it, an entry or to_dict() keeps nothing on the sequence."""
    seq = TruncatedSequence(2, 3, np.arange(10.0) / 4.0)
    indexing.label_index(2, 6)  # a shared index of higher degree serves this one
    values = seq.values
    assert list(values) == list(basis_labels(2, 3)) and len(values) == 10
    assert list(values.values()) == seq.array.tolist()
    assert all(type(v) is float for _, v in values.items())
    assert [v for _, v in values.items()] == seq.array.tolist()
    plain = dict(values)
    assert TruncatedSequence(2, 3, plain).values == values == plain and plain == values
    assert values == TruncatedSequence(2, 3, seq.array.copy()).values
    assert values != TruncatedSequence(2, 3, seq.array + 1.0).values
    assert values[(np.int64(1), np.int32(2))] == seq[np.array([1, 2])] == seq[(1, 2)] == 2.0
    for key in ((0, 4), (4, 0), (2, 2), (1,), (1, 0, 0), (-1, 1), "x", 3):
        with pytest.raises(KeyError):
            values[key]
        with pytest.raises(KeyError):
            seq[key if isinstance(key, tuple) else (key,)]
        assert key not in values
    with pytest.raises(TypeError):
        values[(0, 0)] = 1.0
    assert seq.to_dict()["moments"][4] == {"idx": [1, 1], "value": 1.0}
    assert vars(seq).keys() == {"dim", "max_degree", "array"}
    # the shared index is one plan-store entry per dimension, counted with the rest
    assert values._index() is indexing._plans[("label_index", 2)]
    assert indexing._plans_entries == sum(map(indexing._entries, indexing._plans.values()))


def test_values_retain_nothing_per_sequence():
    """Reading values, an entry and to_dict() of 1,000 sampled sequences, once their shapes'
    label indices are warm, leaves under 100 KB held (a dict per sequence held 5.8 MB)."""
    rng = np.random.default_rng(24)
    warm = [sample_instance(rng).moments for _ in range(1000)]
    for seq in warm:
        seq.values[(0,) * seq.dim], seq.to_dict()
    second = [TruncatedSequence(s.dim, s.max_degree, 2.0 * s.array) for s in warm]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for seq in second:
            label = next(reversed(list(seq.values)))
            assert seq.values[label] == seq[label] == seq.array[-1]
            seq.to_dict()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 100_000
    assert all(vars(seq).keys() == {"dim", "max_degree", "array"} for seq in second)


def test_moment_matrix_all_ones():
    """Constant moments give the all-ones matrix."""
    m = build_moment_matrix(ONES_D2, 1)
    assert m.labels == ((0, 0), (1, 0), (0, 1))
    assert np.array_equal(m.entries, np.ones((3, 3)))


def test_moment_matrix_two_atoms_frozen():
    """Point-evaluation sums for the two-atom measure at order 1."""
    m = build_moment_matrix(PAIR_SEQ, 1)
    assert np.array_equal(m.entries, np.array([[2.0, 1, 1], [1, 1, 1], [1, 1, 1]]))


def test_moment_matrix_zero_sequence():
    """Zero moments give the zero matrix of basis size 6."""
    zero = TruncatedSequence(2, 4, {idx: 0.0 for idx in iter_basis(2, 4)})
    m = build_moment_matrix(zero, 2)
    assert m.entries.shape == (6, 6)
    assert np.count_nonzero(m.entries) == 0


def test_moment_matrix_insufficient_data():
    """Order beyond the data raises."""
    with pytest.raises(ValueError):
        build_moment_matrix(ONES_D2, 2)


def test_moment_matrix_hankel_consistency():
    """Entries depend only on the label sum (exhaustive scan)."""
    m = build_moment_matrix(PAIR_SEQ, 2)
    seen = {}
    for i, li in enumerate(m.labels):
        for j, lj in enumerate(m.labels):
            key = tuple(a + b for a, b in zip(li, lj))
            if key in seen:
                assert m.entries[i, j] == seen[key]
            seen[key] = m.entries[i, j]
    assert np.array_equal(m.entries, m.entries.T)


def test_moment_matrix_atom_oracle():
    """Matrix construction agrees with the direct atom-sum oracle."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        inst = sample_instance(rng)
        order = inst.tau + 1
        built = build_moment_matrix(inst.moments, order)
        direct = matrix_from_atoms(inst.measure, order)
        scale = 1.0 + np.max(np.abs(direct))
        assert np.max(np.abs(built.entries - direct)) < 1e-9 * scale


def test_shift_identity():
    """Shifting by the constant 1 changes nothing."""
    shifted = shift_sequence(ONES_D2, MultivariatePoly.constant(2, 1.0))
    assert shifted.values == ONES_D2.values


def test_shift_by_x1_two_atoms():
    """(x_1 * beta) of the two-atom measure is identically 1."""
    shifted = shift_sequence(PAIR_SEQ, MultivariatePoly.variable(2, 0))
    assert shifted.max_degree == 3
    assert all(v == 1.0 for v in shifted.values.values())


def test_shift_by_zero_polynomial():
    """The zero polynomial zeroes the sequence."""
    shifted = shift_sequence(PAIR_SEQ, MultivariatePoly.zero(2))
    assert shifted.max_degree == PAIR_SEQ.max_degree
    assert all(v == 0.0 for v in shifted.values.values())


def test_localizing_constant_equals_plain():
    """q = 1 reproduces the plain moment matrix."""
    plain = build_moment_matrix(PAIR_SEQ, 1)
    local = build_localizing_matrix(PAIR_SEQ, 1, MultivariatePoly.constant(2, 1.0))
    assert np.array_equal(plain.entries, local.entries)
    assert local.kind == "localizing"


def test_localizing_x1_two_atoms():
    """q = x_1 for the two-atom measure gives the all-ones matrix."""
    local = build_localizing_matrix(PAIR_SEQ, 1, MultivariatePoly.variable(2, 0))
    assert np.array_equal(local.entries, np.ones((3, 3)))


def test_localizing_x1_origin_atom():
    """q = x_1 vanishes on delta at the origin: zero matrix."""
    origin = evaluate_moments(AtomicMeasure(2, ((0.0, 0.0),), (1.0,)), 4)
    local = build_localizing_matrix(origin, 1, MultivariatePoly.variable(2, 0))
    assert np.count_nonzero(local.entries) == 0


def test_localizing_atom_oracle():
    """Localizing matrices equal sums w * q(atom) * v v^T."""
    rng = np.random.default_rng(4)
    for _ in range(10):
        inst = sample_instance(rng)
        d = inst.measure.dim
        q = MultivariatePoly.variable(d, 0) + MultivariatePoly.constant(d, 0.5)
        order = max_localizing_order(inst.moments, q)
        built = build_localizing_matrix(inst.moments, order, q)
        direct = matrix_from_atoms(inst.measure, order, weight_fn=q.evaluate)
        scale = 1.0 + np.max(np.abs(direct))
        assert np.max(np.abs(built.entries - direct)) < 1e-9 * scale


def test_max_localizing_order_floor():
    """Largest m with 2m + deg q fitting the data, floor division."""
    q = MultivariatePoly.variable(2, 0)
    assert max_localizing_order(PAIR_SEQ, q) == 1
    q3 = MultivariatePoly(2, {(3, 0): 1.0})
    assert max_localizing_order(PAIR_SEQ, q3) == 0


def test_psd_check_examples():
    """All-ones is PSD with zero floor eigenvalue; the signed block is not."""
    ones = build_moment_matrix(ONES_D2, 1)
    res = psd_check(ones)
    assert res.is_psd and abs(res.min_eigenvalue) < 1e-12
    signed = MomentMatrix(
        order=1, labels=((0,), (1,)), entries=np.array([[0.0, -1.0], [-1.0, -1.0]])
    )
    res2 = psd_check(signed)
    assert not res2.is_psd
    assert abs(res2.min_eigenvalue - (-1.0 - np.sqrt(5.0)) / 2.0) < 1e-12
    zero = MomentMatrix(order=1, labels=((0,), (1,)), entries=np.zeros((2, 2)))
    assert psd_check(zero).is_psd


def test_numeric_rank_examples():
    """All-ones has rank 1, the two-atom matrix rank 2, zero rank 0."""
    assert numeric_rank(build_moment_matrix(ONES_D2, 1)) == 1
    assert numeric_rank(build_moment_matrix(PAIR_SEQ, 1)) == 2
    zero = MomentMatrix(order=1, labels=((0,), (1,)), entries=np.zeros((2, 2)))
    assert numeric_rank(zero) == 0


def test_numeric_rank_matches_svd_reference():
    """|eigenvalues| count like SVD singular values, with and without a floor."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        true_rank = int(rng.integers(0, n + 1))
        basis = rng.standard_normal((n, true_rank))
        signs = rng.choice([-1.0, 1.0], size=true_rank)
        entries = (basis * signs) @ basis.T
        entries += 1e-12 * rng.standard_normal() * np.eye(n)
        entries = (entries + entries.T) / 2.0
        matrix = MomentMatrix(order=0, labels=tuple((k,) for k in range(n)), entries=entries)
        sigma = np.linalg.svd(entries, compute_uv=False)
        for tol, scale in ((1e-8, None), (1e-8, 1e3), (1e-3, 0.5)):
            reference = sigma[0] if scale is None else max(sigma[0], scale)
            expected = int(np.count_nonzero(sigma > tol * reference)) if sigma[0] else 0
            assert numeric_rank(matrix, tol, scale=scale) == expected


def test_numeric_rank_noise_floor():
    """An external scale floor keeps roundoff-only matrices at rank 0."""
    noise = MomentMatrix(
        order=1,
        labels=((0,), (1,)),
        entries=np.array([[1e-14, -2e-15], [-2e-15, 3e-14]]),
    )
    assert numeric_rank(noise) == 2
    assert numeric_rank(noise, scale=1.0) == 0


def test_bilinear_form_examples():
    """Constant and coordinate pairings read off single moments."""
    single = evaluate_moments(AtomicMeasure(2, ((1.0, 1.0),), (1.0,)), 2)
    m1 = build_moment_matrix(single, 1)
    one = MultivariatePoly.constant(2, 1.0)
    x1 = MultivariatePoly.variable(2, 0)
    assert bilinear_form(one, m1, one) == 1.0
    assert bilinear_form(x1, m1, x1) == 1.0
    m_pair = build_moment_matrix(PAIR_SEQ, 1)
    assert bilinear_form(one, m_pair, x1) == 1.0
    with pytest.raises(ValueError):
        bilinear_form(MultivariatePoly(2, {(2, 0): 1.0}), m1, one)


def test_bilinear_associativity():
    """f^T M (gh) = (fg)^T M h when all products fit the order."""
    rng = np.random.default_rng(5)
    inst = sample_instance(rng, dim=2)
    from momentrec.recurrence import detect_characteristic_system, extend_sequence

    sys_ = detect_characteristic_system(inst.moments)
    ext = extend_sequence(inst.moments, sys_, 12)
    m6 = build_moment_matrix(ext, 6)
    for _ in range(20):
        polys = []
        for _ in range(3):
            terms = {}
            for _ in range(3):
                idx = tuple(int(e) for e in rng.integers(0, 3, size=2))
                if sum(idx) <= 2:
                    terms[idx] = float(rng.normal())
            polys.append(MultivariatePoly(2, terms or {(0, 0): 1.0}))
        f, g, h = polys
        lhs = bilinear_form(f, m6, g * h)
        rhs = bilinear_form(f * g, m6, h)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + max(abs(lhs), abs(rhs)))


def test_power_annihilation_explicit():
    """For PSD M: M vec(p^2) = 0 forces M vec(p) = 0; contrast non-annihilator."""
    from momentrec.recurrence import detect_characteristic_system, extend_sequence

    sys_ = detect_characteristic_system(PAIR_SEQ)
    ext = extend_sequence(PAIR_SEQ, sys_, 8)
    m4 = build_moment_matrix(ext, 4)
    norm = np.linalg.norm(m4.entries)
    p = MultivariatePoly(2, {(2, 0): 1.0, (1, 0): -1.0})  # annihilates the data
    img_sq = np.linalg.norm(m4.entries @ (p * p).coefficient_vector(4))
    img = np.linalg.norm(m4.entries @ p.coefficient_vector(4))
    assert img_sq < 1e-10 * norm
    assert img <= np.sqrt(img_sq * norm) + 1e-10 * norm
    x1 = MultivariatePoly.variable(2, 0)
    assert np.linalg.norm(m4.entries @ (x1 * x1).coefficient_vector(4)) > 0.1
    assert np.linalg.norm(m4.entries @ x1.coefficient_vector(4)) > 0.1


def test_necessity_psd_everywhere():
    """Synthesized positive measures give PSD M(k) and PSD allowed M_q."""
    rng = np.random.default_rng(6)
    for _ in range(10):
        inst = sample_instance(rng)
        d = inst.measure.dim
        for k in range(inst.moments.max_degree // 2 + 1):
            assert psd_check(build_moment_matrix(inst.moments, k)).is_psd
        # q = x_1 - (min first coordinate) is nonnegative on every atom
        low = min(p[0] for p in inst.measure.points)
        q = MultivariatePoly.variable(d, 0) - MultivariatePoly.constant(d, low)
        order = max_localizing_order(inst.moments, q)
        assert psd_check(build_localizing_matrix(inst.moments, order, q)).is_psd


def test_leading_blocks_and_prefixes():
    """M(k) is the leading block of M(k+1) and truncate(k) is an array prefix."""
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3):
        for _ in range(4):
            seq = sample_instance(rng, dim=dim).moments
            top = seq.max_degree // 2
            for k in range(top):
                small = build_moment_matrix(seq, k)
                big = build_moment_matrix(seq, k + 1)
                assert np.array_equal(big.truncate(k).entries, small.entries)
                assert big.truncate(k).labels == small.labels
            for degree in range(seq.max_degree + 1):
                cut = seq.truncate(degree).array
                assert np.array_equal(cut, seq.array[: cut.size])


def test_moment_matrix_memory_follows_the_basis():
    """M(2) of a 10-variable, degree-4 sequence needs no (degree+1)^dim table."""
    seq = TruncatedSequence(10, 4, np.ones(1001))
    tracemalloc.start()
    try:
        matrix = build_moment_matrix(seq, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix.size == 66
    assert peak < 10 * 2**20


def test_moment_matrix_transient_is_int32():
    """Building M(16) in 3-D (969^2 entries) peaks at the int32 plan plus its key sums or entries."""
    seq = TruncatedSequence(3, 32, np.ones(6545))
    build_moment_matrix(seq, 1)  # the 3-D rank tables and small plans, outside the count
    tracemalloc.start()
    try:
        matrix = build_moment_matrix(seq, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix.size == 969
    # int64 ranks needed about 18 MB here, the float entries alone 7.5 MB
    assert peak < 14 * 2**20


def _plan_outputs(seq):
    """Every array a solve gathers through plans, for one sequence."""
    system = detect_characteristic_system(seq)
    target = 2 * (system.tau + 1) + 2
    ext = extend_sequence(seq, system, max(target, seq.max_degree))
    x1 = MultivariatePoly.variable(seq.dim, 0)
    q = MultivariatePoly.constant(seq.dim, 4.0) - x1 * x1
    outputs = [np.array([p.coeffs for p in system.polys], dtype=object), ext.array]
    outputs += [build_moment_matrix(ext, k).entries for k in range(system.tau + 2)]
    outputs.append(shift_sequence(ext, q).array)
    outputs.append(build_localizing_matrix(ext, max_localizing_order(ext, q), q).entries)
    outputs.append(multivariate_binet(system, ext).coefficients)
    return outputs


def test_cold_and_warm_plans_agree(monkeypatch):
    """Fresh, reused and never-kept plans give bit-identical gathers in 1-4 D."""
    rng = np.random.default_rng(11)
    seqs = [sample_instance(rng, dim=dim).moments for dim in (1, 2, 3, 4) for _ in range(2)]
    monkeypatch.setattr(indexing, "_plans", OrderedDict())
    monkeypatch.setattr(indexing, "_plans_entries", 0)
    cold = [_plan_outputs(seq) for seq in seqs]
    assert indexing._plans
    warm = [_plan_outputs(seq) for seq in seqs]
    # a store of no entries keeps no plan and no basis
    monkeypatch.setattr(indexing, "PLAN_STORE_LIMIT", 0)
    monkeypatch.setattr(indexing, "_plans", OrderedDict())
    monkeypatch.setattr(indexing, "_plans_entries", 0)
    unkept = [_plan_outputs(seq) for seq in seqs]
    assert not indexing._plans and indexing._plans_entries == 0
    for first, second, third in zip(cold, warm, unkept):
        assert len(first) == len(second) == len(third)
        for a, b, c in zip(first, second, third):
            assert np.array_equal(a, b) and np.array_equal(a, c)


def test_matrix_json_rejects_asymmetric_and_non_finite():
    """Only degree-lex labels and exactly symmetric, finite entries load."""
    # wrong order, wrong order of labels, negative order, no labels, mixed lengths
    bad = [(2, [[0], [1]]), (1, [[1], [0]]), (-1, [[0]]), (0, []), (1, [[0, 0], [1], [0, 1]])]
    for order, labels in bad:
        data = {"order": order, "labels": labels, "entries": np.eye(len(labels)).tolist()}
        with pytest.raises(ValueError, match="degree-lex basis"):
            MomentMatrix.from_dict(data)
    # eigvalsh reads one triangle only
    data = {"order": 1, "labels": [[0], [1]], "entries": [[1.0, -5.0], [0.0, 1.0]]}
    with pytest.raises(ValueError, match="exactly symmetric"):
        MomentMatrix.from_dict(data)
    data["entries"] = [[1.0, float("nan")], [float("nan"), 1.0]]
    with pytest.raises(ValueError, match="finite"):
        MomentMatrix.from_dict(data)


def test_matrix_serialization():
    """Matrix JSON round trips including the localizer tag."""
    local = build_localizing_matrix(PAIR_SEQ, 1, MultivariatePoly.variable(2, 0))
    again = MomentMatrix.from_dict(local.to_dict())
    assert np.array_equal(again.entries, local.entries)
    assert again.kind == "localizing"
    assert again.localizer.terms == local.localizer.terms
    assert again.labels == local.labels


def test_truncate_restricts_degree():
    """Truncation keeps exactly the low-degree entries."""
    cut = PAIR_SEQ.truncate(2)
    assert cut.max_degree == 2
    assert len(cut.values) == 6
    with pytest.raises(ValueError):
        cut.truncate(3)


def _labelled(entries):
    """A fresh MomentMatrix (nothing cached) over the given symmetric entries."""
    n = entries.shape[0]
    return MomentMatrix(order=0, labels=tuple((k,) for k in range(n)), entries=entries)


def _reference(entries, tol, scale):
    """eigvalsh's verdict, smallest eigenvalue and rank: what the certificate must reproduce."""
    lam = np.linalg.eigvalsh(entries)
    sigma = np.abs(lam)
    reference = sigma.max() if scale is None else max(sigma.max(), scale)
    is_psd = lam[0] >= -tol * (1.0 + abs(np.trace(entries)))
    return is_psd, lam, int(np.count_nonzero(sigma > tol * reference))


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """Row counts of every matrix numpy.linalg.eigvalsh receives."""
    sizes = []
    original = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return sizes


def _perturbed(rng, dim, count, degree, noise):
    """Moments of a random positive measure plus relative noise, and the misfit factor.

    Returns (data, factor) with factor = (points, weights, misfit) as the
    solver uses them: ``moments_and_grams`` runs over the points and
    weights, and the misfit is the data minus the measure's moments, so
    ||E|| > 0 whenever noise > 0.
    """
    points = rng.uniform(-1.0, 1.0, size=(count, dim))
    weights = rng.uniform(0.5, 1.5, size=count)
    exact = evaluate_moments(AtomicMeasure(dim, tuple(map(tuple, points)), tuple(weights)), degree)
    values = exact.array * (1.0 + noise * rng.standard_normal(exact.array.size))
    data = TruncatedSequence(dim, degree, values)
    misfit = TruncatedSequence(dim, degree, data.array - exact.array)
    return data, (points, weights, misfit)


def _gram_sums(factor, requests):
    """The GramSums of one measure pass over ``factor``'s measure, to the misfit's degree."""
    points, weights, misfit = factor
    return moments.moments_and_grams(points, weights, misfit.max_degree, requests)[1]


def _check_against_eigvalsh(data, sums, misfit, bracket=None):
    """The bracket holds eigvalsh's spectrum; what it decides, it decides as eigvalsh does.

    ``bracket`` defaults to ``moment_bracket`` of ``sums``. For three
    tolerance pairs: a decided bracket gives eigvalsh's verdict and rank, and
    a certified min eigenvalue no higher than eigvalsh's beyond roundoff and
    within twice the radius of it. Returns the number of pairs the bracket
    decided.
    """
    order, poly = sums.order, sums.poly
    if poly is None:
        matrix, shifted = build_moment_matrix(data, order), data
    else:
        matrix, shifted = build_localizing_matrix(data, order, poly), shift_sequence(data, poly)
    n = matrix.size
    if bracket is None:
        bracket = moments.moment_bracket(sums, moments.misfit_bound(sums, misfit))
    centers, radius = bracket
    lam = np.linalg.eigvalsh(matrix.entries)
    assert centers.shape == (n,) and radius > 0.0
    assert np.all(np.abs(centers - lam) <= radius)
    certified = 0
    for tol, scale in ((1e-8, None), (1e-8, 1e3), (1e-3, 0.5)):
        is_psd, _, rank = _reference(matrix.entries, tol, scale)
        decided = moments.bracket_check(shifted, order, (centers, radius), tol, tol, scale)
        if decided is not None:
            check, bracket_rank = decided
            certified += 1
            assert check.certified and check.is_psd == is_psd
            assert check.threshold == psd_check(matrix, tol).threshold
            assert bracket_rank == rank
            # a lower bound: never above the smallest eigenvalue beyond roundoff
            assert check.min_eigenvalue <= lam[0] + 8 * n * np.finfo(float).eps * np.abs(lam).max()
            assert lam[0] - check.min_eigenvalue <= 2.0 * radius
    return certified


def test_certified_psd_and_rank_match_eigvalsh():
    """Brackets of perturbed 1-3-D measures' M(n) and M_q(n) of 48-220 rows agree with eigvalsh."""
    rng = np.random.default_rng(2026)
    certified = checked = 0
    for dim, order, counts in ((1, 47, (3, 20, 60)), (2, 9, (10, 40, 70)), (3, 5, (8, 30, 80))):
        for count in counts:
            for noise in (0.0, 1e-13, 1e-10, 1e-7):
                data, factor = _perturbed(rng, dim, count, 2 * order + 2, noise)
                x1 = MultivariatePoly.variable(dim, 0)
                q = MultivariatePoly.constant(dim, 4.0) - x1 * x1
                for sums in _gram_sums(factor, [(order, None), (order, q)]):
                    certified += _check_against_eigvalsh(data, sums, factor[2])
                checked += 6
    # the bracket, not the eigvalsh fallback, decided most of them
    assert certified >= 0.75 * checked


def test_indefinite_matrices_match_eigvalsh():
    """Given indefinite matrices report eigvalsh's verdict, rank and smallest eigenvalue;
    a bracket of one that changes sign on the atoms holds the spectrum but certifies nothing."""
    rng = np.random.default_rng(7)
    for n in (50, 120):
        for negative in (1, 3, n // 3):
            basis = rng.standard_normal((n, n // 2))
            signs = np.ones(n // 2)
            signs[:negative] = -1.0
            entries = (basis * signs) @ basis.T
            entries = (entries + entries.T) / 2.0
            for tol, scale in ((1e-8, None), (1e-8, 1e3), (1e-3, 0.5)):
                is_psd, lam, rank = _reference(entries, tol, scale)
                check = psd_check(_labelled(entries), tol)
                assert not check.is_psd and not is_psd
                assert check.min_eigenvalue == lam[0] and not check.certified
                assert numeric_rank(_labelled(entries), tol, scale=scale) == rank
    for dim, order in ((1, 50), (2, 9), (3, 6)):
        data, factor = _perturbed(rng, dim, 30, 2 * order + 1, 1e-12)
        x1 = MultivariatePoly.variable(dim, 0)
        (sums,) = _gram_sums(factor, [(order, x1)])
        assert _check_against_eigvalsh(data, sums, factor[2]) == 0
        assert not psd_check(build_localizing_matrix(data, order, x1)).is_psd


def _cut(points):
    """x1 - c, c the median first coordinate: a constraint through the middle of the atoms."""
    dim = points.shape[1]
    return MultivariatePoly.variable(dim, 0) - MultivariatePoly.constant(
        dim, float(np.median(points[:, 0]))
    )


def test_signed_bracket_certifies_a_cut_through_the_atoms():
    """A cut x1 - c through sampled 1-3-D measures: the factor's bracket of M_q(n), 51-84 rows,
    gives psd_check's failing verdict and numeric_rank's rank of the built matrix, where the
    Gram bracket certifies nothing; its min eigenvalue is a lower bound within 2 radii."""
    rng = np.random.default_rng(16)
    certified = checked = solver_decided = 0
    for dim, order, counts in ((1, 50, (4, 12, 30)), (2, 9, (6, 20, 41)), (3, 6, (8, 30, 61))):
        for count in counts:
            for noise in (0.0, 1e-12, 1e-9):
                data, factor = _perturbed(rng, dim, count, 2 * order + 1, noise)
                points, _, misfit = factor
                cut = _cut(points)
                (sums,) = _gram_sums(factor, [(order, cut)])
                assert (sums.diagonal < 0.0).any()
                assert _check_against_eigvalsh(data, sums, misfit) == 0
                bound = moments.misfit_bound(sums, misfit)
                bracket = moments.signed_bracket(points, sums, bound)
                certified += _check_against_eigvalsh(data, sums, misfit, bracket)
                checked += 3
                # the solver's tolerances and rank floor
                matrix = build_localizing_matrix(data, order, cut)
                scale = float(np.abs(build_moment_matrix(data, order).eigenvalues).max()) * 2.0
                decided = moments.bracket_check(
                    shift_sequence(data, cut), order, bracket, 1e-8, 1e-8, scale
                )
                if decided is not None:
                    solver_decided += 1
                    check, rank = decided
                    assert check.certified and not check.is_psd
                    assert not psd_check(matrix).is_psd
                    assert rank == numeric_rank(matrix, scale=scale)
    # the factor's bracket, not the eigvalsh fallback, decided most of them
    assert certified >= 0.75 * checked and solver_decided >= 0.75 * checked / 3


def test_straddled_signed_bracket_falls_back(built_orders):
    """A PSD threshold inside the signed bracket of M_q(7) sends the matrix to eigvalsh."""
    seq = _grid_sequence(3, 3, 15)
    q = MultivariatePoly.variable(3, 0) - MultivariatePoly.constant(3, 0.5)
    constraints = solver.SemialgebraicSet((q,))
    (record,) = solver.solve_constrained(seq, constraints).constraint_records
    assert record.order == 7 and record.certified and not record.is_psd
    assert built_orders == []
    # the psd tolerance that puts the threshold on eigvalsh's smallest eigenvalue
    matrix = build_localizing_matrix(seq, 7, q)
    lowest = float(matrix.eigenvalues[0])
    assert record.min_eigenvalue <= lowest
    tol = -lowest / (1.0 + abs(float(np.trace(matrix.entries))))
    built_orders.clear()
    report = solver.solve_constrained(seq, constraints, Tolerances(psd=tol))
    (record,) = report.constraint_records
    assert built_orders == [7] and not record.certified
    assert record.min_eigenvalue == lowest


def test_signed_bracket_is_made_only_where_the_gram_bracket_fails(built_orders):
    """A cut through 40 atoms: M_q(47), 48 rows, gets both brackets and the signed one
    certifies it, no matrix built; a constraint positive at every atom gets one bracket."""
    rng = np.random.default_rng(5)
    order = 47  # M_q(47) has 48 rows in one variable
    data, factor = _perturbed(rng, 1, 40, 2 * order + 2, 0.0)
    points, _, misfit = factor
    x1 = MultivariatePoly.variable(1, 0)
    cut, box = _cut(points), MultivariatePoly.constant(1, 4.0) - x1 * x1
    signed, positive = _gram_sums(factor, [(order, cut), (order, box)])
    assert len(list(solver._measure_brackets(points, signed, misfit, 1e-8, None))) == 2
    assert len(list(solver._measure_brackets(points, positive, misfit, 1e-8, None))) == 1
    shifted = shift_sequence(data, cut)
    brackets = solver._measure_brackets(points, signed, misfit, 1e-8, None)
    record, _, matrix = solver._psd_record(shifted, order, Tolerances(), brackets)
    assert record.certified and matrix is None and built_orders == []
    reference = build_localizing_matrix(data, order, cut)
    assert not record.is_psd and not psd_check(reference).is_psd
    assert record.rank == numeric_rank(reference)


def test_continued_gram_matches_the_direct_factor():
    """The pass's Gram sums of M(n) and M(n+1) equal F^T F of the direct factor within the
    bracket's roundoff allowance, where M(n+1)'s sum continues M(n)'s; the moments are
    bit-identical to a pass with no requests."""
    rng = np.random.default_rng(12)
    for dim, count, n in ((1, 5, 60), (2, 150, 8), (3, 216, 7), (3, 30, 6)):
        _, (points, weights, misfit) = _perturbed(rng, dim, count, 2 * n + 4, 0.0)
        x1 = MultivariatePoly.variable(dim, 0)
        q = MultivariatePoly.constant(dim, 0.5) - x1 * x1
        requests = [(n, None), (n + 1, None), (n + 1, q), (n + 2, q)]
        values, sums = moments.moments_and_grams(points, weights, misfit.max_degree, requests)
        alone, none = moments.moments_and_grams(points, weights, misfit.max_degree)
        assert np.array_equal(values, alone) and none == []
        assert [(s.order, s.poly) for s in sums] == requests
        for s in sums:
            poly = MultivariatePoly.constant(dim, 1.0) if s.poly is None else s.poly
            exponents = indexing.basis_array(dim, s.order)
            rows = np.prod(points[None, :, :] ** exponents[:, None, :], axis=2)  # (N, r)
            diagonal = weights * np.array([poly.evaluate(p) for p in points])
            factor = rows * np.sqrt(np.maximum(diagonal, 0.0))
            norms = np.einsum("is,is->s", rows, rows)
            terms = [abs(c) * np.prod(np.abs(points) ** g, axis=1) for g, c in poly.terms.items()]
            magnitude = np.abs(weights) * sum(terms)
            length = len(rows) + count + 2 * s.order + poly.degree + len(poly.terms)
            allowance = moments._ROUNDOFF * length * s.total
            assert np.linalg.norm(s.gram - factor.T @ factor) <= allowance
            assert abs(s.total - magnitude @ norms) <= allowance
            assert abs(s.negative - np.maximum(-diagonal, 0.0) @ norms) <= allowance


def test_the_rank_rule_skips_only_undecided_brackets(eigvalsh_sizes):
    """moment_bracket with a rank tolerance is None, with no eigvalsh, only where the full
    bracket leaves bracket_check's rank undecided; otherwise it is the full bracket. Noisy
    measures with fewer atoms than rows take the skip."""
    rng = np.random.default_rng(21)
    skipped = kept = 0
    for dim, order, counts in ((1, 47, (3, 20, 60)), (2, 9, (10, 40, 70)), (3, 5, (8, 30, 80))):
        for count in counts:
            for noise in (0.0, 1e-10, 1e-7, 1e-4):
                data, factor = _perturbed(rng, dim, count, 2 * order + 2, noise)
                (sums,) = _gram_sums(factor, [(order, None)])
                bound = moments.misfit_bound(sums, factor[2])
                full = moments.moment_bracket(sums, bound)
                for tol, scale in ((1e-8, None), (1e-8, 1e3), (1e-3, 0.5)):
                    eigvalsh_sizes.clear()
                    ruled = moments.moment_bracket(sums, bound, tol, scale)
                    if ruled is None:
                        skipped += 1
                        assert eigvalsh_sizes == [] and count < len(full[0])
                        assert moments.bracket_check(data, order, full, tol, tol, scale) is None
                    else:
                        kept += 1
                        assert np.array_equal(ruled[0], full[0]) and ruled[1] == full[1]
    assert skipped >= 10 and kept >= 50


def test_the_grid_of_100_atoms_makes_no_gram_eigvalsh(eigvalsh_sizes):
    """The 2-D 10^2 grid: both Gram brackets' radii leave the rank undecided, so only the
    built M(tau+1) goes to eigvalsh (M(tau) is its leading block), no 100 x 100 Gram matrix."""
    seq = _grid_sequence(2, 10, 38)
    report = solve_full(seq)
    low, high = report.psd_records
    assert not (low.certified or high.certified)
    assert eigvalsh_sizes == [indexing.basis_size(2, high.order), indexing.basis_size(2, low.order)]


def test_bracket_of_overflowing_sums_is_none(eigvalsh_sizes):
    """Finite moments whose Gram sums overflow give no bracket, Gram or signed, before any
    eigvalsh runs."""
    points, weights = np.array([[1.0]]), np.array([1e307])
    values, (sums,) = moments.moments_and_grams(points, weights, 96, [(47, None)])
    assert np.isfinite(values).all() and sums.total == np.inf
    bound = moments.misfit_bound(sums, TruncatedSequence(1, 96, np.zeros(97)))
    assert bound == 0.0
    assert moments.moment_bracket(sums, bound) is None
    assert moments.signed_bracket(points, sums, bound) is None
    assert eigvalsh_sizes == []


def test_eigenvalue_on_the_rank_cutoff_falls_back(eigvalsh_sizes):
    """A rank tolerance with an eigenvalue of M(tau+1) on the cutoff sends it to eigvalsh."""
    seq = _grid_sequence(3, 3, 14)
    lam = np.abs(np.linalg.eigvalsh(build_moment_matrix(seq, 7).entries))
    tol = np.sort(lam)[-10] / lam.max()  # the tenth largest sits on tol * sigma_max
    eigvalsh_sizes.clear()
    report = solve_full(seq, Tolerances(rank=tol))
    assert report.status == STATUS_SUCCESS and report.tau == 6
    low, high = report.psd_records
    assert low.certified and not high.certified
    # the other calls are the brackets' 27 x 27 Gram matrices
    assert [n for n in eigvalsh_sizes if n != 27] == [120]
    assert high.rank == _reference(build_moment_matrix(seq, 7).entries, tol, None)[2]


def _grid_sequence(dim, nodes, degree, flip=None):
    """Moments of a weighted product grid on [-1, 1]^dim; ``flip`` negates that atom's weight."""
    axis = np.linspace(-1.0, 1.0, nodes)
    points = tuple(itertools.product(*([tuple(axis)] * dim)))
    weights = tuple(1.0 + 0.01 * i for i in range(len(points)))
    seq = evaluate_moments(AtomicMeasure(dim, points, weights), degree)
    if flip is None:
        return seq
    spike = evaluate_moments(AtomicMeasure(dim, (points[flip],), (weights[flip],)), degree)
    return TruncatedSequence(dim, degree, seq.array - 2.0 * spike.array)


@pytest.fixture
def built_orders(monkeypatch):
    """Orders of every moment matrix the solver gathers for eigvalsh (its ``moment_plan``
    lookups), M_q(n) being M(n) of q * beta; M(tau) cut from M(tau+1) gathers nothing."""
    orders = []
    original = solver.moment_plan

    def recording(dim, order):
        orders.append(order)
        return original(dim, order)

    monkeypatch.setattr(solver, "moment_plan", recording)
    return orders


@pytest.mark.parametrize("dim, nodes", [(3, 5), (4, 3)])
def test_solver_certifies_the_large_moment_matrices(eigvalsh_sizes, built_orders, dim, nodes):
    """solve_full on a product grid brackets M(tau) and M(tau+1): no matrix, no eigvalsh."""
    tau = dim * (nodes - 1)
    seq = _grid_sequence(dim, nodes, 2 * (tau + 1))
    report = solve_full(seq)
    assert report.status == STATUS_SUCCESS and report.tau == tau
    sizes = {indexing.basis_size(dim, tau), indexing.basis_size(dim, tau + 1)}
    assert sizes in ({455, 560}, {495, 715})
    assert built_orders == [] and not sizes & set(eigvalsh_sizes)
    assert all(record.certified for record in report.psd_records)
    # flat_extension_check builds M(tau+1) and reads eigvalsh: the same ranks
    flat = flat_extension_check(seq, report.system, tau)
    assert (flat.rank_n, flat.rank_next) == tuple(r.rank for r in report.psd_records)
    assert sizes <= set(eigvalsh_sizes)
    # a negative corner atom: no measure, so the matrices are built and eigvalsh reports
    eigvalsh_sizes.clear()
    built_orders.clear()
    signed = _grid_sequence(dim, nodes, 2 * (tau + 1), flip=0)
    report = solve_full(signed)
    assert report.status == STATUS_NOT_POSITIVE and report.measure is None
    assert built_orders == [tau + 1] and max(sizes) in eigvalsh_sizes
    for record in report.psd_records:
        lowest = np.linalg.eigvalsh(build_moment_matrix(signed, record.order).entries)[0]
        assert not record.is_psd and not record.certified
        assert record.min_eigenvalue == lowest


def test_every_order_is_bracketed_from_one_measure():
    """Brackets of M(0..n), flat and non-flat, from one measure pass agree with eigvalsh."""
    rng = np.random.default_rng(10)
    inputs = []
    for dim, count, n in ((3, 20, 5), (3, 60, 7), (3, 140, 7), (2, 40, 10), (2, 70, 11)):
        inputs.append((*_perturbed(rng, dim, count, 2 * n, 1e-12), n))
    certified = non_flat = wide = 0
    for data, factor, n in inputs:
        rank_full = numeric_rank(build_moment_matrix(data, n))
        orders = [j for j in range(n + 1) if indexing.basis_size(data.dim, j) >= 48]
        # one pass: each order's Gram sum continues the one below
        for sums in _gram_sums(factor, [(j, None) for j in orders]):
            certified += _check_against_eigvalsh(data, sums, factor[2])
            non_flat += numeric_rank(build_moment_matrix(data, sums.order)) < rank_full
            wide += len(factor[0]) > indexing.basis_size(data.dim, sums.order)
    # the bracket decided most of them, among them non-flat blocks and more atoms than rows
    assert certified >= 20 and non_flat >= 5 and wide >= 2
