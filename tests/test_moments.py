"""Moment matrices, localizing matrices, PSD/rank analysis, bilinear forms."""

import itertools
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from momentrec import indexing, moments
from momentrec.binet import AtomicMeasure, evaluate_moments, multivariate_binet
from momentrec.indexing import enumerate_basis, iter_basis
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
from momentrec.solver import STATUS_SUCCESS, flat_extension_check, solve_full

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
    monkeypatch.setattr(indexing, "PLAN_RETAIN_LIMIT", 0)
    monkeypatch.setattr(indexing, "_plans", OrderedDict())
    unkept = [_plan_outputs(seq) for seq in seqs]
    assert not indexing._plans
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


def _check_against_eigvalsh(entries, fresh=None):
    """Verdict and rank equal eigvalsh's for three tolerance pairs; count certified checks.

    ``fresh()`` makes the matrix checked, with nothing cached, over these entries.
    """
    n = entries.shape[0]
    certified = 0
    for tol, scale in ((1e-8, None), (1e-8, 1e3), (1e-3, 0.5)):
        is_psd, lam, rank = _reference(entries, tol, scale)
        matrix = _labelled(entries) if fresh is None else fresh()
        check = psd_check(matrix, tol)
        assert check.is_psd == is_psd
        assert numeric_rank(matrix, tol, scale=scale) == rank
        if check.certified:
            certified += 1
            # a lower bound: never above the smallest eigenvalue beyond roundoff
            assert check.is_psd
            assert check.min_eigenvalue <= lam[0] + 8 * n * np.finfo(float).eps * np.abs(lam).max()
        else:
            assert check.min_eigenvalue == lam[0]
    return certified


def test_certified_psd_and_rank_match_eigvalsh():
    """Random low-rank PSD matrices of 40-200 rows: eigvalsh's verdict and rank."""
    rng = np.random.default_rng(2026)
    certified = 0
    for n in (40, 48, 64, 97, 130, 200):
        for rank in (0, 1, 5, n // 4, n // 2, n):
            basis = rng.standard_normal((n, rank)) * 10.0 ** rng.uniform(-3, 3, size=rank)
            entries = basis @ basis.T
            entries = (entries + entries.T) / 2.0
            certified += _check_against_eigvalsh(entries)
    # the certificate, not the eigvalsh fallback, decided most of them
    assert certified >= 60


def test_indefinite_matrices_match_eigvalsh():
    """Indefinite matrices report eigvalsh's verdict, rank and smallest eigenvalue."""
    rng = np.random.default_rng(7)
    for n in (50, 120):
        for negative in (1, 3, n // 3):
            basis = rng.standard_normal((n, n // 2))
            signs = np.ones(n // 2)
            signs[:negative] = -1.0
            entries = (basis * signs) @ basis.T
            entries = (entries + entries.T) / 2.0
            _check_against_eigvalsh(entries)
            assert not psd_check(_labelled(entries)).is_psd


def test_eigenvalue_on_the_rank_cutoff_falls_back(eigvalsh_sizes):
    """A bracket straddling tol * sigma_max sends numeric_rank to eigvalsh."""
    rng = np.random.default_rng(3)
    n, tol = 80, 1e-8
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spectrum = np.zeros(n)
    spectrum[:6] = (1.0, 0.5, 0.1, 1e-3, 1e-6, tol)  # the last one sits on the cutoff
    entries = (basis * spectrum) @ basis.T
    entries = (entries + entries.T) / 2.0
    matrix = _labelled(entries)
    assert psd_check(matrix, tol).is_psd
    assert n not in eigvalsh_sizes  # the verdict alone was certified
    assert numeric_rank(matrix, tol) == _reference(entries, tol, None)[2]
    assert n in eigvalsh_sizes


@pytest.fixture
def factored_sizes(monkeypatch):
    """Row counts of every matrix the pivoted Cholesky factors."""
    sizes = []
    original = moments._pivoted_cholesky

    def recording(entries, blocks):
        sizes.append(entries.shape[0])
        return original(entries, blocks)

    monkeypatch.setattr(moments, "_pivoted_cholesky", recording)
    return sizes


def _grid_sequence(dim, nodes, degree):
    axis = np.linspace(-1.0, 1.0, nodes)
    points = tuple(itertools.product(*([tuple(axis)] * dim)))
    weights = tuple(1.0 + 0.01 * i for i in range(len(points)))
    return evaluate_moments(AtomicMeasure(dim, points, weights), degree)


@pytest.mark.parametrize("dim, nodes", [(3, 5), (4, 3)])
def test_solver_certifies_the_large_moment_matrices(
    eigvalsh_sizes, factored_sizes, dim, nodes
):
    """solve_full on a product grid factors M(tau+1) once, M(tau) from it, with no eigvalsh."""
    tau = dim * (nodes - 1)
    seq = _grid_sequence(dim, nodes, 2 * (tau + 1))
    report = solve_full(seq)
    assert report.status == STATUS_SUCCESS and report.tau == tau
    sizes = {indexing.basis_size(dim, tau), indexing.basis_size(dim, tau + 1)}
    assert sizes in ({455, 560}, {495, 715})
    assert factored_sizes == [max(sizes)]
    assert all(record.certified for record in report.psd_records)
    flat = flat_extension_check(seq, report.system, tau)
    assert factored_sizes == [max(sizes)] * 2
    assert (flat.rank_n, flat.rank_next) == tuple(r.rank for r in report.psd_records)
    assert not sizes & set(eigvalsh_sizes)


def _random_atoms(rng, dim, count, degree):
    points = tuple(tuple(p) for p in rng.uniform(-1.0, 1.0, size=(count, dim)))
    weights = tuple(rng.uniform(0.5, 1.5, size=count))
    return evaluate_moments(AtomicMeasure(dim, points, weights), degree)


def test_leading_blocks_are_certified_from_their_source():
    """Blocks of flat and non-flat M(n) give eigvalsh's verdicts and ranks from one factor."""
    rng = np.random.default_rng(10)
    inputs = [(_grid_sequence(3, 3, 14), 7), (_grid_sequence(2, 6, 20), 10)]
    for dim, count, n in ((3, 20, 5), (3, 60, 7), (3, 140, 7), (2, 40, 10), (2, 70, 11)):
        inputs.append((_random_atoms(rng, dim, count, 2 * n), n))
    certified = non_flat = wide = 0
    for seq, n in inputs:
        full = build_moment_matrix(seq, n)
        rank_full = numeric_rank(full)
        for j in range(n + 1):
            block = full.truncate(j)
            certified += _check_against_eigvalsh(
                block.entries, lambda: build_moment_matrix(seq, n).truncate(j)
            )
            if block.size >= moments.CERTIFY_MIN_SIZE:
                non_flat += numeric_rank(block) < rank_full
                wide += full._factorization[0].shape[0] > block.size
            # the bracket does not depend on which of the two is checked first
            source = build_moment_matrix(seq, n)
            block_first = source.truncate(j).spectrum
            source.spectrum
            other = build_moment_matrix(seq, n)
            other.spectrum
            source_first = other.truncate(j).spectrum
            assert np.array_equal(block_first[0], source_first[0])
            assert block_first[1] == source_first[1]
    # the certificate decided most of them, among them non-flat and wide blocks
    assert certified >= 40 and non_flat >= 5 and wide >= 3


def test_one_band_pass_gives_the_schur_norm_of_every_block():
    """The factorization reports ||(A - R^T R)[:n, :n]||_F^2 for every block asked for."""
    rng = np.random.default_rng(8)
    n = 300
    # 40 positive directions over a negative definite rest: pivoting stops
    # within the 40 and leaves a Schur complement far above roundoff
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spectrum = np.concatenate([np.logspace(0, -3, 40), -rng.uniform(1e-4, 1e-3, n - 40)])
    entries = (basis * spectrum) @ basis.T
    entries = (entries + entries.T) / 2.0
    blocks = [48, 100, 217, 219, 231, 232, 250, 299, n]
    factor, squares = moments._pivoted_cholesky(entries, blocks)
    # more unpivoted rows than one band of 65536 // 300 = 218 holds
    assert n - factor.shape[0] > 218
    assert sorted(squares) == blocks
    remainder = entries - factor.T @ factor
    total = np.vdot(remainder, remainder)
    for size in blocks:
        reference = np.vdot(remainder[:size, :size], remainder[:size, :size])
        # on the pivoted rows the remainder is roundoff, far below the Schur complement
        assert abs(squares[size] - reference) <= 1e-10 * total


def test_block_certificates_keep_only_the_factor():
    """A matrix and its block, both checked, retain far less than one N x N array."""
    full = build_moment_matrix(_random_atoms(np.random.default_rng(4), 3, 20, 24), 12)
    block = full.truncate(10)
    tracemalloc.start()
    try:
        for matrix in (block, full):
            check = psd_check(matrix)
            numeric_rank(matrix)
            assert check.certified
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert full.size == 455
    assert retained < full.entries.nbytes / 8
