"""Degree-lex ordering against a brute-force enumeration oracle."""

import itertools
import math
import sys
import threading
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from momentrec import (
    AtomicMeasure,
    CharacteristicSystem,
    NoRecurrenceError,
    TruncatedSequence,
    UnivariatePoly,
    detect_minimal_recurrence,
    evaluate_moments,
    extend_sequence,
    indexing,
)
from momentrec.indexing import (
    PLAN_STORE_LIMIT,
    basis_array,
    basis_labels,
    basis_size,
    degree_lex_pair_ranks,
    degree_lex_rank,
    degree_lex_ranks,
    enumerate_basis,
    extension_plan,
    grid_plan,
    iter_basis,
    moment_plan,
    pair_counts,
    shift_plan,
    split_plan,
    total_degree,
)


def brute_force_basis(dim, degree):
    """All exponent tuples with |i| <= degree, sorted by the ordering rule.

    Ascending total degree, then descending exponent of the first variable,
    then the second, and so on. Independent of the package's enumerator.
    """
    tuples = [
        idx
        for idx in itertools.product(range(degree + 1), repeat=dim)
        if sum(idx) <= degree
    ]
    return sorted(tuples, key=lambda idx: (sum(idx), tuple(-e for e in idx)))


def test_total_degree():
    """The degree is the entry sum."""
    assert total_degree((0, 0)) == 0
    assert total_degree((3, 1, 2)) == 6


def test_rank_frozen_values():
    """Hand-checked positions in the ordering."""
    assert degree_lex_rank((0, 0)) == 0
    assert degree_lex_rank((1, 0)) == 1
    assert degree_lex_rank((0, 1)) == 2
    assert degree_lex_rank((2, 0)) == 3
    assert degree_lex_rank((1, 1)) == 4
    assert degree_lex_rank((0, 2)) == 5
    assert degree_lex_rank((3, 0, 0)) == 10
    assert degree_lex_rank((0,)) == 0
    assert degree_lex_rank((4,)) == 4


def test_enumerate_basis_small_cases():
    """Explicit small bases."""
    assert enumerate_basis(1, 2) == [(0,), (1,), (2,)]
    assert enumerate_basis(2, 1) == [(0, 0), (1, 0), (0, 1)]
    b22 = enumerate_basis(2, 2)
    assert len(b22) == 6
    assert b22[-1] == (0, 2)


def test_enumerate_matches_brute_force():
    """The enumerator agrees with the independent sort oracle everywhere."""
    for dim in range(1, 6):
        for degree in range(0, 7):
            assert list(enumerate_basis(dim, degree)) == brute_force_basis(dim, degree)


def test_rank_is_position():
    """degree_lex_rank inverts enumeration: rank equals list position."""
    for dim in range(1, 5):
        for degree in range(0, 7):
            for pos, idx in enumerate(enumerate_basis(dim, degree)):
                assert degree_lex_rank(idx) == pos


def test_rank_rejects_bad_indices():
    """Empty and negative multi-indices have no position."""
    with pytest.raises(ValueError):
        degree_lex_rank(())
    with pytest.raises(ValueError):
        degree_lex_rank((1, -1))


def test_ranks_of_sums_match_positions(monkeypatch):
    """Ranks of pairwise sums, tabulated or summed first, equal list positions."""
    for dim in (1, 2, 3, 5, 6, 10):
        labels = enumerate_basis(dim, 3)
        position = {idx: pos for pos, idx in enumerate(enumerate_basis(dim, 6))}
        expected = [
            [position[tuple(a + b for a, b in zip(x, y))] for y in labels]
            for x in labels
        ]
        assert degree_lex_pair_ranks(labels, labels).tolist() == expected
        for r, x in enumerate(labels):
            assert degree_lex_pair_ranks([x], [labels[-1 - r]]).tolist() == [[expected[r][-1 - r]]]
        assert degree_lex_ranks(labels).tolist() == list(range(len(labels)))
        grid = np.array(labels)
        assert degree_lex_ranks(grid[:, None] + grid[None, :]).tolist() == expected
    # Blocks of 7 pairs: every plan spans many blocks and most end in a ragged
    # one; the last right operand steps backwards along an axis, as extension_plan's do.
    monkeypatch.setattr(indexing, "PAIR_BLOCK_ENTRIES", 7)
    for dim in (1, 2, 3, 5):
        labels = enumerate_basis(dim, 3)
        position = {idx: pos for pos, idx in enumerate(enumerate_basis(dim, 6))}
        unit = np.eye(dim, dtype=int)[-1]
        pairs = [
            (labels, labels),
            (labels, [p * unit for p in range(2)]),
            ([x for x in labels if x[-1] >= 2], [-k * unit for k in (1, 2)]),
        ]
        for left, right in pairs:
            expected = [[position[tuple(np.add(x, y).tolist())] for y in right] for x in left]
            assert degree_lex_pair_ranks(left, right).tolist() == expected


def test_basis_size_binomial():
    """Basis size is C(degree + dim, dim)."""
    for dim in range(1, 5):
        for degree in range(0, 7):
            expected = math.comb(degree + dim, dim)
            assert basis_size(dim, degree) == expected
            assert len(list(iter_basis(dim, degree))) == expected


def test_iter_basis_matches_enumerate():
    """The generator and the tuple constructor agree."""
    assert list(iter_basis(3, 4)) == enumerate_basis(3, 4)


@pytest.fixture
def empty_store(monkeypatch):
    """A fresh, empty plan store for one test."""
    monkeypatch.setattr(indexing, "_plans", OrderedDict())
    monkeypatch.setattr(indexing, "_plans_entries", 0)
    return indexing._plans


def test_plans_match_direct_ranks(empty_store):
    """Each plan holds the ranks its definition names, as int32."""
    for dim in (1, 2, 3):
        basis = np.array(enumerate_basis(dim, 6))
        labels = basis[: basis_size(dim, 2)]
        assert basis_labels(dim, 2) == tuple(enumerate_basis(dim, 2))
        assert moment_plan(dim, 2).tolist() == degree_lex_pair_ranks(labels, labels).tolist()
        gammas = ((0,) * dim, (2,) + (0,) * (dim - 1))
        assert shift_plan(dim, gammas, 3).tolist() == degree_lex_pair_ranks(
            np.array(gammas), basis[: basis_size(dim, 3)]
        ).tolist()
        for axis in range(dim):
            unit = np.eye(dim, dtype=int)[axis]
            for k in (1, 2):
                # an order-k fit on degree-5 data reads i + p*e_axis, p <= k, for |i| <= 5 - k
                steps = tuple(tuple((p * unit).tolist()) for p in range(k + 1))
                plan = shift_plan(dim, steps, 5 - k)
                assert plan.shape == (k + 1, basis_size(dim, 5 - k))
                for r in range(basis_size(dim, 4 - k), basis_size(dim, 5 - k)):
                    for p in range(k + 1):
                        assert plan[p, r] == degree_lex_rank(tuple(basis[r] + p * unit))
        # recurrences of orders 2, 1, 3 filling degrees 3 .. 5 from degree-2 data
        orders = (2, 1, 3)[:dim]
        producers, *blocks = extension_plan(dim, 2, 5, orders)
        entries = basis[basis_size(dim, 2) : basis_size(dim, 5)]
        # one (windows, picks) pair per new degree block, lowest degree first
        sizes = [basis_size(dim, t) - basis_size(dim, t - 1) for t in (3, 4, 5)]
        assert [w.shape for w in blocks[::2]] == [(max(orders), dim, n) for n in sizes]
        assert [p.shape for p in blocks[1::2]] == [(n,) for n in sizes]
        windows, picks = np.concatenate(blocks[::2], axis=2), np.concatenate(blocks[1::2])
        assert producers.shape == (dim, len(entries))
        for r, entry in enumerate(entries):
            reaching = [axis for axis in range(dim) if entry[axis] >= orders[axis]]
            assert np.flatnonzero(producers[:, r]).tolist() == reaching
            # the flat position of the first reaching axis's value in a (dim, n) array
            assert picks[r] == (reaching[0] if reaching else 0) * len(entries) + r
            for axis, order in enumerate(orders):
                expected = [
                    degree_lex_rank(tuple(entry - k * np.eye(dim, dtype=int)[axis]))
                    if axis in reaching and k <= order
                    else 0
                    for k in range(1, max(orders) + 1)
                ]
                assert windows[:, axis, r].tolist() == expected
        shape = (2, 3, 1)[:dim]
        grid = grid_plan(shape)
        assert grid.shape == shape
        for idx in itertools.product(*map(range, shape)):
            assert grid[idx] == degree_lex_rank(idx)
    # extension_plan's right operands are negative: -k * e_axis, k = 1 .. order
    for dim in (1, 2, 3, 6):
        position = {idx: pos for pos, idx in enumerate(enumerate_basis(dim, 6))}
        basis = np.array(enumerate_basis(dim, 5))
        for axis in range(dim):
            steps = -np.outer(np.arange(1, 4), np.eye(dim, dtype=int)[axis])
            rows = basis[basis[:, axis] >= 3]
            expected = [[position[tuple(row + step)] for step in steps] for row in rows]
            assert degree_lex_pair_ranks(rows, steps).tolist() == expected
    # positions are int32; basis_array holds exponents and stays intp, and the
    # extension plan's producer mask is bool
    for (name, *_), plan in empty_store.items():
        for k, array in enumerate((plan,) if isinstance(plan, np.ndarray) else plan):
            if isinstance(array, np.ndarray):
                expected = {"basis_array": np.intp, ("extension_plan", 0): bool}
                assert array.dtype == expected.get(name, expected.get((name, k), np.int32))


def test_plans_are_read_only_and_shared(empty_store):
    """A plan is built once, then handed out as the same read-only object."""
    extension = extension_plan(2, 4, 6, (2, 1))
    plans = [
        basis_array(2, 3),
        moment_plan(2, 3),
        shift_plan(2, ((1, 0), (0, 0)), 3),
        split_plan(2, 4),
        grid_plan((2, 2)),
        *extension,
    ]
    for plan in plans:
        with pytest.raises(ValueError):
            plan[0] = 7
    assert moment_plan(2, 3) is plans[1]
    again = extension_plan(2, 4, 6, (2, 1))
    assert len(again) == len(extension) and all(a is b for a, b in zip(again, extension))
    with pytest.raises(TypeError):
        basis_labels(2, 1)[0] = (5, 5)
    assert ("moment_plan", 2, 3) in empty_store


def _extension_shapes():
    """(dim, degree, target, orders) of the extensions the benchmark's workloads make.

    A constrained solve extends data of degree 2(tau + 1) by the largest deg q,
    2 for the workload's x1-cut and box; orders up to 4 in 1-3 variables cover
    its draws of at most 8 atoms. Of the grid ladder only the 3-D 5^3 and the
    4-D 3^4 rungs extend, from degrees 12 and 8 to 2(tau + 1).
    """
    shapes = [(3, 12, 26, (5, 5, 5)), (4, 8, 18, (3, 3, 3, 3))]
    for dim in (1, 2, 3):
        for orders in itertools.product(range(1, 5), repeat=dim):
            degree = 2 * (sum(orders) - dim + 1)
            shapes.append((dim, degree, degree + 2, orders))
    return shapes


def _module_caches():
    """The size of every module-level container and functools cache of the package."""
    sizes = {}
    for name, module in list(sys.modules.items()):
        if name != "momentrec" and not name.startswith("momentrec."):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, (dict, list, set)) and value is not indexing._plans:
                sizes[name, attr] = len(value)
            if callable(getattr(value, "cache_info", None)):
                sizes[name, attr, "cache"] = value.cache_info().currsize
    return sizes


def test_the_extension_plan_is_stored_once_as_its_blocks(empty_store):
    """Each workload shape's plan is one store entry of no more entries than the layout of
    one (width, dim, n) window array, a (dim, n) producer mask and an (n,) lowest axis held;
    extending a sequence keeps nothing outside the store."""
    for shape in _extension_shapes():
        dim, degree, target, orders = shape
        n = basis_size(dim, target) - basis_size(dim, degree)
        plan = extension_plan(*shape)
        assert empty_store[("extension_plan", *shape)] is plan
        assert extension_plan(*shape) is plan
        assert indexing._entries(plan) <= n * (max(orders) * dim + dim + 1)
        # the windows and picks hold one entry per new entry and per (window, axis) slot
        assert sum(map(np.size, plan[1:])) == n * (max(orders) * dim + 1)
    # the other entries are only the bases and binomial terms the plans are built from
    assert {key[0] for key in empty_store} == {"extension_plan", "basis_array", "_rank_terms"}
    assert indexing._plans_entries == sum(map(indexing._entries, empty_store.values()))

    before = _module_caches()
    points = (0.5, -0.25, 0.75, -0.5, 0.125)
    for dim, degree, target, orders in _extension_shapes()[:: 7]:
        grid = list(itertools.product(*(points[:order] for order in orders)))
        measure = AtomicMeasure(dim, tuple(grid), (1.0,) * len(grid))
        roots = [UnivariatePoly.from_roots(points[:order]) for order in orders]
        extended = extend_sequence(
            evaluate_moments(measure, degree), CharacteristicSystem.from_polys(roots), target
        )
        assert extended.max_degree == target
    assert _module_caches() == before


def test_no_variable_reaches_a_new_entry_only_below_the_order_sum():
    """Some new entry has every i_l < orders[l] exactly where the data degree is below
    sum(orders) - dim, the rule by which an extension tells that one exists."""
    for dim, orders in ((1, (3,)), (2, (2, 3)), (3, (2, 1, 3)), (3, (1, 1, 1))):
        for degree in range(0, 7):
            producers = extension_plan(dim, degree, degree + 2, orders)[0]
            orphans = bool((~producers.any(axis=0)).any())
            assert orphans == (degree < sum(orders) - dim)


def test_oversized_plan_is_not_retained(empty_store, monkeypatch):
    """A plan larger than the whole store is built for its call, and evicts nothing."""
    monkeypatch.setattr(indexing, "PLAN_STORE_LIMIT", 1000)
    basis_array(3, 4)
    moment_plan(3, 2)
    indexing._rank_terms(3, 8)  # the binomial terms M(4)'s plan is summed from
    kept = dict(empty_store)
    entries = indexing._plans_entries
    assert basis_size(3, 4) ** 2 > 1000 >= entries
    first = moment_plan(3, 4)
    assert first.tolist() == degree_lex_pair_ranks(basis_array(3, 4), basis_array(3, 4)).tolist()
    assert set(empty_store) == set(kept)
    assert all(empty_store[key] is plan for key, plan in kept.items())
    assert indexing._plans_entries == entries
    assert moment_plan(3, 4) is not first
    assert moment_plan(3, 2) is kept[("moment_plan", 3, 2)]


def test_empty_plan_is_not_retained(empty_store):
    """A plan of no entries is built for its call and leaves the store as it was."""
    indexing._rank_terms(2, 0)  # the binomial terms the plan is summed from
    kept = dict(empty_store)
    entries = indexing._plans_entries
    plan = shift_plan(2, ((0, 0),), -1)
    assert plan.shape == (1, 0)
    assert empty_store == kept and indexing._plans_entries == entries


def test_bases_are_kept_whatever_their_size(empty_store):
    """The 5-D basis of degree 22 (403,650 entries) is kept, within the store's limit."""
    assert basis_size(5, 22) * 5 <= PLAN_STORE_LIMIT
    assert basis_array(5, 22) is basis_array(5, 22)
    assert ("basis_array", 5) in empty_store
    assert indexing._plans_entries == sum(map(indexing._entries, empty_store.values()))
    assert indexing._plans_entries <= PLAN_STORE_LIMIT


def test_lower_degree_bases_are_prefix_views(empty_store):
    """One basis is kept per dimension: a higher degree replaces a lower one and serves it."""
    low = basis_array(5, 20)
    assert empty_store[("basis_array", 5)] is low
    high = basis_array(5, 22)
    assert empty_store[("basis_array", 5)] is high
    assert np.shares_memory(basis_array(5, 20), basis_array(5, 22))
    assert np.array_equal(basis_array(5, 20), low) and basis_array(5, 21).base is high
    with pytest.raises(ValueError):
        basis_array(5, 21)[0, 0] = 1
    assert basis_array(5, 22) is high
    assert indexing._plans_entries == sum(map(indexing._entries, empty_store.values()))


def test_a_degree_0_detection_leaves_the_kept_bases_whole(empty_store):
    """Detecting on one moment asks for the basis of degree -1; no later basis suffers."""
    with pytest.raises(NoRecurrenceError):
        detect_minimal_recurrence(TruncatedSequence(2, 0, [1.0]), axis=0)
    for dim in (1, 2):
        assert basis_array(dim, 3).tolist() == [list(idx) for idx in brute_force_basis(dim, 3)]
    assert basis_array(2, -1).shape == (0, 2)
    assert basis_array(2, 0).tolist() == [[0, 0]]


def test_split_plan_places_each_tuple_by_head_and_last_exponent(empty_store):
    """Entry i is rank(head) * (degree + 1) + a_last, the head ranked in one variable fewer."""
    for dim in (1, 2, 3, 4):
        basis = enumerate_basis(dim, 5)
        heads = {(): 0}
        if dim > 1:
            heads = {idx: pos for pos, idx in enumerate(enumerate_basis(dim - 1, 5))}
        expected = [heads[idx[:-1]] * 6 + idx[-1] for idx in basis]
        plan = split_plan(dim, 5)
        assert plan.dtype == np.int32 and plan.tolist() == expected


def test_store_drops_least_recently_used(empty_store, monkeypatch):
    """Past the store limit the plans used longest ago leave first."""
    monkeypatch.setattr(indexing, "PLAN_STORE_LIMIT", 10)
    # a table that reads no other kept table: terms of tuples up to degree k, k + 1 entries
    terms = indexing._rank_terms
    terms(1, 3)
    terms(1, 4)
    terms(1, 3)  # now the more recent of the two
    terms(1, 2)  # 4 + 5 + 3 entries: over the limit
    assert list(empty_store) == [("_rank_terms", 1, 3), ("_rank_terms", 1, 2)]
    assert indexing._plans_entries == 7


def test_store_count_survives_threads(empty_store, monkeypatch):
    """Concurrent lookups with evictions keep the entry count exact."""
    monkeypatch.setattr(indexing, "PLAN_STORE_LIMIT", 400)
    errors = []

    def work(offset):
        try:
            for k in range(200):
                grid_plan((1 + (k + offset) % 37,))
                moment_plan(1 + k % 3, (k + offset) % 4)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(7 * i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert indexing._plans_entries == sum(map(indexing._entries, empty_store.values()))
    assert indexing._plans_entries <= 400


def test_int32_guard_allocates_nothing_large():
    """A basis of 2^31 monomials or more is refused before anything is built."""
    assert basis_size(3, 3000) >= 2**31 > basis_size(3, 2000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="int32"):
            degree_lex_pair_ranks([[2000, 0, 0]], [[1000, 0, 0]])
        with pytest.raises(ValueError, match="int32"):
            basis_array(3, 3000)
        # passes the guard: only the rank terms to degree 1900 and the 1 x 1 result are made
        rank = degree_lex_pair_ranks([[1000, 0, 0]], [[900, 0, 0]])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert rank.tolist() == [[degree_lex_rank((1900, 0, 0))]]


def test_pair_counts_give_the_frobenius_norm():
    """pair_counts is the moment plan's bincount, so ||M||_F^2 = sum_t counts[t] * x_t^2."""
    for dim in range(1, 6):
        for order in range(7 if dim < 5 else 4):
            plan = moment_plan(dim, order)
            expected = np.bincount(plan.ravel(), minlength=basis_size(dim, 2 * order))
            assert np.array_equal(pair_counts(dim, order), expected)
    x = np.random.default_rng(3).standard_normal(basis_size(3, 10))
    counts = pair_counts(3, 5)
    assert counts.sum() == basis_size(3, 5) ** 2
    assert math.isclose(counts @ (x * x), np.sum(x[moment_plan(3, 5)] ** 2), rel_tol=1e-13)
