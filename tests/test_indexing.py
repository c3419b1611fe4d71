"""Degree-lex ordering against a brute-force enumeration oracle."""

import itertools
import math
import sys
import threading
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from momentrec import indexing
from momentrec.indexing import (
    PLAN_RETAIN_LIMIT,
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
    total_degree,
    window_plan,
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


def test_ranks_of_sums_match_positions():
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
            window = window_plan(dim, 5, axis)
            for r, idx in enumerate(basis[: basis_size(dim, 4)]):
                for p in range(3):
                    assert window[r, p] == degree_lex_rank(tuple(idx + p * np.eye(dim, dtype=int)[axis]))
            rows, ranks = extension_plan(dim, 4, axis, 2)
            block = basis[basis_size(dim, 3) : basis_size(dim, 4)]
            assert rows.tolist() == np.flatnonzero(block[:, axis] >= 2).tolist()
            for row, window_row in zip(rows, ranks):
                for k in (1, 2):
                    shifted = block[row] - k * np.eye(dim, dtype=int)[axis]
                    assert window_row[k - 1] == degree_lex_rank(tuple(shifted))
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
    # positions are int32; basis_array holds exponents and stays intp
    for (name, *_), plan in empty_store.items():
        for array in (plan,) if isinstance(plan, np.ndarray) else plan:
            if isinstance(array, np.ndarray):
                assert array.dtype == (np.intp if name == "basis_array" else np.int32)


def test_plans_are_read_only_and_shared(empty_store):
    """A plan is built once, then handed out as the same read-only object."""
    plans = [
        basis_array(2, 3),
        moment_plan(2, 3),
        shift_plan(2, ((1, 0), (0, 0)), 3),
        window_plan(2, 6, 1),
        grid_plan((2, 2)),
        *extension_plan(2, 5, 0, 2),
    ]
    for plan in plans:
        with pytest.raises(ValueError):
            plan[0] = 7
    assert moment_plan(2, 3) is plans[1]
    assert extension_plan(2, 5, 0, 2)[1] is plans[-1]
    with pytest.raises(TypeError):
        basis_labels(2, 1)[0] = (5, 5)
    assert ("moment_plan", 2, 3) in empty_store


def test_oversized_plan_is_not_retained(empty_store):
    """M(16) in 3-D has 969^2 > PLAN_RETAIN_LIMIT entries: built, then dropped."""
    assert basis_size(3, 16) ** 2 > PLAN_RETAIN_LIMIT
    first = moment_plan(3, 16)
    assert ("moment_plan", 3, 16) not in empty_store
    assert moment_plan(3, 16) is not first
    assert np.array_equal(moment_plan(3, 16), first)
    assert moment_plan(3, 4) is moment_plan(3, 4)
    assert indexing._plans_entries == sum(map(indexing._entries, empty_store.values()))
    assert indexing._plans_entries <= PLAN_STORE_LIMIT


def test_store_drops_least_recently_used(empty_store, monkeypatch):
    """Past the store limit the plans used longest ago leave first."""
    monkeypatch.setattr(indexing, "PLAN_STORE_LIMIT", 10)
    grid_plan((4,))
    grid_plan((5,))
    grid_plan((4,))  # now the more recent of the two
    grid_plan((3,))  # 4 + 5 + 3 entries: over the limit
    assert list(empty_store) == [("grid_plan", (4,)), ("grid_plan", (3,))]
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
        # passes the guard with wide suffix sums: tables stay within the 1 x 1 result
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
