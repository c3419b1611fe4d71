"""Degree-lex ordering against a brute-force enumeration oracle."""

import itertools
import math

import numpy as np
import pytest

from momentrec.indexing import (
    basis_size,
    degree_lex_pair_ranks,
    degree_lex_rank,
    degree_lex_ranks,
    enumerate_basis,
    iter_basis,
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
    for dim in range(1, 5):
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
    for dim in (1, 2, 3, 5):
        labels = enumerate_basis(dim, 3)
        position = {idx: pos for pos, idx in enumerate(enumerate_basis(dim, 6))}
        expected = [
            [position[tuple(a + b for a, b in zip(x, y))] for y in labels]
            for x in labels
        ]
        assert degree_lex_pair_ranks(labels, labels).tolist() == expected
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
