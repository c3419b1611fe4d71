"""Multi-index bookkeeping for the graded lexicographic monomial basis.

Monomials x^i are identified with exponent tuples i = (i_1, ..., i_d). The
basis order used everywhere in this package is degree-lex: ascending total
degree, and within a degree block descending powers of x_1, then x_2, and so
on. For d = 2 this reads 1; x1; x2; x1^2; x1*x2; x2^2; ...
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

MultiIndex = tuple[int, ...]


def total_degree(index: MultiIndex) -> int:
    return sum(index)


def add_indices(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def basis_size(dim: int, degree: int) -> int:
    """Number of monomials in d variables of total degree <= degree."""
    if degree < 0:
        return 0
    return math.comb(degree + dim, dim)


def _compositions(total: int, parts: int) -> Iterator[MultiIndex]:
    # descending first exponent, then recurse: the degree-lex block order
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def iter_basis(dim: int, degree: int) -> Iterator[MultiIndex]:
    """Yield all exponent tuples with total degree <= degree, degree-lex order."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    for t in range(degree + 1):
        yield from _compositions(t, dim)


def enumerate_basis(dim: int, degree: int) -> list[MultiIndex]:
    """Degree-lex ordered list of all exponent tuples of total degree <= degree."""
    return list(iter_basis(dim, degree))


@lru_cache(maxsize=128)
def basis_array(dim: int, degree: int) -> np.ndarray:
    """enumerate_basis as a read-only (n, dim) array; lower degrees are prefixes."""
    basis = np.array(enumerate_basis(dim, degree), dtype=np.intp).reshape(-1, dim)
    basis.flags.writeable = False
    return basis


@lru_cache(maxsize=64)
def _rank_terms(dim: int, top: int) -> np.ndarray:
    """terms[c, s] = C(s + d - c - 1, d - c); the position of i is sum_c terms[c, s_c].

    With suffix sums s_c = i_c + ... + i_{d-1}, term c counts the tuples that
    agree with i before axis c and have a smaller suffix sum from axis c on
    (term 0: every tuple of lower total degree).
    """
    terms = np.array(
        [[math.comb(s + dim - c - 1, dim - c) for s in range(top + 1)] for c in range(dim)]
    )
    terms.flags.writeable = False
    return terms


def degree_lex_pair_ranks(left, right) -> np.ndarray:
    """(n, m) degree-lex positions of left[i] + right[j] for (n, d) and (m, d) inputs.

    Suffix sums add, so term c is one lookup at s_c(left[i]) + s_c(right[j]):
    memory stays near two (n, m) arrays, not n * m * d summed exponents. A
    negative exponent is allowed where the sum stays a valid tuple.
    """
    a = np.cumsum(np.asarray(left, dtype=np.intp)[:, ::-1], axis=1)[:, ::-1]
    b = np.cumsum(np.asarray(right, dtype=np.intp)[:, ::-1], axis=1)[:, ::-1]
    terms = _rank_terms(a.shape[1], int(a[:, 0].max(initial=0) + b[:, 0].max(initial=0)))
    rank = 0
    for c, table in enumerate(terms):
        # int32 sums halve the one (n, m) temporary besides rank and the lookup
        rank += table[np.add.outer(a[:, c], b[:, c], dtype=np.int32)]
    return rank


def degree_lex_ranks(indices) -> np.ndarray:
    """Degree-lex positions of the exponent tuples along the last axis."""
    suffix = np.cumsum(np.asarray(indices, dtype=np.intp)[..., ::-1], axis=-1)[..., ::-1]
    dim = suffix.shape[-1]
    return _rank_terms(dim, int(suffix.max(initial=0)))[np.arange(dim), suffix].sum(axis=-1)


def degree_lex_rank(index: MultiIndex) -> int:
    """Position of an exponent tuple in the degree-lex order (0-based)."""
    if len(index) < 1:
        raise ValueError("empty multi-index")
    if any(e < 0 for e in index):
        raise ValueError(f"negative exponent in {index}")
    return int(degree_lex_ranks(index))
