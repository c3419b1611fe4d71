"""Multi-index bookkeeping for the graded lexicographic monomial basis.

Monomials x^i are identified with exponent tuples i = (i_1, ..., i_d). The
basis order used everywhere in this package is degree-lex: ascending total
degree, and within a degree block descending powers of x_1, then x_2, and so
on. For d = 2 this reads 1; x1; x2; x1^2; x1*x2; x2^2; ...

Every gather the package makes from a degree-lex array (moment matrices,
shifted sequences, recurrence windows, extension steps, the Binet initial
block) reads a *plan*: a read-only int32 array of positions that depends only
on the shape (dimension, degrees, axis, exponents of q), never on the data.
The basis arrays behind them, which numpy builds one degree block at a time
from the basis in one variable fewer, are kept the same way as intp exponents.
Each plan is computed once per process and kept for later solves, unless it
holds more than ``PLAN_RETAIN_LIMIT`` = 2^18 entries: such a plan is built
for its call and dropped. Retained plans together hold at most
``PLAN_STORE_LIMIT`` = 2^22 entries, the least recently used leaving first.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from collections.abc import Iterator
from functools import lru_cache, wraps

import numpy as np

MultiIndex = tuple[int, ...]

# A plan above this many entries is built for its call and dropped, so one
# 5-D 3^5 solve does not pin a 76 MB table. A solve builds such moment plans
# only where the recovered measure's bracket leaves a check to eigvalsh
# (``moments.moment_bracket``); keeping them (a limit of 2^20) raised the
# grid benchmark's peak RSS from 69 to 75 MB when every solve built M(tau+1).
PLAN_RETAIN_LIMIT = 1 << 18
# All retained plans together, in entries: 4 bytes each, 8 in basis arrays.
PLAN_STORE_LIMIT = 1 << 22
# degree_lex_pair_ranks sums keys and gathers this many (i, j) pairs at a time.
PAIR_BLOCK_ENTRIES = 1 << 15
# Positions are int32, so a basis of 2^31 monomials or more is refused.
_INT32_BASIS = 1 << 31

_plans: OrderedDict = OrderedDict()
_plans_entries = 0
_plans_lock = threading.Lock()


def total_degree(index: MultiIndex) -> int:
    return sum(index)


def basis_size(dim: int, degree: int) -> int:
    """Number of monomials in d variables of total degree <= degree."""
    if degree < 0:
        return 0
    return math.comb(degree + dim, dim)


def _check_int32(dim: int, degree: int) -> None:
    if basis_size(dim, degree) >= _INT32_BASIS:
        raise ValueError(
            f"the degree-lex basis of degree {degree} in {dim} variables has "
            f"{basis_size(dim, degree)} monomials; int32 positions stop at 2^31"
        )


def iter_basis(dim: int, degree: int) -> Iterator[MultiIndex]:
    """Iterate over all exponent tuples with total degree <= degree, degree-lex order."""
    return iter(basis_labels(dim, degree))


def enumerate_basis(dim: int, degree: int) -> list[MultiIndex]:
    """Degree-lex ordered list of all exponent tuples of total degree <= degree."""
    return list(basis_labels(dim, degree))


@lru_cache(maxsize=64)
def _rank_terms(dim: int, top: int) -> np.ndarray:
    """terms[c, s] = C(s + d - c - 1, d - c); the position of i is sum_c terms[c, s_c].

    With suffix sums s_c = i_c + ... + i_{d-1}, term c counts the tuples that
    agree with i before axis c and have a smaller suffix sum from axis c on
    (term 0: every tuple of lower total degree).
    """
    _check_int32(dim, top)
    terms = np.array(
        [[math.comb(s + dim - c - 1, dim - c) for s in range(top + 1)] for c in range(dim)],
        dtype=np.int32,
    )
    terms.flags.writeable = False
    return terms


def degree_lex_pair_ranks(left, right) -> np.ndarray:
    """(n, m) int32 degree-lex positions of left[i] + right[j] for (n, d) and (m, d) inputs.

    The position of a tuple is sum_c terms[c, s_c] over its suffix sums s_c,
    and suffix sums add. So does a mixed-radix key over the suffix sums of a
    group of consecutive axes, and one table indexed by that key holds the
    group's summed terms: a group costs one key sum and one gather per pair.
    Each group is as wide as its table allows within n * m entries, so a
    moment plan in 1-3 variables is one gather and no table outgrows the
    result; keys are formed PAIR_BLOCK_ENTRIES pairs at a time, so the result
    is the only (n, m) array. A negative exponent is allowed where every sum
    is a valid tuple.
    """
    a = np.cumsum(np.asarray(left, dtype=np.intp)[:, ::-1], axis=1)[:, ::-1]
    b = np.cumsum(np.asarray(right, dtype=np.intp)[:, ::-1], axis=1)[:, ::-1]
    terms = _rank_terms(a.shape[1], int(a[:, 0].max(initial=0) + b[:, 0].max(initial=0)))
    rank = np.zeros((len(a), len(b)), dtype=np.int32)
    if rank.size == 0:
        return rank
    a_low, b_low = a.min(axis=0), b.min(axis=0)
    a -= a_low
    b -= b_low
    low = (a_low + b_low).tolist()
    width = (a.max(axis=0) + b.max(axis=0) + 1).tolist()
    step = max(1, PAIR_BLOCK_ENTRIES // len(b))
    start = 0
    while start < len(width):
        stop, entries = start + 1, width[start]
        while stop < len(width) and entries * width[stop] <= rank.size:
            entries *= width[stop]
            stop += 1
        # Every sum s_c lies in low[c] .. low[c] + width[c] - 1, one digit of the key.
        table = terms[start, low[start] : low[start] + width[start]]
        for c in range(start + 1, stop):
            table = np.add.outer(table, terms[c, low[c] : low[c] + width[c]])
        radix = np.cumprod([1] + width[stop - 1 : start : -1])[::-1]
        table = table.ravel()
        row_keys, column_keys = a[:, start:stop] @ radix, b[:, start:stop] @ radix
        for row in range(0, len(a), step):
            rank[row : row + step] += table[np.add.outer(row_keys[row : row + step], column_keys)]
        start = stop
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


def _entries(plan) -> int:
    """Integers held by a plan: an array, or a tuple of arrays or of tuples."""
    if isinstance(plan, np.ndarray):
        return plan.size
    return sum(p.size if isinstance(p, np.ndarray) else len(p) for p in plan)


def _plan(build):
    """Memoize a plan builder in the shared store, within the two limits."""

    @wraps(build)
    def lookup(*shape):
        global _plans_entries
        key = (build.__name__,) + shape
        with _plans_lock:
            plan = _plans.get(key)
            if plan is not None:
                _plans.move_to_end(key)
                return plan
        plan = build(*shape)
        for array in (plan,) if isinstance(plan, np.ndarray) else plan:
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        size = _entries(plan)
        if size <= PLAN_RETAIN_LIMIT:
            with _plans_lock:
                if key not in _plans:
                    _plans[key] = plan
                    _plans_entries += size
                while _plans_entries > PLAN_STORE_LIMIT:
                    _plans_entries -= _entries(_plans.popitem(last=False)[1])
        return plan

    return lookup


@_plan
def basis_array(dim: int, degree: int) -> np.ndarray:
    """The degree-lex basis as an (n, dim) array; lower degrees are prefixes.

    Block t stacks (t - |j|, j) over the (dim - 1)-variable basis j of degree
    <= t. Exponents stay intp: numpy casts any other index dtype on every
    gather (int32 exponents made evaluate_moments about 40% slower).
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    _check_int32(dim, degree)
    if dim == 1:
        return np.arange(degree + 1, dtype=np.intp)[:, None]
    rest = basis_array(dim - 1, degree)
    rest_degree = rest.sum(axis=1)
    block, row = np.nonzero(rest_degree <= np.arange(degree + 1)[:, None])
    return np.column_stack((block - rest_degree[row], rest[row]))


@_plan
def basis_labels(dim: int, degree: int) -> tuple[MultiIndex, ...]:
    """basis_array as tuples: the labels of M(degree), the keys of a sequence."""
    return tuple(map(tuple, basis_array(dim, degree).tolist()))


@_plan
def moment_plan(dim: int, order: int) -> np.ndarray:
    """M(order)'s positions: entry (r, c) is the rank of label r + label c."""
    labels = basis_array(dim, order)
    return degree_lex_pair_ranks(labels, labels)


@_plan
def pair_counts(dim: int, order: int) -> np.ndarray:
    """How often each t of degree <= 2 * order is a + b over M(order)'s labels.

    So ||[x_{a+b}]||_F^2 = sum_t counts[t] x_t^2 for any sequence x. counts[t]
    is F(t, order) - F(t, |t| - order - 1), with F(t, k) the number of a <= t
    with |a| <= k: by inclusion-exclusion over the axes S where a_l > t_l,
    F(t, k) = sum_S (-1)^|S| basis_size(dim, k - sum_{l in S} (t_l + 1)).
    """
    exponents = basis_array(dim, 2 * order)
    degree = exponents.sum(axis=1)
    # sizes[m + 1] = basis_size(dim, m); every m below 0 reads sizes[0] = 0
    sizes = np.array([0] + [basis_size(dim, m) for m in range(order + 1)], dtype=np.intp)
    counts = np.zeros(len(exponents), dtype=np.intp)
    for size in range(min(dim, order) + 1):
        for axes in itertools.combinations(range(dim), size):
            shift = exponents[:, axes].sum(axis=1) + size
            term = sizes[np.maximum(order - shift, -1) + 1]
            term -= sizes[np.maximum(degree - order - 1 - shift, -1) + 1]
            counts += -term if size % 2 else term
    return counts


@_plan
def shift_plan(dim: int, exponents: tuple[MultiIndex, ...], degree: int) -> np.ndarray:
    """Row g holds the ranks of exponents[g] + i for every |i| <= degree."""
    gammas = np.array(exponents, dtype=np.intp).reshape(-1, dim)
    return degree_lex_pair_ranks(gammas, basis_array(dim, degree))


@_plan
def window_plan(dim: int, degree: int, axis: int) -> np.ndarray:
    """Detection window of a degree-``degree`` sequence along one axis.

    Row r holds the ranks of i + p*e_axis, p = 0 .. degree // 2, for the r-th
    tuple i with |i| < degree; past ``degree`` they run off the array.
    """
    steps = np.outer(np.arange(degree // 2 + 1), np.eye(dim, dtype=np.intp)[axis])
    return degree_lex_pair_ranks(basis_array(dim, degree - 1), steps)


@_plan
def extension_plan(
    dim: int, degree: int, axis: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Where an order-``order`` recurrence along ``axis`` fills degree block ``degree``.

    Returns (rows, ranks): the positions within the block of the tuples i
    with i_axis >= order, and for each the ranks of i - k*e_axis, k = 1 .. order.
    """
    block = basis_array(dim, degree)[basis_size(dim, degree - 1) :]
    rows = np.flatnonzero(block[:, axis] >= order).astype(np.int32)
    steps = np.outer(np.arange(1, order + 1), np.eye(dim, dtype=np.intp)[axis])
    return rows, degree_lex_pair_ranks(block[rows], -steps)


@_plan
def grid_plan(shape: tuple[int, ...]) -> np.ndarray:
    """Ranks of the grid prod_l {0 .. shape_l - 1}, as an array of that shape."""
    grid = np.moveaxis(np.indices(shape), 0, -1)
    return degree_lex_ranks(grid).astype(np.int32)
