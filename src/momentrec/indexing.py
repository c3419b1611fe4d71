"""Multi-index bookkeeping for the graded lexicographic monomial basis.

Monomials x^i are identified with exponent tuples i = (i_1, ..., i_d). The
basis order used everywhere in this package is degree-lex: ascending total
degree, and within a degree block descending powers of x_1, then x_2, and so
on. For d = 2 this reads 1; x1; x2; x1^2; x1*x2; x2^2; ...

Every gather the package makes from a degree-lex array (moment matrices,
shifted sequences, recurrence fits, extension steps, the Binet initial
block) or into one (the moments of a measure and of an expansion, from
their head-by-last-power tables) reads a *plan*: a read-only int32 array of
positions that depends only on the shape (dimension, degrees, axis,
recurrence orders, exponents of q), never on the data. The basis arrays
behind them, which numpy builds one degree block at a time from the basis
in one variable fewer, are kept the same way as intp exponents, and so are
the binomial terms the positions are summed from. Each plan and basis is
computed once per process and kept for later solves; together they hold at
most ``PLAN_STORE_LIMIT`` = 2^22 entries, the least recently used leaving
first. One basis array is kept per dimension, since it has one row per
moment and so is no larger than the data it indexes: the highest degree
asked for, whose prefixes are the lower degrees' bases. The label index
that maps each exponent tuple to its position, which every sequence's
``values`` reads, is kept the same way, one per dimension. A plan or basis
that is empty or larger than the whole store is built for its call and
leaves the store as it was.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from collections.abc import Iterator
from functools import wraps

import numpy as np

MultiIndex = tuple[int, ...]

# All kept plans and bases together, in entries: 4 bytes each, 8 in basis arrays.
PLAN_STORE_LIMIT = 1 << 22
# degree_lex_pair_ranks adds the terms of this many (i, j) pairs at a time.
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


def check_int32(dim: int, degree: int) -> None:
    """Refuse a basis of 2^31 monomials or more: int32 positions cannot index it."""
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


def degree_lex_pair_ranks(left, right) -> np.ndarray:
    """(n, m) int32 degree-lex positions of left[i] + right[j] for (n, d) and (m, d) inputs.

    The position of a tuple is sum_c terms[c, s_c] over its suffix sums s_c,
    and suffix sums add: entry (i, j) is sum_c terms[c, a_c + b_c], with a
    and b the suffix sums of left[i] and right[j]. The terms are added one
    axis at a time into the result, PAIR_BLOCK_ENTRIES pairs at a time, so
    the result is the only (n, m) array. A negative exponent is allowed
    where every sum is a valid tuple.
    """
    a = np.cumsum(np.asarray(left, dtype=np.intp)[:, ::-1], axis=1)[:, ::-1]
    b = np.cumsum(np.asarray(right, dtype=np.intp)[:, ::-1], axis=1)[:, ::-1]
    terms = _rank_terms(a.shape[1], int(a[:, 0].max(initial=0) + b[:, 0].max(initial=0)))
    rank = np.zeros((len(a), len(b)), dtype=np.int32)
    step = max(1, PAIR_BLOCK_ENTRIES // max(1, len(b)))
    for row in range(0, len(a), step):
        for c in range(a.shape[1]):
            rank[row : row + step] += terms[c][np.add.outer(a[row : row + step, c], b[:, c])]
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
    """Integers held by a plan: an array, a tuple of arrays or of tuples, or a
    label index (each label's exponents and its position)."""
    if isinstance(plan, np.ndarray):
        return plan.size
    if isinstance(plan, dict):
        return len(plan) * (1 + len(next(iter(plan), ())))
    return sum(p.size if isinstance(p, np.ndarray) else len(p) for p in plan)


def _store(key, plan) -> None:
    """Keep a read-only plan, in place of any under its key; the caller holds the lock."""
    global _plans_entries
    if key in _plans:
        _plans_entries -= _entries(_plans.pop(key))
    _plans[key] = plan
    _plans_entries += _entries(plan)
    while _plans_entries > PLAN_STORE_LIMIT:
        _plans_entries -= _entries(_plans.popitem(last=False)[1])


def _read_only(plan):
    for array in (plan,) if isinstance(plan, np.ndarray) else plan:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return plan


def _plan(build):
    """Memoize a plan builder in the shared store, within its limit."""

    name = build.__name__

    @wraps(build)
    def lookup(*shape):
        key = (name, *shape)
        with _plans_lock:
            plan = _plans.get(key)
            if plan is not None:
                _plans.move_to_end(key)
                return plan
        plan = _read_only(build(*shape))
        if 0 < _entries(plan) <= PLAN_STORE_LIMIT:
            with _plans_lock:
                _store(key, plan)
        return plan

    return lookup


@_plan
def _rank_terms(dim: int, top: int) -> np.ndarray:
    """terms[c, s] = C(s + d - c - 1, d - c); the position of i is sum_c terms[c, s_c].

    With suffix sums s_c = i_c + ... + i_{d-1}, term c counts the tuples that
    agree with i before axis c and have a smaller suffix sum from axis c on
    (term 0: every tuple of lower total degree).
    """
    check_int32(dim, top)
    return np.array(
        [[math.comb(s + dim - c - 1, dim - c) for s in range(top + 1)] for c in range(dim)],
        dtype=np.int32,
    )


def _per_dimension(name: str, dim: int, degree: int, build):
    """The kept ``name`` of dimension dim if it covers the degree, else build(dim, degree).

    One is kept per dimension, whatever its size: the highest degree asked
    for so far, replaced by the one that outgrows it. An empty one (degree
    < 0) is never kept.
    """
    size = basis_size(dim, degree)
    key = (name, dim)
    with _plans_lock:
        kept = _plans.get(key)
        if kept is not None and len(kept) >= size:
            _plans.move_to_end(key)
            return kept
    made = build(dim, degree)
    if 0 < _entries(made) <= PLAN_STORE_LIMIT:
        with _plans_lock:
            kept = _plans.get(key)
            if kept is None or len(kept) < size:
                _store(key, made)
    return made


def basis_array(dim: int, degree: int) -> np.ndarray:
    """The degree-lex basis as an (n, dim) array; lower degrees are prefixes.

    The kept basis of the dimension serves every lower degree as a read-only
    prefix view.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    check_int32(dim, degree)
    basis = _per_dimension("basis_array", dim, degree, _build_basis)
    size = basis_size(dim, degree)
    return basis if len(basis) == size else basis[:size]


def label_index(dim: int, degree: int) -> dict[MultiIndex, int]:
    """Each label's degree-lex position, for every label of degree <= degree and maybe more.

    Kept per dimension like ``basis_array``, in degree-lex insertion order: the
    labels of a lower degree are its first basis_size(dim, degree) keys, and
    a label of higher degree has a position at or past that size, which a
    caller reading the lower degree must refuse. The dict is shared, so
    callers must not change it.
    """
    return _per_dimension("label_index", dim, degree, _build_index)


def _build_index(dim: int, degree: int) -> dict[MultiIndex, int]:
    labels = map(tuple, basis_array(dim, degree).tolist())
    return {label: position for position, label in enumerate(labels)}


def _build_basis(dim: int, degree: int) -> np.ndarray:
    """Block t stacks (t - |j|, j) over the (dim - 1)-variable basis j of degree <= t.

    Exponents stay intp: numpy casts any other index dtype on every gather
    (int32 exponents made evaluate_moments about 40% slower).
    """
    if dim == 1:
        return _read_only(np.arange(degree + 1, dtype=np.intp)[:, None])
    rest = basis_array(dim - 1, degree)
    rest_degree = rest.sum(axis=1)
    block, row = np.nonzero(rest_degree <= np.arange(degree + 1)[:, None])
    basis = np.empty((len(row), dim), dtype=np.intp)
    basis[:, 0] = block - rest_degree[row]
    basis[:, 1:] = rest[row]
    return _read_only(basis)


@_plan
def basis_labels(dim: int, degree: int) -> tuple[MultiIndex, ...]:
    """basis_array as tuples: the labels of M(degree), the keys of a sequence."""
    return tuple(itertools.islice(label_index(dim, degree), basis_size(dim, degree)))


@_plan
def split_plan(dim: int, degree: int) -> np.ndarray:
    """Each degree-lex exponent a, |a| <= degree, split into its head and last exponent.

    Entry i is h * (degree + 1) + a_last for the i-th tuple a = (head, a_last),
    h the degree-lex rank of the head among the (dim - 1)-variable tuples: the
    position of x^a in a (heads, degree + 1) table of head values times the
    powers of the last variable. In one variable every head is the empty tuple.
    """
    table = basis_size(dim - 1, degree) * (degree + 1)
    if table >= _INT32_BASIS:
        raise ValueError(f"a head table of {table} entries: int32 positions stop at 2^31")
    exponents = basis_array(dim, degree)
    # the head's rank is sum_c terms[c, s_c] over its suffix sums s_c, summed
    # one axis at a time so no (n, dim) temporary is made
    suffix = np.zeros(len(exponents), dtype=np.intp)
    heads = np.zeros(len(exponents), dtype=np.int32)
    for c in range(dim - 2, -1, -1):
        suffix += exponents[:, c]
        heads += _rank_terms(dim - 1, degree)[c, suffix]
    return heads * np.int32(degree + 1) + exponents[:, -1].astype(np.int32)


@_plan
def moment_plan(dim: int, order: int) -> np.ndarray:
    """M(order)'s positions: entry (r, c) is the rank of label r + label c."""
    labels = basis_array(dim, order)
    return degree_lex_pair_ranks(labels, labels)


@_plan
def diagonal_plan(dim: int, order: int) -> np.ndarray:
    """M(order)'s diagonal positions: the rank of 2a for each label a."""
    return degree_lex_ranks(2 * basis_array(dim, order)).astype(np.int32)


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
def axis_steps(dim: int, axis: int, count: int) -> tuple[MultiIndex, ...]:
    """The exponents j e_axis, j = 0 .. count - 1: the shifts of a recurrence fit along it."""
    return tuple([(0,) * axis + (j,) + (0,) * (dim - axis - 1) for j in range(count)])


@_plan
def marginal_plan(dim: int, degree: int, order: int) -> np.ndarray:
    """Every variable's marginal Hankel: entry [l, j, s] is the rank of (j + s) e_l.

    Shape (dim, degree - order + 1, order + 1): row j of variable l's block
    holds the pure powers x_l^j .. x_l^(j + order).
    """
    powers = np.add.outer(np.arange(degree - order + 1), np.arange(order + 1))
    exponents = np.eye(dim, dtype=np.intp)[:, None, None, :] * powers[None, :, :, None]
    return degree_lex_ranks(exponents).astype(np.int32)


@_plan
def extension_plan(
    dim: int, degree: int, target: int, orders: tuple[int, ...]
) -> tuple[np.ndarray, ...]:
    """Where one recurrence per axis, of the given orders, fills degrees degree + 1 .. target.

    Returns (producers, windows_1, picks_1, windows_2, picks_2, ...) over the
    n new entries i, in degree-lex order, with one (windows, picks) pair per
    new degree block, lowest degree first, over its n_t entries:

    - producers (dim, n), bool: i_l >= orders[l], the axes whose recurrence
      reaches i;
    - windows (width, dim, n_t), width = max(orders): entry [k, l, r] is the
      rank of i - (k + 1) e_l where i_l >= orders[l] and k < orders[l], and
      0 (beta_0) elsewhere;
    - picks (n_t,): the flat position, in a C-ordered (dim, n) array of
      every axis's value for every new entry, of the value of the first axis
      that reaches i (axis 0 where none does).

    A block is stored as the arrays its fill reads, so a fill takes no slice.
    """
    known = basis_size(dim, degree)
    entries = basis_array(dim, target)[known:]
    if dim * len(entries) >= _INT32_BASIS:
        raise ValueError(
            f"{dim} values for each of {len(entries)} new entries: int32 positions stop at 2^31"
        )
    producers = (entries >= np.array(orders)).T
    windows = np.zeros((max(orders), dim, len(entries)), dtype=np.int32)
    for axis, order in enumerate(orders):
        steps = np.outer(np.arange(1, order + 1), np.eye(dim, dtype=np.intp)[axis])
        rows = producers[axis]
        windows[:order, axis, rows] = degree_lex_pair_ranks(entries[rows], -steps).T
    picks = producers.argmax(axis=0) * len(entries) + np.arange(len(entries))
    plan = [producers]
    for t in range(degree + 1, target + 1):
        block = slice(basis_size(dim, t - 1) - known, basis_size(dim, t) - known)
        plan += [windows[:, :, block].copy(), picks[block].astype(np.int32)]
    return tuple(plan)


@_plan
def grid_plan(shape: tuple[int, ...]) -> np.ndarray:
    """Ranks of the grid prod_l {0 .. shape_l - 1}, as an array of that shape."""
    grid = np.moveaxis(np.indices(shape), 0, -1)
    return degree_lex_ranks(grid).astype(np.int32)
