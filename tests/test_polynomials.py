"""Univariate and multivariate polynomial arithmetic, lcm, and roots."""

import math
import sys
import threading

import numpy as np
import pytest

from momentrec import AtomicMeasure, TruncatedSequence, evaluate_moments, moments
from momentrec.indexing import basis_size, pair_counts, shift_plan
from momentrec.polynomials import (
    ROOT_CLUSTER_TOL,
    MultivariatePoly,
    UnivariatePoly,
    poly_roots,
    power_table,
)

from euclid import univariate_gcd, univariate_lcm

X_MINUS_1 = UnivariatePoly((-1.0, 1.0))
X_MINUS_2 = UnivariatePoly((-2.0, 1.0))


def divide_remainder_norm(num, den):
    """Max remainder coefficient of num / den by plain long division."""
    n = list(num.coeffs)
    d = list(den.coeffs)
    while len(n) >= len(d):
        q = n[-1] / d[-1]
        for k in range(len(d)):
            n[len(n) - len(d) + k] -= q * d[k]
        n.pop()
    return max(abs(c) for c in n) if n else 0.0


def test_univariate_basics():
    """Degree, evaluation, trailing-zero trimming, monic normalization."""
    p = UnivariatePoly((2.0, 0.0, 3.0, 0.0))
    assert p.degree == 2
    assert p.coeffs == (2.0, 0.0, 3.0)
    assert p.evaluate(2.0) == 14.0
    assert UnivariatePoly((0.0, 0.0)).is_zero
    assert UnivariatePoly((4.0, 2.0)).monic().coeffs == (2.0, 1.0)
    with pytest.raises(ValueError):
        UnivariatePoly((0.0,)).monic()


def test_univariate_arithmetic():
    """Product and sum against hand expansion."""
    prod = X_MINUS_1 * X_MINUS_2
    assert np.allclose(prod.coeffs, (2.0, -3.0, 1.0))
    total = X_MINUS_1 + X_MINUS_2
    assert np.allclose(total.coeffs, (-3.0, 2.0))
    diff = X_MINUS_1 - X_MINUS_1
    assert diff.is_zero


def test_from_roots_real_and_conjugate():
    """Monic reconstruction from roots; conjugate closure is required."""
    p = UnivariatePoly.from_roots([1.0, 2.0])
    assert np.allclose(p.coeffs, (2.0, -3.0, 1.0))
    q = UnivariatePoly.from_roots([1j, -1j])
    assert np.allclose(q.coeffs, (1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        UnivariatePoly.from_roots([1j])


def test_lcm_idempotent():
    """lcm(p, p) = p."""
    out = univariate_lcm(X_MINUS_1, X_MINUS_1)
    assert np.allclose(out.coeffs, X_MINUS_1.coeffs)


def test_lcm_coprime_product():
    """lcm(x-1, x-2) = x^2 - 3x + 2."""
    out = univariate_lcm(X_MINUS_1, X_MINUS_2)
    assert np.allclose(out.coeffs, (2.0, -3.0, 1.0))


def test_lcm_with_shared_factor():
    """lcm(x^2-3x+2, x+1) = x^3 - 2x^2 - x + 2."""
    out = univariate_lcm(UnivariatePoly((2.0, -3.0, 1.0)), UnivariatePoly((1.0, 1.0)))
    assert np.allclose(out.coeffs, (2.0, -1.0, -2.0, 1.0))


def test_lcm_random_integer_roots():
    """Degree law and divisibility for random monic integer-root inputs."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        ra = [int(r) for r in rng.integers(-3, 4, size=rng.integers(1, 5))]
        rb = [int(r) for r in rng.integers(-3, 4, size=rng.integers(1, 5))]
        p = UnivariatePoly.from_roots([float(r) for r in ra])
        q = UnivariatePoly.from_roots([float(r) for r in rb])
        out = univariate_lcm(p, q)
        # multiset intersection size = gcd degree, computed independently
        shared = 0
        pool = list(rb)
        for r in ra:
            if r in pool:
                pool.remove(r)
                shared += 1
        assert out.degree == len(ra) + len(rb) - shared
        assert divide_remainder_norm(out, p) < 1e-9
        assert divide_remainder_norm(out, q) < 1e-9
        g = univariate_gcd(p, q)
        assert g.degree == shared


def test_roots_frozen_examples():
    """Factored forms checked by substitution."""
    r1 = poly_roots(UnivariatePoly((-1.0, 0.0, 1.0)))
    assert [(round(z.real, 9), m) for z, m in r1] == [(-1.0, 1), (1.0, 1)]
    r2 = poly_roots(UnivariatePoly((2.0, -3.0, 1.0)))
    assert [(round(z.real, 9), m) for z, m in r2] == [(1.0, 1), (2.0, 1)]
    r3 = poly_roots(UnivariatePoly((2.0, -1.0, -2.0, 1.0)))
    assert [(round(z.real, 9), m) for z, m in r3] == [(-1.0, 1), (1.0, 1), (2.0, 1)]
    for z, _ in r3:
        assert abs(UnivariatePoly((2.0, -1.0, -2.0, 1.0)).evaluate(z)) < 1e-9


def test_roots_multiplicity_clustering():
    """A squared factor is reported once with multiplicity two."""
    p = UnivariatePoly.from_roots([1.0, 1.0, -2.0])
    out = poly_roots(p)
    assert sorted((round(z.real, 6), m) for z, m in out) == [(-2.0, 1), (1.0, 2)]


def _clustering_loop(p):
    """poly_roots with every input sent through its clustering loop: the reference."""
    raw = sorted(np.roots(np.asarray(p.monic().coeffs)[::-1]), key=lambda z: (z.real, z.imag))
    threshold = ROOT_CLUSTER_TOL * (1.0 + float(np.max(np.abs(raw))))
    clusters = []
    for z in raw:
        if clusters and abs(z - np.mean(clusters[-1])) <= threshold:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    return [(complex(np.mean(c)), len(c)) for c in clusters]


def test_roots_fast_path_matches_the_clustering_loop():
    """Simple roots skip the loop, and every answer is the loop's, bit for bit.

    Compared by repr, so a float root, or -0.0 where numpy.roots gives +0.0
    for an exactly-zero low coefficient, is a mismatch.
    """
    polys = {
        "simple real": UnivariatePoly.from_roots([3.0, -2.0, 0.5, 1.0, -0.25]),
        "conjugate pair": UnivariatePoly((5.0, -2.0, 1.0)) * UnivariatePoly.from_roots([-1.0]),
        "double root": UnivariatePoly.from_roots([1.0, 1.0, -2.0]),
        "pair 1e-9 apart": UnivariatePoly.from_roots([1.0, 1.0 + 1e-9, 3.0]),
        "x": UnivariatePoly((0.0, 1.0)),
        "x - 3": UnivariatePoly((-3.0, 1.0)),
        "2x + 5": UnivariatePoly((5.0, 2.0)),
        "x - 0.1": UnivariatePoly((-0.1, 1.0)),
        "3x + 1e-300": UnivariatePoly((1e-300, 3.0)),
        "x - 1e300": UnivariatePoly((-1e300, 1.0)),
        "x(x - 1)": UnivariatePoly((0.0, -1.0, 1.0)),
        "x^2(x + 2)": UnivariatePoly((0.0, 0.0, 2.0, 1.0)),
        "2x^3 - x": UnivariatePoly((0.0, -1.0, 0.0, 2.0)),
        "(x^2 - 2x + 5)x": UnivariatePoly((0.0, 5.0, -2.0, 1.0)),
    }
    multiplicities = {
        "simple real": [1] * 5,
        "conjugate pair": [1, 1, 1],
        "double root": [1, 2],
        "pair 1e-9 apart": [2, 1],
        "x": [1],
        "x^2(x + 2)": [1, 2],
    }
    rng = np.random.default_rng(4)
    for k in range(20):
        polys[k] = UnivariatePoly.from_roots(sorted(rng.uniform(-3.0, 3.0, size=k % 6 + 1)))
    for name, p in polys.items():
        out = poly_roots(p)
        assert repr(out) == repr(_clustering_loop(p)), name
        if name in multiplicities:
            assert [m for _, m in out] == multiplicities[name]


def test_roots_reconstruction_roundtrip():
    """from_roots(poly_roots(p)) reproduces p within 1e-8 relative."""
    rng = np.random.default_rng(1)
    for _ in range(30):
        k = int(rng.integers(1, 7))
        roots = sorted(rng.uniform(-3.0, 3.0, size=k))
        p = UnivariatePoly.from_roots([float(r) for r in roots])
        found = []
        for z, m in poly_roots(p):
            found.extend([z] * m)
        q = UnivariatePoly.from_roots(found)
        scale = max(abs(c) for c in p.coeffs)
        assert max(
            abs(a - b) for a, b in zip(p.coeffs, q.coeffs)
        ) <= 1e-8 * (1.0 + scale)


def test_zero_and_constant_root_queries():
    """Roots of degenerate inputs are rejected or empty."""
    with pytest.raises(ValueError):
        poly_roots(UnivariatePoly((0.0,)))
    assert poly_roots(UnivariatePoly((5.0,))) == []


def test_multivariate_eval_examples():
    """Constant, symmetric-difference, and quadratic evaluations."""
    one = MultivariatePoly.constant(2, 1.0)
    assert one.evaluate((3.7, -2.1)) == 1.0
    diff = MultivariatePoly.variable(2, 0) - MultivariatePoly.variable(2, 1)
    assert diff.evaluate((3.0, 3.0)) == 0.0
    quad = MultivariatePoly(2, {(2, 0): 1.0, (1, 1): 2.0})
    assert quad.evaluate((1.0, 2.0)) == 5.0


def test_multivariate_eval_linearity():
    """eval(p + q, t) = eval(p, t) + eval(q, t) up to rounding."""
    rng = np.random.default_rng(2)
    for _ in range(20):
        terms_p = {tuple(rng.integers(0, 3, size=2)): float(rng.normal()) for _ in range(3)}
        terms_q = {tuple(rng.integers(0, 3, size=2)): float(rng.normal()) for _ in range(3)}
        p = MultivariatePoly(2, terms_p)
        q = MultivariatePoly(2, terms_q)
        t = tuple(rng.uniform(-2, 2, size=2))
        assert abs((p + q).evaluate(t) - (p.evaluate(t) + q.evaluate(t))) < 1e-12


def test_multivariate_product_degree_and_zero():
    """Degrees add under products; zero coefficients are dropped."""
    x = MultivariatePoly.variable(2, 0)
    y = MultivariatePoly.variable(2, 1)
    assert (x * y).degree == 2
    assert (x - x).degree == -1
    assert (x * y - y).coefficient_vector(2).tolist() == [0, 0, -1, 0, 1, 0]
    assert (x - x).coefficient_vector(2).tolist() == [0] * 6
    assert MultivariatePoly(2, {(1, 0): 0.0}).terms == {}


def test_multivariate_validation():
    """Bad exponent tuples are rejected."""
    with pytest.raises(ValueError):
        MultivariatePoly(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        MultivariatePoly(2, {(-1, 0): 1.0})


def test_serialization_roundtrip():
    """JSON dict round trips; duplicate indices rejected on read."""
    p = MultivariatePoly(2, {(1, 1): 2.0, (0, 0): -1.0})
    again = MultivariatePoly.from_dict(p.to_dict())
    assert again.terms == p.terms
    u = UnivariatePoly((2.0, -3.0, 1.0))
    assert UnivariatePoly.from_dict(u.to_dict()).coeffs == u.coeffs
    with pytest.raises(ValueError):
        MultivariatePoly.from_dict(
            {"dim": 1, "terms": [{"idx": [1], "coef": 1.0}, {"idx": [1], "coef": 2.0}]}
        )


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_multivariate_rejects_non_finite_coefficients(value):
    """A NaN or infinite coefficient is refused, naming its exponent tuple."""
    with pytest.raises(ValueError, match=r"coefficient of \(0, 2\) is not finite"):
        MultivariatePoly(2, {(1, 0): 1.0, (0, 2): value})
    with pytest.raises(ValueError, match="not finite"):
        MultivariatePoly.from_dict({"dim": 1, "terms": [{"idx": [1], "coef": value}]})


def _constraints(dim):
    """The workload's cut x1 - c and box 4 - x1^2, a constant q and a cubic q."""
    x1, x2 = MultivariatePoly.variable(dim, 0), MultivariatePoly.variable(dim, dim - 1)
    one = MultivariatePoly.constant(dim, 1.0)
    cut = x1 - MultivariatePoly.constant(dim, 0.3)
    box = MultivariatePoly.constant(dim, 4.0) - x1 * x1
    constant = one.scale(2.5)
    cubic = x1 * x1 * x2.scale(-1.5) + x2 * x2.scale(0.25) - x1 + one.scale(0.75)
    return cut, box, constant, cubic


def test_coefficients_and_exponents_are_kept_in_terms_order():
    """Each polynomial keeps its exponents and a read-only float64 array of its coefficients,
    both in ``terms`` order, made at the first read and the same objects after it; the zero
    polynomial keeps empty ones."""
    for dim in (1, 2, 3):
        for q in _constraints(dim):
            assert q._arrays is None  # nothing is made for a polynomial never read
            assert q.exponents == tuple(q.terms)
            assert q.exponents is q.exponents and q.coefficients is q.coefficients
            assert q.coefficients.dtype == np.float64 and not q.coefficients.flags.writeable
            assert q.coefficients.tolist() == list(q.terms.values())
            with pytest.raises(ValueError):
                q.coefficients[0] = 1.0
    zero = MultivariatePoly.zero(2)
    assert zero.exponents == () and zero.coefficients.shape == (0,)


def test_kept_constants_give_the_bytes_of_arrays_built_from_terms():
    """``shift_sequence``, ``misfit_bound`` and ``moments._diagonal`` give the bytes they give
    from the exponents and coefficients rebuilt from ``terms`` on each call."""
    rng = np.random.default_rng(27)
    for dim in (1, 2, 3):
        points = rng.uniform(-1.5, 1.5, size=(3, dim))
        weights = rng.uniform(0.5, 2.0, size=3)
        measure = AtomicMeasure(dim, tuple(map(tuple, points.tolist())), tuple(weights.tolist()))
        seq = evaluate_moments(measure, 8)
        noise = rng.standard_normal(seq.array.size) * 1e-9
        misfit = TruncatedSequence(dim, 8, noise)
        tables = [power_table(axis, 8) for axis in points.T]
        for q in _constraints(dim):
            terms = tuple(q.terms)
            coefficients = np.array(list(q.terms.values()), dtype=float)
            new_degree = 8 - max(q.degree, 0)
            shifted = coefficients @ seq.array[shift_plan(dim, terms, new_degree)]
            assert moments.shift_sequence(seq, q).array.tobytes() == shifted.tobytes()

            exponents = np.array(terms, dtype=np.intp).reshape(-1, dim)
            at_points = moments.monomials(tables, exponents)
            diagonal = weights * (coefficients @ at_points)
            magnitude = np.abs(weights) * (np.abs(coefficients) @ np.abs(at_points))
            ours = moments._diagonal(tables, weights, q)
            assert [a.tobytes() for a in ours] == [diagonal.tobytes(), magnitude.tobytes()]

            order = (8 - max(q.degree, 0)) // 2
            (sums,) = moments.moments_and_grams(points, weights, 8, [(order, q)])[1]
            width = basis_size(dim, 2 * order)
            plan = shift_plan(dim, terms, new_degree)
            window = np.abs(coefficients) @ np.abs(misfit.array)[plan[:, :width]]
            bound = math.sqrt(float(pair_counts(dim, order) @ (window * window)))
            assert moments.misfit_bound(sums, misfit).hex() == bound.hex()


def test_threads_reading_fresh_polynomials_all_see_their_terms():
    """Four threads (more than a two-core machine runs at once, switching every
    microsecond) read the arrays of polynomials no one has read yet: each read gives the
    terms, and each polynomial then keeps one pair."""
    polys = [_constraints(3)[3].scale(k + 1.0) for k in range(300)]
    start = threading.Barrier(4, timeout=10)
    wrong = []

    def read():
        start.wait()
        for q in polys:
            if q.exponents != tuple(q.terms) or q.coefficients.tolist() != list(q.terms.values()):
                wrong.append(q)

    readers = [threading.Thread(target=read) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert not wrong
    assert all(q.coefficients is q._arrays[1] and q.exponents is q._arrays[0] for q in polys)
