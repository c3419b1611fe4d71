"""Univariate and multivariate polynomial arithmetic, lcm, and roots."""

import numpy as np
import pytest

from momentrec.polynomials import ROOT_CLUSTER_TOL, MultivariatePoly, UnivariatePoly, poly_roots

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
    """Simple roots skip the loop, and every answer is the loop's, bit for bit."""
    polys = {
        "simple real": UnivariatePoly.from_roots([3.0, -2.0, 0.5, 1.0, -0.25]),
        "conjugate pair": UnivariatePoly((5.0, -2.0, 1.0)) * UnivariatePoly.from_roots([-1.0]),
        "double root": UnivariatePoly.from_roots([1.0, 1.0, -2.0]),
        "pair 1e-9 apart": UnivariatePoly.from_roots([1.0, 1.0 + 1e-9, 3.0]),
    }
    multiplicities = {
        "simple real": [1] * 5,
        "conjugate pair": [1, 1, 1],
        "double root": [1, 2],
        "pair 1e-9 apart": [2, 1],
    }
    rng = np.random.default_rng(4)
    for k in range(20):
        polys[k] = UnivariatePoly.from_roots(sorted(rng.uniform(-3.0, 3.0, size=k % 6 + 1)))
    for name, p in polys.items():
        out = poly_roots(p)
        assert out == _clustering_loop(p)
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
