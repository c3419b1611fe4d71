"""Euclidean gcd and lcm of univariate polynomials, for the tests only.

The recurrence tests compare the joint fit along one axis with the lcm of
the minimal recurrences of each slice; the package itself never needs them.
Remainders are truncated with a relative tolerance, which is enough for the
well-separated polynomials the tests build.
"""

import numpy as np

from momentrec.polynomials import UnivariatePoly


def _divmod_arrays(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polynomial long division on lowest-first coefficient arrays."""
    num = np.array(num, dtype=float)
    den = np.asarray(den, dtype=float)
    dn, dd = len(num) - 1, len(den) - 1
    if den[dd] == 0.0:
        raise ZeroDivisionError("division by the zero polynomial")
    if dn < dd:
        return np.zeros(1), num
    quot = np.zeros(dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        q = num[k + dd] / den[dd]
        quot[k] = q
        num[k : k + dd + 1] -= q * den
    return quot, num[:dd] if dd > 0 else np.zeros(1)


def _trim_leading(arr: np.ndarray, threshold: float) -> np.ndarray:
    end = len(arr)
    while end > 1 and abs(arr[end - 1]) <= threshold:
        end -= 1
    return arr[:end]


def univariate_gcd(p: UnivariatePoly, q: UnivariatePoly, tol: float = 1e-9) -> UnivariatePoly:
    """Monic gcd via the Euclidean remainder sequence.

    Remainder coefficients with magnitude below ``tol`` relative to the larger
    operand are treated as zero, which keeps floating-point noise from faking
    spurious low-degree remainders.
    """
    a = np.asarray(p.monic().coeffs)
    b = np.asarray(q.monic().coeffs)
    if len(b) > len(a):
        a, b = b, a
    while True:
        threshold = tol * max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
        _, r = _divmod_arrays(a, b)
        r = _trim_leading(r, threshold)
        if len(r) == 1 and abs(r[0]) <= threshold:
            return UnivariatePoly(tuple(b)).monic()
        a, b = b, r / r[-1]


def univariate_lcm(p: UnivariatePoly, q: UnivariatePoly, tol: float = 1e-9) -> UnivariatePoly:
    """Monic lcm computed as p*q / gcd(p, q)."""
    g = univariate_gcd(p, q, tol)
    prod = p.monic() * q.monic()
    quot, rem = _divmod_arrays(np.asarray(prod.coeffs), np.asarray(g.coeffs))
    if float(np.max(np.abs(rem))) > tol * max(1.0, float(np.max(np.abs(prod.coeffs)))):
        raise ValueError("gcd does not divide the product; tolerance too tight")
    return UnivariatePoly(tuple(quot)).monic()
