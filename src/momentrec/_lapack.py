"""Every LAPACK call the package makes, through numpy's linalg gufuncs.

On the package's small matrices numpy.linalg's Python wrappers cost more
than the LAPACK work: each call converts its arguments, works out a common
type, enters an ``errstate`` and casts its results. Each function here calls
the gufunc its numpy.linalg counterpart calls, with the same signature and
under the same error state, whose callbacks raise numpy's own
``LinAlgError`` messages, and gives that counterpart's result bit for bit:

- ``lstsq(a, b)``: ``numpy.linalg.lstsq(a, b, rcond=None)``;
- ``eigvalsh(a)``: ``numpy.linalg.eigvalsh(a)`` (the lower triangle);
- ``eigvals(a)``: ``numpy.linalg.eigvals(a)``;
- ``solve(a, b)``: ``numpy.linalg.solve(a, b)``;
- ``qr(a)``: ``numpy.linalg.qr(a, mode="r")``;
- ``inv(a)``: ``numpy.linalg.inv(a)``.

The arguments are float64 or complex128 ndarrays of the shapes the
counterpart accepts; the wrappers' conversions and shape checks are left
out. A mismatch of core dimensions is still refused, by the gufunc.
Callers reach these functions through the module (``_lapack.solve(...)``),
so that counting them at this one place counts every call.

The error state is numpy.linalg's ``errstate(call=<its callback>,
invalid="call", over="ignore", divide="ignore", under="ignore")``, built
once per callback at import (``_make_extobj``) rather than per call, and
entered by setting numpy's error-state context variable, which is reset
when the call returns or raises: the caller's ``np.geterr()`` and
``np.geterrcall()`` are untouched, and another thread sees only its own.
The one difference from numpy.linalg: the state carries numpy's default
buffer size, not one a caller set with ``np.setbufsize``, which these
float64 and complex128 gufunc calls never buffer under.

The gufunc names are those numpy 2.0 introduced (numpy 1.x splits ``lstsq``
and ``qr_r_raw`` by shape), as is the context-variable error state, so an
older numpy fails at import.
"""

from __future__ import annotations

import numpy as np
from numpy._core.umath import UFUNC_BUFSIZE_DEFAULT, _extobj_contextvar, _make_extobj
from numpy.linalg import LinAlgError
from numpy.linalg._linalg import (
    _raise_linalgerror_eigenvalues_nonconvergence,
    _raise_linalgerror_lstsq,
    _raise_linalgerror_qr,
    _raise_linalgerror_singular,
)
from numpy.linalg._umath_linalg import (
    eigvals as _eigvals,
    eigvalsh_lo as _eigvalsh_lo,
    inv as _inv,
    lstsq as _lstsq,
    qr_r_raw as _qr_r_raw,
    solve as _solve,
    solve1 as _solve1,
)

__all__ = ["eigvals", "eigvalsh", "inv", "lstsq", "qr", "solve"]

_EPS = float(np.finfo(np.float64).eps)


def _raising(callback):
    """numpy.linalg's error state: an invalid result calls ``callback``, which raises."""
    return _make_extobj(
        call=callback,
        invalid="call",
        over="ignore",
        divide="ignore",
        under="ignore",
        bufsize=UFUNC_BUFSIZE_DEFAULT,
    )


_SINGULAR = _raising(_raise_linalgerror_singular)
_NONCONVERGENT = _raising(_raise_linalgerror_eigenvalues_nonconvergence)
_LSTSQ_FAILED = _raising(_raise_linalgerror_lstsq)
_QR_FAILED = _raising(_raise_linalgerror_qr)
# _enter(state) makes ``state`` the current one and returns the token that _leave
# takes to restore the caller's
_enter, _leave = _extobj_contextvar.set, _extobj_contextvar.reset


def lstsq(a: np.ndarray, b: np.ndarray):
    """(x, residuals, rank, singular values) of ``numpy.linalg.lstsq(a, b, rcond=None)``
    for a 2-D ``a`` of at least one row and a 1-D or 2-D ``b`` of at least one column."""
    m, n = a.shape
    is_1d = b.ndim == 1
    if is_1d:
        b = b[:, None]
    signature = "DDd->Ddid" if a.dtype.kind == "c" or b.dtype.kind == "c" else "ddd->ddid"
    token = _enter(_LSTSQ_FAILED)
    try:
        x, resids, rank, s = _lstsq(a, b, _EPS * max(m, n), signature=signature)
    finally:
        _leave(token)
    if is_1d:
        x = x.squeeze(axis=-1)
    if rank != n or m <= n:
        resids = np.array([], dtype=np.float64)
    return x, resids, rank, s


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian matrices ``a`` from their lower triangles."""
    token = _enter(_NONCONVERGENT)
    try:
        return _eigvalsh_lo(a, signature="D->d" if a.dtype.kind == "c" else "d->d")
    finally:
        _leave(token)


def eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the square matrices ``a``; for a real ``a`` they are real (float64)
    where every eigenvalue of the stack has a zero imaginary part, else complex."""
    if not np.isfinite(a).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    real = a.dtype.kind != "c"
    token = _enter(_NONCONVERGENT)
    try:
        w = _eigvals(a, signature="d->D" if real else "D->D")
    finally:
        _leave(token)
    if real and (w.imag == 0).all():
        return w.real
    return w


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b; a 1-D ``b`` is one right-hand side, else a stack of columns."""
    gufunc = _solve1 if b.ndim == 1 else _solve
    signature = "DD->D" if a.dtype.kind == "c" or b.dtype.kind == "c" else "dd->d"
    token = _enter(_SINGULAR)
    try:
        return gufunc(a, b, signature=signature)
    finally:
        _leave(token)


def qr(a: np.ndarray) -> np.ndarray:
    """The R factor of the QR factorization of each (m, n) matrix of ``a``: min(m, n) rows."""
    m, n = a.shape[-2:]
    complex_input = a.dtype.kind == "c"
    # LAPACK overwrites the copy: R on and above the diagonal, reflectors below
    a = a.astype(np.complex128 if complex_input else np.float64, copy=True)
    token = _enter(_QR_FAILED)
    try:
        _qr_r_raw(a, signature="D->D" if complex_input else "d->d")
    finally:
        _leave(token)
    return np.triu(a[..., : min(m, n), :])


def inv(a: np.ndarray) -> np.ndarray:
    """The inverses of the square matrices ``a``."""
    token = _enter(_SINGULAR)
    try:
        return _inv(a, signature="D->D" if a.dtype.kind == "c" else "d->d")
    finally:
        _leave(token)
