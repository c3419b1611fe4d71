"""momentrec._lapack gives numpy.linalg's results bit for bit, and owns every LAPACK call."""

import ast
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from momentrec import _lapack

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "momentrec"


def _same(ours, theirs):
    """Equal dtype, shape and bytes: -0.0 and +0.0 differ, NaN payloads count."""
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
    assert ours.tobytes() == theirs.tobytes()


def _random(rng, shape, complex_entries=False):
    values = rng.standard_normal(shape)
    return values + 1j * rng.standard_normal(shape) if complex_entries else values


def _hermitian(rng, shape, complex_entries=False):
    a = _random(rng, shape, complex_entries)
    return a + np.swapaxes(a, -1, -2).conj()


@pytest.mark.parametrize("complex_entries", [False, True])
def test_every_routine_matches_numpy_linalg_bit_for_bit(complex_entries):
    """Random square, tall, wide and stacked inputs, real and complex."""
    rng = np.random.default_rng(20261022)
    for _ in range(20):
        for shape in ((3, 3), (5, 5), (4, 3, 3)):
            a = _random(rng, shape, complex_entries)
            _same(_lapack.eigvals(a), np.linalg.eigvals(a))
            _same(_lapack.inv(a), np.linalg.inv(a))
            h = _hermitian(rng, shape, complex_entries)
            _same(_lapack.eigvalsh(h), np.linalg.eigvalsh(h))
            rhs = _random(rng, shape[:-1] + (2,), complex_entries)
            _same(_lapack.solve(a, rhs), np.linalg.solve(a, rhs))
        a = _random(rng, (4, 4), complex_entries)
        vector = _random(rng, 4, complex_entries)
        _same(_lapack.solve(a, vector), np.linalg.solve(a, vector))
        for shape in ((7, 3), (3, 7), (4, 4), (3, 9, 4), (2, 3, 5)):
            a = _random(rng, shape, complex_entries)
            _same(_lapack.qr(a), np.linalg.qr(a, mode="r"))
        for shape, columns in (((9, 3), None), ((3, 5), None), ((6, 6), None), ((8, 2), 3)):
            a = _random(rng, shape, complex_entries)
            b = _random(rng, shape[:1] + (() if columns is None else (columns,)), complex_entries)
            for ours, theirs in zip(_lapack.lstsq(a, b), np.linalg.lstsq(a, b, rcond=None)):
                _same(ours, theirs)


def test_rank_deficient_and_tall_least_squares():
    """A repeated column drops the rank and the residuals; a tall full-rank fit keeps them."""
    rng = np.random.default_rng(1)
    column = rng.standard_normal((12, 1))
    deficient = np.hstack([column, column, rng.standard_normal((12, 1))])
    tall = rng.standard_normal((40, 4))
    for a in (deficient, tall):
        b = rng.standard_normal(a.shape[0])
        ours, theirs = _lapack.lstsq(a, b), np.linalg.lstsq(a, b, rcond=None)
        for mine, numpys in zip(ours, theirs):
            _same(mine, numpys)
        assert ours[2] == (2 if a is deficient else 4)
        assert ours[1].size == (0 if a is deficient else 1)


def test_eigvals_result_type_follows_the_roots():
    """Real eigenvalues come back float64, a complex pair makes the whole result complex128,
    across a stack as well."""
    real_roots = np.array([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    rotation = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    for a, dtype in (
        (real_roots, np.float64),
        (rotation, np.complex128),
        (np.stack([real_roots, real_roots]), np.float64),
        (np.stack([real_roots, rotation]), np.complex128),
    ):
        ours = _lapack.eigvals(a)
        assert ours.dtype == dtype
        _same(ours, np.linalg.eigvals(a))


def _message(function, *args):
    with pytest.raises(np.linalg.LinAlgError) as raised:
        function(*args)
    return str(raised.value)


def test_errors_carry_numpy_linalg_messages():
    """A singular solve or inverse and a non-finite eigvals input raise numpy's LinAlgError
    with numpy's message."""
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    cases = [
        (_lapack.solve, np.linalg.solve, (singular, np.ones(2))),
        (_lapack.solve, np.linalg.solve, (singular, np.ones((2, 3)))),
        (_lapack.inv, np.linalg.inv, (singular,)),
        (_lapack.inv, np.linalg.inv, (np.stack([np.eye(2), singular]),)),
        (_lapack.eigvals, np.linalg.eigvals, (np.array([[1.0, np.inf], [0.0, 1.0]]),)),
        (_lapack.eigvals, np.linalg.eigvals, (np.array([[np.nan, 0.0], [0.0, 1.0]]),)),
    ]
    for ours, theirs, args in cases:
        assert _message(ours, *args) == _message(theirs, *args)
    assert _message(_lapack.inv, singular) == "Singular matrix"


def _linalg_names(tree: ast.AST) -> set[str]:
    """The names a module reads from numpy.linalg: ``np.linalg.X`` and an import from
    numpy.linalg give X, any other use of the module (an alias, ``import numpy.linalg``)
    gives ``numpy.linalg`` itself."""
    names, read_from = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            if node.value.attr == "linalg":
                names.add(node.attr)
                read_from.add(node.value)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg" and node not in read_from:
            names.add("numpy.linalg")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            if any(alias.name == "linalg" for alias in node.names):
                names.add("numpy.linalg")
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.linalg") for alias in node.names):
                names.add("numpy.linalg")
    return names


def test_only_the_lapack_module_calls_numpy_linalg():
    """No package module but _lapack reads a LAPACK routine from numpy.linalg, so counting
    _lapack's functions counts every LAPACK call; LinAlgError and norm stay allowed."""
    probe = "la = np.linalg\nnp.linalg.eigvalsh(a)\nnp.linalg.norm(a)\nfrom numpy.linalg import qr"
    assert _linalg_names(ast.parse(probe)) == {"numpy.linalg", "eigvalsh", "norm", "qr"}
    allowed = {"LinAlgError", "norm"}
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "_lapack.py" in modules and len(modules) > 5
    for path in modules:
        if path.name != "_lapack.py":
            names = _linalg_names(ast.parse(path.read_text(), filename=str(path)))
            assert names <= allowed, (path.name, sorted(names - allowed))


def _calls():
    """(routine, numpy.linalg's, arguments, raises) for a normal and a failing call of each."""
    rng = np.random.default_rng(7)
    a, h, b = rng.standard_normal((4, 4)), _hermitian(rng, (4, 4)), rng.standard_normal(4)
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])

    def lstsq(a, b):
        return np.linalg.lstsq(a, b, rcond=None)

    def qr(a):
        return np.linalg.qr(a, mode="r")

    return [
        (_lapack.lstsq, lstsq, (a, b), False),
        (_lapack.lstsq, lstsq, (nan, np.ones(2)), True),
        (_lapack.eigvalsh, np.linalg.eigvalsh, (h,), False),
        (_lapack.eigvals, np.linalg.eigvals, (a,), False),
        (_lapack.eigvals, np.linalg.eigvals, (nan,), True),
        (_lapack.solve, np.linalg.solve, (a, b), False),
        (_lapack.solve, np.linalg.solve, (singular, np.ones(2)), True),
        (_lapack.qr, qr, (a,), False),
        (_lapack.inv, np.linalg.inv, (a,), False),
        (_lapack.inv, np.linalg.inv, (singular,), True),
    ]


_KINDS = ("divide", "over", "under", "invalid")


def _caller_callback(kind, flag):
    raise AssertionError(f"the caller's callback ran: {kind}")


def test_every_routine_leaves_the_caller_error_state_alone():
    """``np.geterr()`` and ``np.geterrcall()`` read the caller's own after a return and after
    a raised LinAlgError, whatever that state is."""
    states = (
        dict(all="ignore"),
        dict(all="raise"),
        dict(divide="warn", over="call", under="print", invalid="log", call=_caller_callback),
    )
    for state in states:
        with np.errstate(**state):
            before = (np.geterr(), np.geterrcall(), np.getbufsize())
            for ours, _, args, raises in _calls():
                if raises:
                    with pytest.raises(np.linalg.LinAlgError):
                        ours(*args)
                else:
                    ours(*args)
                assert (np.geterr(), np.geterrcall(), np.getbufsize()) == before, ours.__name__


@pytest.mark.parametrize("outer", ["raise", "ignore"])
def test_results_and_messages_are_numpy_linalgs_under_any_outer_state(outer):
    """Under ``np.errstate(all=outer)`` each routine returns numpy.linalg's bytes and raises
    its message, as numpy.linalg enters its own state whatever the caller's."""
    with np.errstate(all=outer):
        for ours, theirs, args, raises in _calls():
            if raises:
                assert _message(ours, *args) == _message(theirs, *args)
                continue
            mine, numpys = ours(*args), theirs(*args)
            if not isinstance(mine, tuple):  # lstsq's four results, every other's one
                mine, numpys = (mine,), (numpys,)
            for one, other in zip(mine, numpys, strict=True):
                _same(one, other)


def test_other_threads_see_only_their_own_error_state():
    """While one thread calls every routine, raising and not, three others, each inside its
    own ``np.errstate``, read that state and nothing of the first's (four threads, more than
    a two-core machine runs at once, switching every microsecond)."""
    states = [dict.fromkeys(_KINDS, kind) for kind in ("raise", "warn", "print")]
    ready = threading.Barrier(len(states) + 1, timeout=10)
    done = threading.Event()
    seen = [[] for _ in states]

    def watch(state, log):
        with np.errstate(**state, call=_caller_callback):
            ready.wait()
            while not done.is_set():
                log.append((np.geterr(), np.geterrcall()) == (state, _caller_callback))

    watchers = [
        threading.Thread(target=watch, args=(state, log)) for state, log in zip(states, seen)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with np.errstate(all="ignore"):
            for watcher in watchers:
                watcher.start()
            try:
                ready.wait()
                for _ in range(100):
                    for ours, _, args, raises in _calls():
                        try:
                            ours(*args)
                        except np.linalg.LinAlgError:
                            assert raises
            finally:
                done.set()
                for watcher in watchers:
                    watcher.join(10)
            assert np.geterr() == dict.fromkeys(_KINDS, "ignore")
            assert np.geterrcall() is None
    finally:
        sys.setswitchinterval(interval)
    assert not any(watcher.is_alive() for watcher in watchers)
    assert all(log and all(log) for log in seen)
