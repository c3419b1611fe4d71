"""Command-line interface: exit codes, JSON schemas, and determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momentrec
from momentrec.binet import AtomicMeasure, evaluate_moments
from momentrec.cli import main
from momentrec.indexing import iter_basis
from momentrec.moments import TruncatedSequence

PAIR = AtomicMeasure(dim=2, points=((0.0, 0.0), (1.0, 1.0)), weights=(1.0, 1.0))
X1 = {"dim": 2, "terms": [{"idx": [1, 0], "coef": 1.0}]}
X1_MINUS_2 = {"dim": 2, "terms": [{"idx": [1, 0], "coef": 1.0}, {"idx": [0, 0], "coef": -2.0}]}


def run(capsys, *argv):
    """Invoke main() and return (exit code, captured stdout text)."""
    code = main(list(argv))
    return code, capsys.readouterr().out


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def pair_moments(tmp_path):
    return write_json(tmp_path, "pair.json", evaluate_moments(PAIR, 4).to_dict())


@pytest.fixture
def pair_measure(tmp_path):
    return write_json(tmp_path, "pair_measure.json", PAIR.to_dict())


def test_synthesize_is_deterministic(capsys):
    """Identical seeds produce byte-identical output; seeds matter."""
    code_a, out_a = run(capsys, "synthesize")
    code_b, out_b = run(capsys, "synthesize")
    code_c, out_c = run(capsys, "synthesize", "--seed", "5")
    assert code_a == code_b == code_c == 0
    assert out_a == out_b
    assert out_a != out_c
    payload = json.loads(out_a)
    assert set(payload) == {"dim", "degree", "moments"}


def test_synthesize_from_measure(capsys, pair_measure):
    """An explicit measure yields its exact moments, degree defaulted."""
    code, out = run(capsys, "synthesize", "--measure", pair_measure)
    assert code == 0
    seq = TruncatedSequence.from_dict(json.loads(out))
    assert seq.max_degree == 6
    truth = evaluate_moments(PAIR, 6)
    assert seq.values == truth.values
    code, out = run(capsys, "synthesize", "--measure", pair_measure, "--degree", "2")
    assert code == 0
    assert TruncatedSequence.from_dict(json.loads(out)).max_degree == 2


def test_matrix_command(capsys, tmp_path, pair_moments):
    """Plain and localizing matrices with frozen entries."""
    code, out = run(capsys, "matrix", "--in", pair_moments, "--order", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [[2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
    q_path = write_json(tmp_path, "x1.json", X1)
    code, out = run(
        capsys, "matrix", "--in", pair_moments, "--order", "1", "--localize", q_path
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "localizing"
    assert payload["entries"] == [[1.0] * 3] * 3
    code, _ = run(capsys, "matrix", "--in", pair_moments, "--order", "5")
    assert code == 1


def test_psd_command_both_input_modes(capsys, tmp_path, pair_moments):
    """Moments plus --order, or a stored matrix file, same verdict."""
    code, out = run(capsys, "psd", "--in", pair_moments, "--order", "2")
    assert code == 0
    assert json.loads(out)["is_psd"] is True
    matrix_path = str(tmp_path / "m2.json")
    run(capsys, "matrix", "--in", pair_moments, "--order", "2", "--out", matrix_path)
    code, out = run(capsys, "psd", "--in", matrix_path)
    assert code == 0
    assert json.loads(out)["is_psd"] is True
    code, _ = run(capsys, "psd", "--in", pair_moments)
    assert code == 1


def test_psd_command_negative_verdict(capsys, tmp_path):
    """An indefinite moment matrix exits 2 with the eigenvalue."""
    values = {(k,): v for k, v in enumerate([0.0, -1.0, -1.0])}
    path = write_json(tmp_path, "signed.json", TruncatedSequence(1, 2, values).to_dict())
    code, out = run(capsys, "psd", "--in", path, "--order", "1")
    assert code == 2
    payload = json.loads(out)
    assert payload["is_psd"] is False
    assert payload["min_eigenvalue"] == pytest.approx((-1.0 - np.sqrt(5.0)) / 2.0)


def test_recurrence_command(capsys, tmp_path, pair_moments):
    """Recurrence detection reports the system or a structured failure."""
    code, out = run(capsys, "recurrence", "--in", pair_moments)
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == 2
    for entry in payload["polys"]:
        assert entry["coeffs"] == pytest.approx([0.0, -1.0, 1.0], abs=1e-9)
    rng = np.random.default_rng(41)
    noise = {idx: float(rng.normal()) for idx in iter_basis(2, 6)}
    path = write_json(tmp_path, "noise.json", TruncatedSequence(2, 6, noise).to_dict())
    code, out = run(capsys, "recurrence", "--in", path)
    assert code == 2
    assert json.loads(out)["status"] == "NoRecurrence"


def test_extend_command(capsys, pair_moments):
    """Extension reproduces true moments; shrinking is refused."""
    code, out = run(capsys, "extend", "--in", pair_moments, "--degree", "6")
    assert code == 0
    seq = TruncatedSequence.from_dict(json.loads(out))
    truth = evaluate_moments(PAIR, 6)
    for idx, value in truth.values.items():
        assert seq.values[idx] == pytest.approx(value, abs=1e-9)
    code, _ = run(capsys, "extend", "--in", pair_moments, "--degree", "2")
    assert code == 1


def test_solve_command(capsys, pair_moments, tmp_path):
    """Success exits 0 and repeat runs are byte-identical."""
    code_a, out_a = run(capsys, "solve", "--in", pair_moments)
    code_b, out_b = run(capsys, "solve", "--in", pair_moments)
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["status"] == "Success"
    assert len(payload["measure"]["atoms"]) == 2
    out_path = str(tmp_path / "report.json")
    code, out = run(capsys, "solve", "--in", pair_moments, "--out", out_path)
    assert code == 0
    assert out == ""
    with open(out_path) as fh:
        assert json.load(fh) == payload


def test_solve_command_negative_status(capsys, tmp_path):
    """A non-Success status exits 2 but still writes the report."""
    values = {(k,): v for k, v in enumerate([0.0, -1.0, -1.0, -1.0, -1.0])}
    path = write_json(tmp_path, "signed.json", TruncatedSequence(1, 4, values).to_dict())
    code, out = run(capsys, "solve", "--in", path)
    assert code == 2
    assert json.loads(out)["status"] == "NotPositive"


def test_solve_k_command(capsys, tmp_path, pair_moments):
    """Constraint satisfaction exits 0; violation exits 2."""
    ok_path = write_json(tmp_path, "k_ok.json", {"constraints": [X1]})
    code, out = run(capsys, "solve-k", "--in", pair_moments, "--constraints", ok_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "Success"
    assert payload["constraints"][0]["cardinality_ok"] is True
    spike = evaluate_moments(AtomicMeasure(2, ((1.0, 1.0),), (1.0,)), 4)
    spike_path = write_json(tmp_path, "spike.json", spike.to_dict())
    bad_path = write_json(tmp_path, "k_bad.json", {"constraints": [X1_MINUS_2]})
    code, out = run(capsys, "solve-k", "--in", spike_path, "--constraints", bad_path)
    assert code == 2
    assert json.loads(out)["status"] == "SupportViolation"


def test_verify_command(capsys, tmp_path, pair_moments, pair_measure):
    """Residual below tolerance exits 0, above exits 2."""
    code, out = run(capsys, "verify", "--in", pair_moments, "--measure", pair_measure)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["residual"] < 1e-12
    doubled = {
        "dim": 2,
        "degree": 2,
        "moments": [{"idx": list(idx), "value": 2.0} for idx in iter_basis(2, 2)],
    }
    doubled_path = write_json(tmp_path, "doubled.json", doubled)
    code, out = run(capsys, "verify", "--in", doubled_path, "--measure", pair_measure)
    assert code == 2
    assert json.loads(out)["ok"] is False


def test_tolerance_flags(capsys, tmp_path, pair_moments):
    """Tolerance overrides flow through; non-positive values exit 1."""
    code, out = run(
        capsys, "solve", "--in", pair_moments, "--tol-residual", "1e-3"
    )
    assert code == 0
    assert json.loads(out)["moment_residual"]["tolerance"] == 1e-3
    code, _ = run(capsys, "solve", "--in", pair_moments, "--tol-rank", "-1")
    assert code == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerances_exit_one(capsys, pair_moments, value):
    """NaN or inf tolerances are input errors, for solve and for psd alike."""
    for argv in (
        ["solve", "--in", pair_moments, "--tol-rank", value],
        ["solve", "--in", pair_moments, "--tol-psd", value],
        ["psd", "--in", pair_moments, "--order", "1", "--tol-psd", value],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite and positive" in captured.err


def test_non_finite_constraint_coefficient_exits_one(capsys, tmp_path, pair_moments):
    """A NaN constraint coefficient is reported at its exponent, not as bad data."""
    q = {"dim": 2, "terms": [{"idx": [1, 0], "coef": 1.0}, {"idx": [0, 0], "coef": float("nan")}]}
    path = write_json(tmp_path, "k_nan.json", {"constraints": [q]})
    assert main(["solve-k", "--in", pair_moments, "--constraints", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coefficient of (0, 0) is not finite" in captured.err


def test_invalid_constraint_exits_one_on_failing_data(capsys, tmp_path):
    """A zero constraint is an input error even where the data would fail."""
    signed = TruncatedSequence(1, 4, [0.0, -1.0, -1.0, -1.0, -1.0])
    moments = write_json(tmp_path, "signed.json", signed.to_dict())
    zero = write_json(tmp_path, "k_zero.json", {"constraints": [{"dim": 1, "terms": []}]})
    assert main(["solve-k", "--in", moments, "--constraints", zero]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "zero polynomial" in captured.err


def test_bad_inputs_exit_one(capsys, tmp_path, pair_moments):
    """Missing files, bad JSON, and schema violations all exit 1."""
    assert run(capsys, "solve", "--in", str(tmp_path / "absent.json"))[0] == 1
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(capsys, "solve", "--in", str(garbled))[0] == 1
    sparse = write_json(
        tmp_path,
        "sparse.json",
        {"dim": 2, "degree": 2, "moments": [{"idx": [0, 0], "value": 1.0}]},
    )
    assert run(capsys, "solve", "--in", sparse)[0] == 1
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["psd"])
    assert info.value.code == 1


def test_non_finite_moments_exit_one(capsys, tmp_path, pair_moments):
    """Non-finite moments or weights are input errors naming the index or atom."""
    data = json.loads(Path(pair_moments).read_text())
    data["moments"][4]["value"] = float("nan")
    path = write_json(tmp_path, "nan.json", data)
    assert main(["solve", "--in", path]) == 1
    assert "moment (1, 1) is not finite" in capsys.readouterr().err
    huge = AtomicMeasure(dim=1, points=((1e200,),), weights=(1.0,))
    measure = write_json(tmp_path, "huge.json", huge.to_dict())
    with np.errstate(over="ignore"):
        assert main(["synthesize", "--measure", measure, "--degree", "2"]) == 1
    assert "moment (2,) is not finite" in capsys.readouterr().err
    weights = PAIR.to_dict()
    weights["atoms"][1]["weight"] = float("nan")
    measure = write_json(tmp_path, "nan_measure.json", weights)
    assert main(["verify", "--in", pair_moments, "--measure", measure]) == 1
    assert "atom 1" in capsys.readouterr().err


def test_psd_rejects_asymmetric_matrix(capsys, tmp_path):
    """A matrix whose triangles disagree exits 1 instead of a verdict."""
    payload = {"order": 1, "labels": [[0], [1]], "entries": [[1, -5], [0, 1]]}
    path = write_json(tmp_path, "asym.json", payload)
    assert main(["psd", "--in", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exactly symmetric" in captured.err


def test_psd_rejects_labels_outside_the_basis(capsys, tmp_path, pair_moments):
    """Labels must be the degree-lex basis, and dim and kind must agree with them.

    `matrix` output, plain and localizing, still loads.
    """
    identity = {"labels": [[0], [1]], "entries": [[1, 0], [0, 1]]}
    bad = [
        ({**identity, "order": 3, "labels": [[7, 7], [1]]}, "degree-lex basis of order 3"),
        ({"dim": 5, "order": 1, "kind": "banana", **identity}, "matrix dim 5"),
        ({"dim": 1, "order": 1, "kind": "localizing", **identity}, "kind 'localizing'"),
    ]
    for payload, message in bad:
        assert main(["psd", "--in", write_json(tmp_path, "bad.json", payload)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
    q_path = write_json(tmp_path, "x1.json", X1)
    for localize in ([], ["--localize", q_path]):
        matrix_path = str(tmp_path / "m.json")
        argv = ["matrix", "--in", pair_moments, "--order", "1", "--out", matrix_path]
        assert main(argv + localize) == 0
        assert main(["psd", "--in", matrix_path]) == 0


def _round_trip(command, tmp_path, env=None):
    """Synthesize seed 3 with ``command``, solve it, and expect Success."""
    synth = subprocess.run(
        [*command, "synthesize", "--seed", "3"], capture_output=True, text=True, env=env
    )
    assert synth.returncode == 0, synth.stderr
    moments_path = tmp_path / "synth.json"
    moments_path.write_text(synth.stdout)
    solved = subprocess.run(
        [*command, "solve", "--in", str(moments_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert solved.returncode == 0, solved.stderr
    assert json.loads(solved.stdout)["status"] == "Success"


def test_installed_entry_point(tmp_path):
    """The declared console script round trips, installed or not.

    ``[project.scripts]`` is read from the pyproject.toml beside the source
    tree being tested and run in a fresh interpreter the way an installer's
    wrapper runs it; an installed ``momentrec`` on PATH is run as well.
    """
    tomllib = pytest.importorskip("tomllib")
    src = Path(momentrec.__file__).resolve().parents[1]
    pyproject = src.parent / "pyproject.toml"
    assert pyproject.is_file(), f"no pyproject.toml beside {src}"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["momentrec"]
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"sys.exit(EntryPoint('momentrec', {target!r}, 'console_scripts').load()())\n"
    )
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    _round_trip([sys.executable, "-c", wrapper], tmp_path, env)
    exe = shutil.which("momentrec")
    if exe is not None:
        _round_trip([exe], tmp_path)
