"""Self-test of the benchmark on tiny inputs; runs in well under a minute.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Checks that every workload runs untraced and traced with ``--small``, that
the printed metric names and units are exactly those of BENCHMARK.json, that
the exact work counts repeat bit for bit on a fixed seed, that another seed
changes the inputs (except on ``grid``, whose ladder is fixed), and that a
directory without the package makes the benchmark exit non-zero without
printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "recurrence.fit_rows",
    "recurrence.extend_entries",
    "moments.matrix_entries",
    "moments.decomp_n3",
    "binet.grid_points",
)
SEED = 7
TIMEOUT_S = 120


def _run(workload, trace, seed=SEED, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    return proc


def _result(workload, trace, seed=SEED):
    proc = _run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_shape(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_metric_names_and_exact_counts():
    for workload in workloads.WORKLOADS:
        _check_shape(_result(workload, 0), SPEC["end_to_end"])
        first = _result(workload, 1)
        second = _result(workload, 1)
        _check_shape(first, SPEC["per_layer"])
        for name in EXACT_COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            assert a == b, f"{workload} {name}: {a} != {b}"
        assert first["metrics"]["binet.grid_points"]["value"] > 0
        assert first["metrics"]["trace.absent_stages"]["value"] == 0


def test_seed_fixes_inputs():
    for workload in workloads.WORKLOADS:
        a = workloads.fingerprint(workloads.make_cases(workload, SEED, small=True))
        again = workloads.fingerprint(workloads.make_cases(workload, SEED, small=True))
        other = workloads.fingerprint(workloads.make_cases(workload, SEED + 1, small=True))
        assert a == again, workload
        assert (a == other) == (workload == "grid"), workload


def test_reference_seed_draws_are_sample_instance():
    import numpy as np
    from momentrec import sample_instance

    rng = np.random.default_rng(workloads.REFERENCE_SEED)
    for case in workloads.make_cases("corpus", workloads.REFERENCE_SEED, small=True):
        inst = sample_instance(rng)
        assert case.truth == inst.measure
        assert case.moments.values == inst.moments.values


def test_fails_without_package():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run("corpus", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"{name}: ok")
