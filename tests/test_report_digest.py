"""tools/report_digest.py gives one digest per workload input set."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"


def test_two_small_runs_agree():
    """Two fresh runs over the small corpus print the same count and SHA-256."""
    command = [sys.executable, str(TOOL), "--workload", "corpus", "--seed", "7", "--small"]
    outputs = [
        subprocess.run(command, capture_output=True, text=True, timeout=120, check=True).stdout
        for _ in range(2)
    ]
    assert re.fullmatch(r"corpus seed 7: 24 inputs, sha256 [0-9a-f]{64}\n", outputs[0])
    assert outputs[0] == outputs[1]


def test_saved_moments_reload_to_the_same_digest(tmp_path):
    """Solving saved moment bytes gives the plain run's digests; a mismatched file is refused."""
    saved = tmp_path / "corpus.npz"
    command = [sys.executable, str(TOOL), "--workload", "corpus", "--seed", "7", "--small"]
    plain = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    runs = [
        subprocess.run(
            command + ["--decisions", option, str(saved)],
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for option in ("--save-moments", "--moments-from")
    ]
    assert runs[0] == runs[1]
    assert runs[0].splitlines()[0] == plain.stdout.strip()
    decisions = runs[0].splitlines()[1]
    assert re.fullmatch(r"corpus seed 7: 24 inputs, decisions sha256 [0-9a-f]{64}", decisions)
    other = [sys.executable, str(TOOL), "--workload", "grid", "--small", "--moments-from"]
    refused = subprocess.run(other + [str(saved)], capture_output=True, text=True, timeout=120)
    assert refused.returncode == 2 and "24 arrays" in refused.stderr


def test_certified_counts_every_record():
    """--certified splits the small constrained workload's M(n) and M_q records between the
    brackets and eigvalsh, and every localizing matrix of 48 rows or more is certified."""
    command = [sys.executable, str(TOOL), "--workload", "constrained", "--seed", "2026", "--small"]
    plain = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    lines = subprocess.run(
        command + ["--certified"], capture_output=True, text=True, timeout=120, check=True
    ).stdout.splitlines()
    assert lines[0] == plain.stdout.strip()
    pattern = (
        r"constrained seed 2026: 24 inputs, (M\(n\)|M_q) records: (\d+) certified, "
        r"(\d+) by eigvalsh \((\d+) of >= 48 rows\)"
    )
    counts = {}
    for line in lines[1:3]:
        kind, certified, eigvalsh, large = re.fullmatch(pattern, line).groups()
        counts[kind] = (int(certified), int(eigvalsh), int(large))
    # two M(n) and two M_q records per input: every input reaches its constraints
    assert [sum(counts[kind][:2]) for kind in ("M(n)", "M_q")] == [48, 48]
    certified, _, large = counts["M_q"]
    assert certified >= 2 and large == 0


def test_certified_counts_the_detection_screen_in_each_pass():
    """--certified prints each pass's detection screen counts on the small grid workload: its
    1-D rung of 10 nodes is screened, every pass counts the same, and the QR and inverse
    calls that --calls counts are one per solve screened and the least-squares calls the
    orders fitted."""
    command = [sys.executable, str(TOOL), "--workload", "grid", "--seed", "7", "--small"]
    lines = subprocess.run(
        command + ["--certified", "--plans", "--calls"],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    pattern = (
        r"grid seed 7: 5 inputs, detection in pass (\d): (\d+) solves screened, "
        r"(\d+) axes screened, (\d+) orders proven, (\d+) orders fitted, "
        r"(\d+) all-fail fallbacks"
    )
    passes = [re.fullmatch(pattern, line) for line in lines if "detection in pass" in line]
    counts = [tuple(map(int, found.groups()[1:])) for found in passes]
    assert [found.group(1) for found in passes] == ["1", "2", "3"]
    assert counts[0] == counts[1] == counts[2]
    solves, axes, proven, fitted, fallbacks = counts[0]
    assert 1 <= solves <= axes and proven >= 1 and fallbacks == 0
    calls = [line for line in lines if "numpy.linalg calls in pass 1" in line][0]
    named = dict(item.split(" ") for item in calls.split(": ")[-1].split(", "))
    assert int(named["lstsq"]) == fitted
    assert int(named["qr"]) == int(named["inv"]) == solves


def test_plans_counts_no_build_after_the_first_pass():
    """--plans solves the small grid workload three times; only the first pass builds plans."""
    command = [sys.executable, str(TOOL), "--workload", "grid", "--seed", "7", "--small"]
    plain = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    lines = subprocess.run(
        command + ["--plans"], capture_output=True, text=True, timeout=120, check=True
    ).stdout.splitlines()
    assert lines[0] == plain.stdout.strip()
    pattern = (
        r"grid seed 7: \d+ inputs, pair-rank builds: pass 1 (\d+), pass 2 (\d+), pass 3 (\d+); "
        r"plan store (\d+) entries"
    )
    first, second, third, entries = map(int, re.fullmatch(pattern, lines[1]).groups())
    assert first > 0 and second == third == 0
    assert 0 < entries <= 1 << 22


def test_calls_counts_numpy_linalg_calls_in_each_pass():
    """--calls prints each pass's numpy.linalg calls by name; every pass makes the same ones."""
    command = [sys.executable, str(TOOL), "--workload", "corpus", "--seed", "7", "--small"]
    plain = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    lines = subprocess.run(
        command + ["--plans", "--calls"], capture_output=True, text=True, timeout=120, check=True
    ).stdout.splitlines()
    assert lines[0] == plain.stdout.strip()
    passes = []
    for k, line in enumerate(lines[2:], 1):
        prefix = f"corpus seed 7: 24 inputs, numpy.linalg calls in pass {k}: "
        assert line.startswith(prefix)
        counts = dict(item.split(" ") for item in line[len(prefix) :].split(", "))
        passes.append({name: int(n) for name, n in counts.items()})
    assert len(passes) == 3 and passes[0] == passes[1] == passes[2]
    # one eigvals and one solve per variable with two roots or more
    assert set(passes[0]) == {"eigvals", "eigvalsh", "lstsq", "solve"}
    assert passes[0]["eigvals"] == passes[0]["solve"] > 0


def test_pycalls_counts_python_calls_in_each_pass():
    """--pycalls prints each pass's Python-level calls by owner and the median per solve; the
    two warm passes count the same, and the first, which builds the plans, no fewer."""
    command = [sys.executable, str(TOOL), "--workload", "corpus", "--seed", "7", "--small"]
    plain = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    lines = subprocess.run(
        command + ["--plans", "--pycalls"], capture_output=True, text=True, timeout=120, check=True
    ).stdout.splitlines()
    assert lines[0] == plain.stdout.strip()
    pattern = (
        r"corpus seed 7: 24 inputs, Python calls in pass (\d): momentrec (\d+), numpy (\d+), "
        r"other (\d+); median per solve (\d+(?:\.5)?)"
    )
    passes = [re.fullmatch(pattern, line) for line in lines[2:]]
    assert [found.group(1) for found in passes] == ["1", "2", "3"]
    counts = [tuple(float(n) for n in found.groups()[1:]) for found in passes]
    assert counts[1] == counts[2]
    package, numpy, _, median = counts[1]
    assert package > 0 and numpy > 0 and median > 0
    assert all(first >= warm for first, warm in zip(counts[0][:3], counts[1][:3]))


def test_transform_moves_no_status_or_atom_count():
    """--transform reflect solves the small constrained workload with x_1 -> -x_1 in the data
    and the constraints, and no status or atom count moves."""
    command = [sys.executable, str(TOOL), "--workload", "constrained", "--seed", "7", "--small"]
    plain = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    lines = subprocess.run(
        command + ["--transform", "reflect"],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    assert lines == [
        plain.stdout.strip(),
        "constrained seed 7: 24 inputs, reflect transform moved 0 statuses and 0 atom counts",
    ]


def test_retained_counts_what_reading_values_keeps():
    """--retained reads every small corpus input's values after the pass, as the benchmark's
    set-up does, and prints what that kept: under 64 KB, not a mapping per input (97 KB)."""
    command = [sys.executable, str(TOOL), "--workload", "corpus", "--seed", "7", "--small"]
    plain = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    lines = subprocess.run(
        command + ["--retained"], capture_output=True, text=True, timeout=120, check=True
    ).stdout.splitlines()
    assert lines[0] == plain.stdout.strip() and len(lines) == 2
    pattern = r"corpus seed 7: 24 inputs, values read: (\d+) bytes retained, ru_maxrss (\S+) MB"
    retained, peak = re.fullmatch(pattern, lines[1]).groups()
    assert int(retained) < 2**16
    assert float(peak) > 0.0
