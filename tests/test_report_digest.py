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
