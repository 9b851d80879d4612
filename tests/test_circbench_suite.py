"""circbench's own tests, run from the main test suite.

Both suites import helpers `from conftest`, so one pytest process cannot
collect both: the circbench suite runs in a process of its own.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_circbench_suite_passes():
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "circbench/tests"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stdout + res.stderr
