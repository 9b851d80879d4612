"""Golden --no-timing output of construct and bench, and the audit grids.

tests/data/cli_golden.json maps each argv below (joined by spaces) to
its return code and stdout; artifacts/audit_*.jsonl hold the lines of
scripts/run_audit_grid.py. Integers, booleans, strings, key order and
uncovered samples must match exactly; floats to a relative 1e-12.
"""

import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

from circdom.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
ROOT = Path(__file__).resolve().parents[1]

_R2000 = ["construct", "--n", "2000", "--random-chords", "20", "--seed", "3"]
_U2 = ["construct", "--n", "10000", "--random-chords", "2000", "--seed", "1",
       "--method", "universal2", "--c", "0.027", "--C", "0.05", "--c0", "0.02"]
ARGVS = [
    [*_R2000, "--method", "paper"],
    [*_R2000, "--method", "greedy"],
    [*_R2000, "--method", "random"],
    [*_R2000, "--method", "greedy", "--r", "2"],
    _U2,
    [*_U2, "--r", "2"],
    # leaves 7977 vertices uncovered: the sample is capped at 1000
    ["construct", "--n", "20000", "--random-chords", "50", "--seed", "3",
     "--method", "almost-w", "--psi", "0.0003"],
    # coverage_fraction from the same r = 2 check as uncovered_count
    ["construct", "--n", "20000", "--random-chords", "50", "--seed", "3",
     "--method", "almost-w", "--psi", "0.0003", "--r", "2"],
    ["bench", "--n-list", "1000,2000", "--k-list", "25",
     "--methods", "paper,greedy,random,universal2,almost-w", "--seeds", "3,4"],
]


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse(stdout):
    if stdout.startswith("{"):
        return json.loads(stdout)
    return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(stdout))]


def _assert_matches(got, want, where="$"):
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where  # key order too
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), where
    else:
        assert got == want, where


@pytest.mark.parametrize("argv", ARGVS, ids=lambda a: " ".join(a[:1] + a[-4:]))
def test_no_timing_output_matches_golden(argv, capsys):
    want = json.loads(GOLDEN.read_text())[" ".join(argv)]
    rc = main([*argv, "--no-timing"])
    assert rc == want["returncode"]
    _assert_matches(_parse(capsys.readouterr().out), _parse(want["stdout"]))


def test_audit_grid_matches_artifacts(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "run_audit_grid", ROOT / "scripts" / "run_audit_grid.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for run in script.RUNS:
        i = run.index("--out")
        committed = Path(run[i + 1])
        out = tmp_path / committed.name
        assert main([*run[:i], "--out", str(out), *run[i + 2:]]) == 0
        got = out.read_text().splitlines()
        want = committed.read_text().splitlines()
        assert len(got) == len(want), committed.name
        for line, (g, w) in enumerate(zip(got, want), 1):
            _assert_matches(json.loads(g), json.loads(w),
                            f"{committed.name}:{line}")
