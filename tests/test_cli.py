import csv
import dataclasses
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from circdom import cli, construct, expsum
from circdom.cli import BENCH_COLUMNS, MAX_N, main
from circdom.errors import HypothesisNotMet
from circdom.expsum import AUDIT_CAP

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

CONSTRUCT_KEYS = [
    "n", "k", "method", "r", "seed", "generator", "size", "verified",
    "uncovered_count", "uncovered_sample", "wall_ms", "parameters",
]
BENCH_HEADER = (
    "n,k,method,seed,size,wall_ms,verified,L,w_size,u_size,"
    "ratio_vs_envelope,error"
)


def run_cli(*args, env_extra=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "circdom", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def cycle_file(tmp_path):
    p = tmp_path / "cycle.txt"
    p.write_text("# undirected 9-cycle\n1\n8\n")
    return str(p)


def test_construct_paper_from_file_n16(tmp_path):
    p = tmp_path / "chords.txt"
    p.write_text("1\n15\n")
    res = run_cli("construct", "--n", "16", "--chords-file", str(p),
                  "--method", "paper")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["verified"] is True
    assert list(doc.keys()) == CONSTRUCT_KEYS  # golden schema


@pytest.mark.parametrize("method", cli.METHODS)
def test_report_fields_are_construct_keys(method, capsys):
    # DominationReport's fields before D, its last, are the construct record
    names = [f.name for f in dataclasses.fields(construct.DominationReport)]
    assert names == [*CONSTRUCT_KEYS, "D"]
    constants = ["--c", "0.027", "--C", "0.05", "--c0", "0.02"]
    argv = ["construct", "--n", "10000", "--random-chords", "2000", "--seed",
            "1", "--method", method, *(constants * (method == "universal2"))]
    assert main(argv) == 0
    assert list(json.loads(capsys.readouterr().out)) == CONSTRUCT_KEYS


def test_construct_greedy_cycle(cycle_file):
    res = run_cli("construct", "--n", "9", "--chords-file", cycle_file,
                  "--method", "greedy")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["verified"] is True and doc["size"] == 3


def test_construct_random_chords_deterministic():
    args = ("construct", "--n", "10000", "--random-chords", "100",
            "--seed", "42", "--method", "greedy", "--no-timing")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout  # byte-identical
    assert json.loads(a.stdout)["verified"] is True


def test_construct_degenerate_exit_1():
    res = run_cli("construct", "--n", "8", "--random-chords", "3",
                  "--seed", "1", "--method", "paper")
    assert res.returncode == 1
    assert "DegenerateInstance" in res.stderr


def test_construct_universal2_defaults_exit_2():
    res = run_cli("construct", "--n", "10000", "--random-chords", "50",
                  "--seed", "1", "--method", "universal2")
    assert res.returncode == 2
    assert "HypothesisNotMet" in res.stderr


def test_construct_flag_validation():
    res = run_cli("construct", "--n", "16", "--method", "paper")
    assert res.returncode == 1
    res = run_cli("construct", "--n", "16", "--random-chords", "3",
                  "--method", "paper")  # missing --seed
    assert res.returncode == 1


def test_construct_bad_chord_file(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1\n1\n")
    res = run_cli("construct", "--n", "16", "--chords-file", str(p),
                  "--method", "greedy")
    assert res.returncode == 1
    assert "line 1" in res.stderr


def test_audit_card():
    res = run_cli("audit", "--check", "card", "--n-list", "101,1009",
                  "--l-list", "3,5")
    assert res.returncode == 0, res.stderr
    lines = [json.loads(l) for l in res.stdout.splitlines()]
    assert len(lines) == 4
    assert all(l["exact"] for l in lines)


def test_audit_card_empty_window_passes(capsys):
    # n = 102 is even, so L = 1 has an empty window: the empty W is exact
    rc = main(["audit", "--check", "card", "--n-list", "102",
               "--l-list", "3,1"])
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert rc == 0
    assert lines[0]["hypothesis_ok"] and lines[0]["exact"]
    assert lines[1] == {"check": "card", "n": 102, "L": 1, "num_primes": 0,
                        "w_size": 0, "expected": 0, "hypothesis_ok": True,
                        "exact": True}


def test_audit_expsum_empty_window_keeps_other_points(capsys):
    # n = 16384 is even, so L = 1 has the empty W, whose sums are all 0:
    # its line passes and n = 16381's line is printed too
    rc = main(["audit", "--check", "expsum", "--n-list", "16381,16384",
               "--l-list", "1"])
    captured = capsys.readouterr()
    first, second = map(json.loads, captured.out.splitlines())
    assert rc == 0 and captured.err == ""
    assert (first["n"], first["w_size"]) == (16381, 1)
    assert {k: second[k] for k in ("n", "w_size", "max_abs", "argmax_a",
                                   "ratio", "direct_check_err")} == {
        "n": 16384, "w_size": 0, "max_abs": 0.0, "argmax_a": 1,
        "ratio": 0.0, "direct_check_err": 0.0}


def test_audit_failed_line_prints_whole_grid(monkeypatch, capsys):
    # the first of two lines fails: both are printed, the exit code is 1
    def first_fails(n, L):
        audit = expsum_audit(n, L)
        return dataclasses.replace(audit, direct_check_err=float(n == 101))

    expsum_audit = cli.expsum_audit
    monkeypatch.setattr(cli, "expsum_audit", first_fails)
    rc = main(["audit", "--check", "expsum", "--n-list", "101,1009",
               "--l-list", "3"])
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert rc == 1
    assert [l["n"] for l in lines] == [101, 1009]
    assert [l["direct_check_err"] > 0.5 for l in lines] == [True, False]


def test_audit_direct_sums_catch_one_bad_magnitude(monkeypatch, capsys):
    # |S(a)| off by 1e-3 at one seeded a other than argmax_a fails the
    # line; it moves sum_a |S(a)|^2 by ~0.02, under Parseval's 1e-6 n |W|
    n, L = 16381, 16
    argmax_a = expsum.expsum_audit(n, L).argmax_a
    a = next(int(a) for a in np.random.default_rng(n).integers(1, n, size=4)
             if a != argmax_a)
    magnitudes = expsum._magnitudes

    def off_at_a(W):
        mags = magnitudes(W)
        mags[a] += 1e-3
        return mags

    monkeypatch.setattr(expsum, "_magnitudes", off_at_a)
    rc = main(["audit", "--check", "expsum", "--n-list", str(n),
               "--l-list", str(L)])
    line = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert line["argmax_a"] == argmax_a
    assert line["direct_check_err"] == pytest.approx(1e-3, rel=1e-6)


def test_audit_expsum_cap():
    res = run_cli("audit", "--check", "expsum", "--n-list", str(AUDIT_CAP + 1),
                  "--l-list", "5")
    assert res.returncode == 1
    assert "AuditTooLarge" in res.stderr
    assert res.stderr.startswith("error: AuditTooLarge: ")
    # the cap is fixed: --cap is no flag of audit
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--check", "expsum", "--n-list", "101", "--l-list",
              "3", "--cap", "64"])
    assert exc.value.code == 2


def test_audit_expsum_fields():
    res = run_cli("audit", "--check", "expsum", "--n-list", "101",
                  "--l-list", "3")
    assert res.returncode == 0, res.stderr
    line = json.loads(res.stdout.splitlines()[0])
    for field in ("n", "L", "w_size", "max_abs", "argmax_a", "bound", "ratio",
                  "direct_check_err"):
        assert field in line


def test_audit_lines_start_with_check(capsys):
    grids = {"card": ("--l-list", "3"), "expsum": ("--l-list", "3"),
             "exceptional": ("--k-list", "20"), "nu": ("--k-list", "2000")}
    for check, axis in grids.items():
        n = "10000" if check == "nu" else "1009"
        assert main(["audit", "--check", check, "--n-list", n, *axis]) == 0
        for line in capsys.readouterr().out.splitlines():
            assert next(iter(json.loads(line))) == "check", check


def test_audit_nu_ends_with_universal2_constants(capsys):
    assert main(["audit", "--check", "nu", "--n-list", "10000",
                 "--k-list", "2000"]) == 0
    line = json.loads(capsys.readouterr().out)
    names = [f.name for f in dataclasses.fields(construct.Universal2Constants)]
    assert list(line)[-3:] == names
    assert list(line)[-6:-3] == ["c", "C", "c0"]


def test_audit_nu_smoke():
    res = run_cli("audit", "--check", "nu", "--n-list", "10000",
                  "--k-list", "2000", "--trials", "3", "--seed", "7")
    assert res.returncode == 0, res.stderr
    lines = [json.loads(l) for l in res.stdout.splitlines()]
    assert len(lines) == 3
    for l in lines:
        assert l["min_nu"] > 0 and l["two_dominates"]
        assert l["used_fallback_constants"]  # c = C = 1 infeasible here


def test_audit_nu_rounding_guard_exits_1(monkeypatch, capsys):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.3)
    rc = main(["audit", "--check", "nu", "--n-list", "10000",
               "--k-list", "2000", "--trials", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "error: InexactCounts: FFT representation counts" in captured.err


def test_audit_nu_hypothesis_not_met_exits_2(monkeypatch, capsys):
    # the fallback constants fail too: same exit as construct's
    def refuse(n, k, **kwargs):
        raise HypothesisNotMet(f"refused n={n}")

    monkeypatch.setattr(construct, "construct_universal_2dom", refuse)
    rc = main(["audit", "--check", "nu", "--n-list", "10000",
               "--k-list", "2000"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "HypothesisNotMet: refused n=10000\n"


NU_16_ERROR = {"check": "nu", "n": 16, "k": 3, "error": "EmptyPrimeWindow"}


def test_audit_nu_empty_window_exits_1(capsys):
    # the fallback constants reach L = 1 at n = 16, whose window [2, 2]
    # holds no prime coprime to 16: nu reports this on its line, as card
    # does, but fails it, since there is no W to 2-dominate
    rc = main(["audit", "--check", "nu", "--n-list", "16", "--k-list", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert [json.loads(l) for l in captured.out.splitlines()] == [NU_16_ERROR]
    assert captured.err == ""


def test_audit_nu_empty_window_keeps_other_points(capsys):
    # one point without a W loses no other point's line
    rc = main(["audit", "--check", "nu", "--n-list", "10000,16",
               "--k-list", "3", "--trials", "1"])
    captured = capsys.readouterr()
    first, second = map(json.loads, captured.out.splitlines())
    assert rc == 1
    assert (first["n"], first["k"], first["trial"]) == (10000, 3, 0)
    assert "error" not in first
    assert second == NU_16_ERROR
    assert captured.err == ""


@pytest.mark.parametrize("args", [
    ("construct", "--n", "50", "--random-chords", "3", "--seed", "1",
     "--method", "greedy"),
    ("gamma", "--n", "9", "--random-chords", "2", "--seed", "1"),
    ("audit", "--check", "card", "--n-list", "101", "--l-list", "3"),
    ("bench", "--n-list", "100", "--k-list", "5", "--methods", "greedy"),
], ids=["construct", "gamma", "audit", "bench"])
def test_unwritable_out(args, tmp_path):
    # --out below a regular file cannot be created: one error line, exit 1
    (tmp_path / "afile").write_text("")
    res = run_cli(*args, "--out", str(tmp_path / "afile" / "x.out"))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [
    ("construct", "--random-chords", "10", "--seed", "1", "--method", "paper",
     "--n"),
    ("gamma", "--random-chords", "2", "--seed", "1", "--n"),
    ("audit", "--check", "card", "--l-list", "3", "--n-list"),
    ("bench", "--k-list", "10", "--n-list"),
], ids=["construct", "gamma", "audit", "bench"])
def test_input_size_guard(args):
    # rejected in main before any array of length n is allocated
    res = run_cli(*args, str(MAX_N + 1))
    assert res.returncode == 1
    assert res.stdout == ""
    assert f"error: TooLarge: n={MAX_N + 1} exceeds MAX_N={MAX_N}" in res.stderr


@pytest.mark.parametrize("check", ["card", "expsum"])
def test_l_list_size_guard(check, capsys, monkeypatch):
    # build_W sieves (L, 2L] whatever n is: L is range-checked like n, up
    # front, so not even the good L = 3 point is built
    built, build_W = [], construct.build_W
    for module in (construct, expsum):
        monkeypatch.setattr(module, "build_W",
                            lambda n, L: built.append(L) or build_W(n, L))
    for bad, message in [
            (MAX_N + 1, f"TooLarge: L={MAX_N + 1} exceeds MAX_N={MAX_N}"),
            (0, "ValueError: L must be >= 1")]:
        rc = main(["audit", "--check", check, "--n-list", "101",
                   "--l-list", f"3,{bad}"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    assert built == []


# each theorem constant, with a command that reads it, and its bad values
CONSTRUCT_100 = ("construct", "--n", "100", "--random-chords", "5",
                 "--seed", "1", "--method")
NU_10000 = ("audit", "--check", "nu", "--n-list", "10000", "--k-list", "2000")
BAD_CONSTANT_FLAGS = [
    *[("construct", (*CONSTRUCT_100, "universal2"), f) for f in
      ("--c", "--C", "--c0")],
    ("construct", (*CONSTRUCT_100, "almost-w"), "--psi"),
    *[("nu", NU_10000, f) for f in ("--c", "--C", "--c0")],
]
BAD_CONSTANTS = {"nan": "nan", "inf": "inf", "0": "0", "-1": "negative"}


@pytest.mark.parametrize("args, message", [
    (("construct", "--n", "-5", "--random-chords", "2", "--seed", "1",
      "--method", "greedy"), "error: ValueError: n=-5 is below 2"),
    (("audit", "--check", "card", "--n-list", "-5", "--l-list", "3"),
     "error: ValueError: n=-5 is below 2"),
    (("gamma", "--n", "1", "--random-chords", "1", "--seed", "1"),
     "error: ValueError: n=1 is below 2"),
    (("construct", "--n", "50", "--random-chords", "3", "--seed", "1",
      "--method", "greedy", "--r", "0"), "error: ValueError: r must be >= 1"),
    (("audit", "--check", "card", "--n-list", "101", "--l-list", "0"),
     "error: ValueError: L must be >= 1"),
    (("gamma", "--n", "5", "--random-chords", "9", "--seed", "1"),
     "error: ValueError: require 1 <= k <= n - 1"),
    # a grid with no points is an error, not an empty success
    (("audit", "--check", "card", "--n-list", "", "--l-list", "3"),
     "error: ValueError: --n-list is empty"),
    (("audit", "--check", "card", "--n-list", "101"),
     "error: ValueError: --l-list is empty"),
    (("audit", "--check", "expsum", "--n-list", "101"),
     "error: ValueError: --l-list is empty"),
    (("audit", "--check", "exceptional", "--n-list", "1009"),
     "error: ValueError: --k-list is empty"),
    (("audit", "--check", "nu", "--n-list", "10000"),
     "error: ValueError: --k-list is empty"),
    (("audit", "--check", "exceptional", "--n-list", "1009", "--k-list",
      "10", "--trials", "0"), "error: ValueError: --trials=0 is below 1"),
    (("audit", "--check", "nu", "--n-list", "10000", "--k-list", "2000",
      "--trials", "-1"), "error: ValueError: --trials=-1 is below 1"),
    # a chord count outside [1, n - 1] is refused before W is built
    *[(("audit", "--check", "nu", "--n-list", "10000", "--k-list", k),
       "error: ValueError: require 1 <= k < n") for k in ("0", "-3", "20000")],
    (("bench", "--n-list", "", "--k-list", "25"),
     "error: ValueError: --n-list is empty"),
    (("bench", "--n-list", "1000", "--k-list", ""),
     "error: ValueError: --k-list is empty"),
    (("bench", "--n-list", "1000", "--k-list", "25", "--seeds", ""),
     "error: ValueError: --seeds is empty"),
    (("bench", "--n-list", "1000", "--k-list", "25", "--methods", ""),
     "error: ValueError: --methods is empty"),
    (("bench", "--n-list", "1000", "--k-list", "25", "--methods",
      "greedy,gredy"), "error: ValueError: --methods: unknown method "
     "'gredy'; choose from paper, greedy, random, universal2, almost-w"),
    # a flag the chosen check does not read is an error, not ignored
    (("audit", "--check", "card", "--n-list", "101", "--l-list", "3",
      "--k-list", "5", "--trials", "7"),
     "error: ValueError: --k-list is not read by --check card"),
    (("audit", "--check", "card", "--n-list", "101", "--l-list", "3",
      "--trials", "1"),
     "error: ValueError: --trials is not read by --check card"),
    (("audit", "--check", "expsum", "--n-list", "101", "--l-list", "3",
      "--seed", "2"), "error: ValueError: --seed is not read by --check expsum"),
    (("audit", "--check", "exceptional", "--n-list", "1009", "--k-list",
      "10", "--c0", "0.5"),
     "error: ValueError: --c0 is not read by --check exceptional"),
    (("audit", "--check", "nu", "--n-list", "10000", "--k-list", "2000",
      "--l-list", "4"), "error: ValueError: --l-list is not read by --check nu"),
    # so is a construct flag the chosen method does not read, and
    # --symmetric with a chord file, whose set {1, 5} is not symmetric
    (("construct", "--n", "100", "--random-chords", "5", "--seed", "1",
      "--method", "paper", "--psi", "7", "--c", "0.1"),
     "error: ValueError: --psi is not read by --method paper"),
    (("construct", "--n", "100", "--random-chords", "5", "--seed", "1",
      "--method", "almost-w", "--C", "2"),
     "error: ValueError: --C is not read by --method almost-w"),
    (("construct", "--n", "100", "--random-chords", "5", "--seed", "1",
      "--method", "universal2", "--psi", "1"),
     "error: ValueError: --psi is not read by --method universal2"),
    (("construct", "--n", "100", "--random-chords", "5", "--seed", "1",
      "--method", "random", "--c0", "0.5"),
     "error: ValueError: --c0 is not read by --method random"),
    (("construct", "--n", "20", "--chords-file", "chords.txt",
      "--symmetric", "--method", "greedy"),
     "error: ValueError: --symmetric is not read without --random-chords"),
    (("gamma", "--n", "20", "--chords-file", "chords.txt", "--symmetric"),
     "error: ValueError: --symmetric is not read without --random-chords"),
    # a theorem constant must be a positive finite number
    *[((*argv, flag, value), f"error: ValueError: {flag}={float(value)} "
       "is not a positive finite number")
      for _, argv, flag in BAD_CONSTANT_FLAGS for value in BAD_CONSTANTS],
], ids=["construct-n", "audit-n", "gamma-n", "construct-r", "audit-L",
        "gamma-k", "audit-empty-n", "card-empty-L", "expsum-empty-L",
        "exceptional-empty-k", "nu-empty-k", "exceptional-trials-0",
        "nu-trials-negative", "nu-k-0", "nu-k-negative", "nu-k-above-n",
        "bench-empty-n", "bench-empty-k",
        "bench-empty-seeds", "bench-empty-methods", "bench-unknown-method",
        "card-reads-no-k-list", "card-reads-no-trials", "expsum-reads-no-seed",
        "exceptional-reads-no-c0", "nu-reads-no-l-list",
        "paper-reads-no-psi", "almost-w-reads-no-C", "universal2-reads-no-psi",
        "random-reads-no-c0", "construct-symmetric-file",
        "gamma-symmetric-file",
        *[f"{name}-{flag[2:]}-{kind}" for name, _, flag in BAD_CONSTANT_FLAGS
          for kind in BAD_CONSTANTS.values()]])
def test_input_floor(args, message, capsys, monkeypatch, tmp_path):
    # bad small inputs end in one error line and exit 1, not a traceback,
    # before any method runs: --r 0 does not wait for a full construction
    (tmp_path / "chords.txt").write_text("1\n5\n")
    monkeypatch.chdir(tmp_path)
    ran = []
    monkeypatch.setattr(cli, "_run_method", lambda *a, **kw: ran.append(a))
    rc = main(list(args))
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.strip() == message
    assert ran == []


# finite constants whose derived L or budget overflows a float
def test_universal2_infinite_L_fails_card_check(capsys):
    rc = main(["construct", "--n", "10000", "--random-chords", "2000",
               "--seed", "1", "--method", "universal2", "--c", "1e308",
               "--C", "1e-9"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("HypothesisNotMet: L=inf >= 0.5*sqrt(n) for "
                            "n=10000; distinctness lemma fails\n")


def test_audit_nu_infinite_L_falls_back(capsys):
    # the fallback constants replace (c, C, c0) in every line
    assert main([*NU_10000, "--c", "1e308", "--C", "1e-9"]) == 0
    overflowed = capsys.readouterr().out
    assert main(list(NU_10000)) == 0
    assert overflowed == capsys.readouterr().out


def test_almost_w_infinite_budget(capsys):
    rc = main([*CONSTRUCT_100, "almost-w", "--psi", "1e308"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.strip() == (
        "error: ValueError: budget is not a finite number; decrease psi")


def test_almost_w_empty_window_reports_empty_set(capsys):
    # budget 1.5 bisects to L = 1, whose window [2, 2] divides n = 10^4:
    # the set is empty, and the budget, not domination, sets the exit code
    psi = 3.0141587594817143e-06
    assert construct.almost_budget(10**4, 50, psi) == pytest.approx(1.5)
    rc = main(["construct", "--n", "10000", "--random-chords", "50",
               "--seed", "1", "--method", "almost-w", "--psi", str(psi)])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert rc == 0 and captured.err == ""
    assert (doc["size"], doc["verified"]) == (0, False)
    assert doc["parameters"]["L"] == 1
    assert doc["parameters"]["num_primes"] == 0
    assert doc["parameters"]["coverage_fraction"] == 0.0


def test_audit_expsum_below_scale_floor(capsys):
    rc = main(["audit", "--check", "expsum", "--n-list", "2", "--l-list", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "error: DegenerateInstance: n must be >= 16, got 2" in captured.err


def test_bench_csv_schema_and_determinism(tmp_path):
    out = tmp_path / "bench.csv"
    args = ("bench", "--n-list", "1000,2000", "--k-list", "20",
            "--methods", "paper,greedy", "--seeds", "1,2",
            "--no-timing", "--out", str(out))
    res = run_cli(*args)
    assert res.returncode == 0, res.stderr
    text1 = out.read_text()
    assert text1.splitlines()[0] == BENCH_HEADER
    assert len(text1.splitlines()) == 1 + 2 * 1 * 2 * 2
    run_cli(*args)
    assert out.read_text() == text1  # byte-identical rerun


def test_bench_reports_bad_k_in_row(capsys):
    rc = main(["bench", "--n-list", "10", "--k-list", "20", "--no-timing"])
    rows = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert rows[1].endswith(",ValueError: require 1 <= k <= n - 1")


@pytest.mark.parametrize("method, n, k", [
    ("paper", 2000, 25), ("greedy", 2000, 25), ("random", 2000, 25),
    # below construct.MIN_N the envelope is meaningless (negative at n = 2)
    ("greedy", 2, 1), ("greedy", 15, 1)],
    ids=["paper", "greedy", "random", "greedy-n2", "greedy-n15"])
def test_bench_row_is_construct_record(method, n, k, capsys):
    grid = ("--n", str(n), "--random-chords", str(k), "--seed", "3")
    assert main(["construct", *grid, "--method", method, "--no-timing"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(["bench", "--n-list", str(n), "--k-list", str(k), "--methods",
                 method, "--seeds", "3", "--no-timing"]) == 0
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    record = {**doc["parameters"], **doc}
    for field in ("size", "verified", "wall_ms", "L", "w_size", "u_size"):
        assert row[field] == str(record.get(field, "")), field
    ratio = (str(doc["size"] / construct.dom_size_envelope(n, k))
             if n >= construct.MIN_N else "")
    assert row["ratio_vs_envelope"] == ratio


@pytest.mark.parametrize("timing", [[], ["--no-timing"]],
                         ids=["timed", "no-timing"])
def test_bench_error_row_cells_empty(timing, capsys):
    # at n = 16 even universal2's fallback constants fail: L = 1 leaves
    # no prime in [2, 2] coprime to n
    rc = main(["bench", "--n-list", "16", "--k-list", "3",
               "--methods", "universal2,greedy", *timing])
    failed, passed = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert rc == 0
    assert failed["error"].startswith("EmptyPrimeWindow: no primes in [2, 2]")
    assert all(failed[c] == "" for c in BENCH_COLUMNS[4:-1])  # wall_ms too
    assert passed["error"] == "" and passed["wall_ms"] != ""


def test_bench_universal2_falls_back_as_audit_nu(capsys):
    # c = C = c0 = 1 fail at n = 10^4, k = 2000: bench builds W at the
    # constants audit --check nu falls back to; construct keeps exit 2
    grid = ["--n-list", "10000", "--k-list", "2000"]
    assert main(["bench", *grid, "--methods", "universal2", "--no-timing"]) == 0
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert main(["audit", "--check", "nu", *grid]) == 0
    (line,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert line["used_fallback_constants"] and line["two_dominates"]
    assert row["error"] == "" and row["verified"] == "True"
    assert int(row["L"]) == line["L"]
    assert int(row["size"]) == int(row["w_size"]) == line["w_size"]
    assert main(["construct", "--n", "10000", "--random-chords", "2000",
                 "--seed", "0", "--method", "universal2"]) == 2


def parse_outcome(parse, argv, capsys):
    """(stdout, stderr, exit code) of parse(argv), which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    out, err = capsys.readouterr()
    return out, err, exc.value.code


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["nope"], ["nope", "--n", "9"],
    *([cmd, "--help"] for cmd in ("construct", "audit", "bench", "gamma")),
    ["construct", "--n", "x", "--method", "paper"],
    ["construct", "--n", "9", "--method", "paper", "extra"],
    ["audit", "--check", "bogus", "--n-list", "101"],
    ["bench", "--n-list"],
    ["gamma"],
], ids=lambda argv: " ".join(argv) or "empty")
def test_main_parses_as_full_parser(argv, capsys):
    # main reuses one parser for the whole process; help, usage lines and
    # errors read the same as a freshly built parser's, byte for byte
    want = parse_outcome(lambda a: cli.build_parser().parse_args(a), argv,
                         capsys)
    assert parse_outcome(main, argv, capsys) == want
    assert want[2] == (0 if "--help" in argv else 2)
    assert want[0 if "--help" in argv else 1]


def test_parser_built_once_and_not_at_import():
    # build_parser is counted by its code object, so that calls made
    # while the module imports are seen too
    code = """if True:
        import sys
        calls = []
        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "build_parser":
                calls.append(frame.f_code.co_filename)
        sys.setprofile(profile)
        from circdom import cli
        print(len(calls))
        for _ in range(3):
            cli.main(["gamma", "--n", "9", "--random-chords", "2",
                      "--seed", "1"])
        sys.setprofile(None)
        print(len(calls), calls[0].endswith("cli.py"))
    """
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == "0"
    assert res.stdout.splitlines()[-1] == "1 True"


def test_reused_parser_leaks_nothing_between_calls(capsys):
    # each argv gives in one process what it gives in its own process: no
    # default, namespace or half-parsed state carries over to the next call
    grid = ["bench", "--n-list", "100", "--k-list", "5", "--no-timing"]
    for argv in ([*grid, "--methods", "greedy"], ["bench", "--n-list"], grid):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        alone = run_cli(*argv)
        assert (out, err, rc) == (alone.stdout, alone.stderr,
                                  alone.returncode), argv


def test_main_runs_a_command_rebound_after_the_parser_is_built(
        monkeypatch, capsys):
    # circbench's tracer rebinds each cmd_* on the module between calls
    argv = ["gamma", "--n", "9", "--random-chords", "2", "--seed", "1"]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "cmd_gamma", lambda args: ("rebound\n", 0))
    assert main(argv) == 0
    assert capsys.readouterr().out == "rebound\n"


def test_bench_scaling_argv_parses():
    # criterion 8 reads the CSV this script writes
    spec = importlib.util.spec_from_file_location(
        "run_bench_scaling", ROOT / "scripts" / "run_bench_scaling.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    args = cli.build_parser().parse_args(script.ARGV)
    assert args.out == str(ROOT / "artifacts" / "bench_scaling.csv")


def test_import_loads_no_process_pool_or_fft():
    # bench, construct and gamma need neither; they load on use
    code = ("import sys, circdom.cli; "
            "print([m for m in ('multiprocessing', 'numpy.fft') "
            "if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_gamma_subcommand(cycle_file):
    res = run_cli("gamma", "--n", "9", "--chords-file", cycle_file)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["gamma"] == 3
    # ceil(9 / 3); the old field n/k - 1 = 3.5 exceeded gamma here
    assert doc["lower_bound"] == 3
    assert "lower_bound_n_over_k_minus_1" not in doc
    res = run_cli("gamma", "--n", "25", "--random-chords", "2", "--seed", "1")
    assert res.returncode == 1
    assert "TooLarge" in res.stderr


def test_out_dir_env(tmp_path, cycle_file):
    res = run_cli("construct", "--n", "9", "--chords-file", cycle_file,
                  "--method", "greedy", "--out", "rep.json",
                  env_extra={"CIRCDOM_OUT_DIR": str(tmp_path)})
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "rep.json").exists()
