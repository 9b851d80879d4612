"""Tests of the benchmark itself: oracles, tracer and printed metrics.

    python3 -m pytest circbench/tests -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import circdom
import circdom.cli
import oracles
import run
from circdom.construct import all_representation_counts, build_W
from circdom.expsum import expsum_audit
from circdom.graph import ChordSet, CirculantSpec
from circdom.verify import exact_gamma
from tracer import Tracer, traced_functions
from run import Result
from workloads import WORKLOADS, Job, build_jobs, load_gamma_table

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = circdom.cli.main(argv)
    return rc, out.getvalue()


def test_domination_oracle_rejects_planted_non_dominating_set():
    n, chords = 40, (1, 7)
    rep = circdom.greedy_dominating(CirculantSpec(n, ChordSet(n, chords)))
    members = rep.D.members.copy()
    doc = {"verified": True, "uncovered_count": 0, "size": int(members.sum())}
    assert oracles.domination_problems(doc, members, chords) == []

    members[np.flatnonzero(members)[0]] = False  # planted hole
    assert oracles.uncovered_count(members, chords) > 0
    problems = oracles.domination_problems(doc, members, chords)
    assert any("misses" in p for p in problems)
    assert any("size" in p for p in problems)


def test_fft_oracle_flags_wrong_max_abs():
    audit = expsum_audit(4099, 8)
    line = {"n": audit.n, "L": audit.L, "w_size": audit.w_size,
            "max_abs": audit.max_abs, "argmax_a": audit.argmax_a}
    assert oracles.expsum_problems(line) == []
    assert oracles.expsum_problems({**line, "argmax_a": 4099 - audit.argmax_a}) == []

    problems = oracles.expsum_problems({**line, "max_abs": audit.max_abs + 1e-3})
    assert any("max_abs" in p for p in problems)
    problems = oracles.expsum_problems({**line, "argmax_a": audit.argmax_a + 1})
    assert any("argmax_a" in p for p in problems)


def test_ratio_set_matches_build_W():
    for n, L in ((4099, 8), (16384, 16)):
        assert np.array_equal(oracles.ratio_set(n, L), build_W(n, L).elements.members)


def test_fft_representation_counts_match_library():
    n = 211
    S = ChordSet(n, (3, 17, 40, 101, 150))
    W = build_W(n, 5)
    ours = oracles.representation_counts(n, S.chords, W.elements.members)
    assert np.array_equal(ours, all_representation_counts(n, S, W))


def test_gamma_table_agrees_with_both_solvers():
    table = load_gamma_table()
    assert len(table) == 21 * 20 // 2
    for key in ("1,2", "1,3", "2,9", "5,17"):
        chords = tuple(map(int, key.split(",")))
        spec = CirculantSpec(22, ChordSet(22, chords))
        assert oracles.exact_gamma_bb(22, chords) == table[key] == exact_gamma(spec)
    assert oracles.exact_gamma_bb(9, (1, 8)) == 3

    doc = {"n": 22, "k": 2, "gamma": table["1,2"]}
    assert oracles.gamma_problems(doc, 9, table["1,2"]) == []
    assert oracles.gamma_problems({**doc, "gamma": 7}, 9, table["1,2"])


def test_traced_construct_job_verifies_twice():
    # cmd_construct calls is_dominating again after the method verified.
    tracer = Tracer(circdom)
    for method in ("paper", "greedy", "random"):
        tracer.reset()
        with tracer:
            rc, _ = _cli(["construct", "--n", "2000", "--random-chords", "20",
                          "--seed", "3", "--method", method])
        assert rc == 0
        stats = tracer.self_times()
        assert stats["verify.is_dominating"][0] == 2, method
        assert stats["cli.main"][0] == 1


def test_rebound_names_are_restored():
    modules = [m for name, m in sys.modules.items()
               if name == "circdom" or name.startswith("circdom.")]
    before = [dict(vars(m)) for m in modules]
    originals = traced_functions(circdom)
    with Tracer(circdom):
        for site in ("verify", "construct", "baselines", "cli"):
            bound = getattr(sys.modules[f"circdom.{site}"], "is_dominating")
            assert bound is not originals["verify.is_dominating"]
        assert sys.modules["circdom.expsum"].build_W is not originals["construct.build_W"]
    after = [dict(vars(m)) for m in modules]
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(b[key] is a[key] for key in b)


def test_job_lists_are_seeded_and_gamma_classes_balanced():
    for workload in WORKLOADS:
        assert build_jobs(workload, 4) == build_jobs(workload, 4)
    jobs = build_jobs("reference", 4)
    assert jobs != build_jobs("reference", 5)
    table = load_gamma_table()
    gammas = [j.argv for j in jobs if j.kind == "gamma"]
    classes = [table[",".join(map(str, circdom.random_chord_set(
        22, 2, int(argv[-1])).chords))] for argv in gammas]
    assert classes == [8, 9, 10, 11]
    with pytest.raises(ValueError):
        build_jobs("nope", 1)


def test_pass_time_sums_each_jobs_fastest_run():
    jobs = [Job("greedy", ("a",)), Job("gamma", ("b",)), Job("gamma", ("c",))]
    plain = [(0.0, [Result(0, t, "", "") for t in times])
             for times in ((3.0, 1.0, 5.0), (2.0, 4.0, 6.0), (9.0, 2.0, 4.0))]
    assert run.best_seconds(plain, jobs) == 2.0 + 1.0 + 4.0
    assert run.best_seconds(plain, jobs, ("gamma",)) == 1.0 + 4.0


def test_pass_over_v0_weights_paired_ratios_by_v0_time():
    def results(*times):
        return [Result(0, t, "", "") for t in times]
    v0 = [results(3.0, 1.0), results(4.0, 2.0), results(5.0, 1.0)]
    plain = [(0.0, results(1.5, 1.0)), (0.0, results(2.0, 2.0)),
             (0.0, results(10.0, 1.0))]
    # Job 0: ratios 0.5, 0.5, 2 -> 0.5 at weight 3/4; job 1: 1 at 1/4.
    assert run.over_v0(plain, v0) == 0.75 * 0.5 + 0.25 * 1.0


def _run_bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "circbench/run.py", "--workload", "spectral-audit",
         "--seed", "1", "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    proc = _run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "circbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
