"""scripts/run_bench.py: its spy, its argument checks, a tree that fails
and one run over every grid, gamma and greedy point. Structure only: no
time is asserted."""

import importlib.util
import itertools
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "run_bench.py"
COUNTERS = ("marks", "checks", "survivors", "ored_before_switch",
            "prefix_draws", "prefix_redraws")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("run_bench", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_spy_records_calls_and_restores(bench):
    def scale(x, by=2):
        return by * x

    module = types.SimpleNamespace(scale=scale)
    with bench.spy(module, "scale") as calls:
        assert module.scale(3) == 6 and module.scale(4, by=3) == 12
    assert module.scale is scale
    assert [(args, result) for args, result, _ in calls] == [((3,), 6),
                                                              ((4,), 12)]
    assert all(ms >= 0 for *_, ms in calls)


def test_spy_restores_when_the_call_raises(bench):
    def fail():
        raise ValueError("boom")

    module = types.SimpleNamespace(fail=fail)
    with pytest.raises(ValueError, match="boom"):
        with bench.spy(module, "fail") as calls:
            module.fail()
    assert module.fail is fail and calls == []


def test_spy_yields_none_for_a_missing_name(bench):
    module = types.SimpleNamespace()
    with bench.spy(module, "absent") as calls:
        assert calls is None
    assert not hasattr(module, "absent")


@pytest.mark.parametrize("argv", [
    ["--repeats", "0"],
    ["--tree", "justname"],
    ["--tree", "=src"],
    ["--tree", "a="],
    ["--tree", "a=x", "--tree", "a=y"],
], ids=["repeats-0", "no-equals", "no-name", "no-src", "same-name"])
def test_bad_arguments_exit_2_with_usage(bench, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        bench.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage:")


@pytest.mark.parametrize("output", ["greedy_size", "rounds"])
def test_trees_disagreeing_on_a_greedy_output_stop_the_run(bench, output):
    point = {"shared": {"name": "greedy_5000_100", "greedy_size": 131,
                        "rounds": 131},
             "outputs": {}, "counters": {}, "wall_ms": {"greedy": [3.0]}}
    other = {**point, "shared": {**point["shared"], output: 132}}
    with pytest.raises(SystemExit, match="tree b disagrees"):
        bench.summarise({"a": "x", "b": "y"}, {"a": [[point]], "b": [[other]]})


def _grid_point(**outputs):
    return {"shared": {"n": 10**5, "k": 100, "theorem_L": 3562,
                       "random_size": 11_653, "random_size_over_lb": 11.76,
                       "draws": 12_402},
            "outputs": {"L": 159, "num_primes": 29, "size": 5457,
                        "size_over_n": 0.05457, "size_over_lb": 5.51,
                        **outputs},
            "counters": {"marks": 4611}, "wall_ms": {"build_w": [1.0]}}


def test_trees_may_differ_on_the_construct_outputs(bench):
    # a tree that picks another construct L is recorded with its own L
    # and size, next to the shared outputs both trees gave
    theorem = {"L": 3562, "num_primes": 413, "size": 99_308}
    points = bench.summarise({"a": "x", "b": "y"},
                             {"a": [[_grid_point(**theorem)]] * 2,
                              "b": [[_grid_point()]] * 2})
    assert [point["theorem_L"] for point in points] == [3562]
    trees = points[0]["trees"]
    assert [trees[name][key] for name in "ab" for key in ("L", "size")] == [
        3562, 99_308, 159, 5457]
    assert trees["a"]["marks"] == 4611
    assert trees["a"]["wall_ms"]["build_w"]["median"] == 1.0


def test_a_run_disagreeing_with_its_tree_stops_the_run(bench):
    with pytest.raises(SystemExit, match="a run of tree b disagrees"):
        bench.summarise({"a": "x", "b": "y"},
                        {"a": [[_grid_point()]] * 2,
                         "b": [[_grid_point()], [_grid_point(size=5458)]]})


@pytest.mark.parametrize("output", ["theorem_L", "random_size", "draws"])
def test_trees_disagreeing_on_a_shared_grid_output_stop_the_run(bench,
                                                                output):
    other = _grid_point()
    other["shared"] = {**other["shared"], output: 1}
    with pytest.raises(SystemExit, match="tree b disagrees"):
        bench.summarise({"a": "x", "b": "y"},
                        {"a": [[_grid_point()]], "b": [[other]]})


def test_failing_tree_is_named_with_its_stderr(tmp_path):
    (tmp_path / "circdom").mkdir()
    (tmp_path / "circdom" / "__init__.py").write_text(
        'raise RuntimeError("broken tree")\n')
    res = subprocess.run([sys.executable, str(SCRIPT), "--repeats", "1",
                          "--tree", f"broken={tmp_path}"],
                         capture_output=True, text=True)
    assert res.returncode == 1
    assert f"error: tree broken ({tmp_path}) failed:" in res.stderr
    assert "RuntimeError: broken tree" in res.stderr


def test_every_point_and_job_and_null_for_a_missing_name(bench, tmp_path):
    # a copy of src/ whose construct has no _sieve: its phase-2 time and
    # survivors are null, and everything else matches src/
    tree = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "circdom", tree / "circdom",
                    ignore=shutil.ignore_patterns("__pycache__"))
    construct = tree / "circdom" / "construct.py"
    construct.write_text(
        re.sub(r"\b_sieve\b", "_test_left", construct.read_text()))
    with open(tree / "circdom" / "graph.py", "a") as graph:
        graph.write("\n_test_left = _sieve\n")
    out = tmp_path / "bench.json"
    assert bench.main(["--repeats", "1", "--tree", f"src={ROOT / 'src'}",
                       "--tree", f"renamed={tree}", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["trees"] == ["src", "renamed"] and doc["repeats"] == 1
    points = iter(doc["points"])
    grid = list(itertools.islice(points, len(bench.GRID)))
    gamma = list(itertools.islice(points, len(bench.GAMMA_SETS)))
    greedy = list(points)
    assert [(p["n"], p["k"]) for p in grid] == bench.GRID
    assert [p["name"] for p in gamma] == list(bench.GAMMA_SETS)
    assert [p["name"] for p in greedy] == list(bench.GREEDY_POINTS)
    jobs = ["build_w", "build_w_phase2", "construct", "construct_first",
            "random", "verify"]
    outputs = ["L", "num_primes", "size", "size_over_n", "size_over_lb"]
    for point in grid:
        assert point["random_size"] > 0
        src, renamed = point["trees"]["src"], point["trees"]["renamed"]
        assert list(src)[:len(outputs)] == outputs and src["size"] > 0
        assert [renamed[key] for key in outputs] == [src[key]
                                                     for key in outputs]
        assert list(src["wall_ms"]) == jobs
        assert all(src["wall_ms"].values()), src["wall_ms"]
        assert all(src[c] is not None for c in COUNTERS), src
        # build_w runs at the theorem's L, where phase 2 runs at every grid
        # point, after one prime or more has marked L vertices, and tests
        # each survivor once or more
        assert point["theorem_L"] > src["L"]
        assert 0 < src["survivors"] <= min(
            src["checks"], point["n"] - 1 - point["theorem_L"])
        assert renamed["wall_ms"]["build_w_phase2"] is None
        assert all(renamed["wall_ms"][job] for job in jobs
                   if job != "build_w_phase2")
        assert renamed["survivors"] is None
        assert ([renamed[c] for c in COUNTERS if c != "survivors"]
                == [src[c] for c in COUNTERS if c != "survivors"])
    for point in gamma:
        assert point["gamma_sum"] > 0
        for name in doc["trees"]:
            assert list(point["trees"][name]["wall_ms"]) == ["gamma"]
            assert point["trees"][name]["wall_ms"]["gamma"]["median"] >= 0
    # one record per greedy point holds greedy_size and rounds, so the two
    # trees agreed on them in every run
    for point, (n, k) in zip(greedy, bench.GREEDY_POINTS.values()):
        assert (point["n"], point["k"]) == (n, k)
        assert -(-n // (k + 1)) <= point["greedy_size"] == point["rounds"]
        for name in doc["trees"]:
            assert list(point["trees"][name]["wall_ms"]) == ["greedy"]
            assert point["trees"][name]["wall_ms"]["greedy"]["median"] >= 0
