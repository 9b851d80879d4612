#!/usr/bin/env python3
"""Time build_W, the paper method, the random and greedy baselines and
exact_gamma; write BENCH JSON for one or more source trees.

Each tree is a `src/` directory holding a `circdom` package, named on the
command line as NAME=SRC. Every repeat starts one fresh process per tree,
in alternating order so that the trees share the host's conditions.

A process sets up every point once and then times every job of every
point in PASSES round-robin passes. A grid point (n, k) runs
`circdom construct --n N --random-chords K --seed CHORD_SEED --method
paper` once as a warm-up (timed alone as `construct_first`, at the first
grid point a true first call in a fresh process), and its jobs are
`build_w`, `construct`, `random` and `verify` (see JOBS). A gamma point
is a set of circulants, and its one job `gamma` runs `exact_gamma` on
each; every n = 22 set is checked against circbench's recorded table.
A greedy point is an (n, k) at chord seed CHORD_SEED: its one job
`greedy` runs greedy_dominating, whose size and rounds every tree must
give (greedy_size, rounds).

The JSON holds one record per point: the outputs every tree must agree
on (theorem_L, random_size, draws, gamma_sum, greedy_size, rounds), and
under each tree the construct outputs (L, num_primes, size and its
ratios), its work counters and the median and quartiles of each job's
wall ms over all repeats x PASSES samples. Every run of a tree must
give that tree's first-run outputs; only the construct outputs may
differ between trees, so a tree that changes how construct picks L can
be timed against one that does not. `build_w` builds W at theorem_L =
ceil(solve_lambda(n, k)), the theorem's L, at which phase 2 runs. The
counters are `marks` and `checks` of that WSet and, from spies on the
tree's own names, `survivors` (the vertices build_W's phase 2 hands to construct._sieve;
null where phase 2 does not run), `ored_before_switch` (k + 1 minus the
chords verification hands to graph._sieve; null where it never
switches), `prefix_draws` (the last return of baselines.prefix_draws in
random_dominating) and `prefix_redraws` (its calls minus one). A counter or wall time whose name
the tree lacks is null for that tree. A tree whose process fails stops
the run with exit 1 and the tail of that process's stderr.

Run from the repo root, e.g. against a checkout of a base commit in
../base:

    python3 scripts/run_bench.py --tree before=../base/src --tree after=src \\
        --out BENCH_build_w.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GRID = [(n, k) for n in (10**5, 10**6) for k in (100, 1000)]
CHORD_SEED = 1
RANDOM_SEED = 1
PASSES = 3  # timed passes over the points per process
# gamma points: name -> the (n, chords) sets one `gamma` sample runs
GAMMA_SETS = {
    "n22_k2_all": [(22, S) for S in itertools.combinations(range(1, 22), 2)],
    "n22_9_11": [(22, (9, 11))],
    "n24_6_18": [(24, (6, 18))],
}
# greedy points: name -> the (n, k) one `greedy` sample runs
GREEDY_POINTS = {f"greedy_{n}_{k}": (n, k)
                 for n, k in ((5000, 100), (10**5, 100), (10**5, 1000))}
# every wall_ms entry of a point: what it times
JOBS = {
    "build_w": "construct.build_W(n, theorem_L) at the theorem's L",
    "build_w_phase2": "its construct._sieve call, testing the vertices left",
    "construct": f"`construct --method paper` in cli.main, seed {CHORD_SEED}",
    "construct_first": "the warm-up construct, one sample a process",
    "random": f"random_dominating, draw seed {RANDOM_SEED}, same chords",
    "verify": "one is_dominating pass over the random set",
    "gamma": "exact_gamma on every set of the gamma point",
    "greedy": f"greedy_dominating at the greedy point, chord seed "
              f"{CHORD_SEED}",
}


@contextlib.contextmanager
def spy(module, name: str):
    """Wrap module.name for the block and yield the list of its calls as
    (args, result, wall ms); yield None if module has no such name. The
    name is restored however the block ends."""
    if not hasattr(module, name):
        yield None
        return
    real, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = real(*args, **kwargs)
        calls.append((args, result, (time.perf_counter() - t0) * 1e3))
        return result

    setattr(module, name, wrapper)
    try:
        yield calls
    finally:
        setattr(module, name, real)


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cpu_ticks() -> list[int] | None:
    """The aggregate `cpu` line of /proc/stat: user, nice, system, idle,
    iowait, irq, softirq, steal, ... ticks since boot; None off Linux."""
    try:
        line = Path("/proc/stat").read_text().split("\n", 1)[0]
        return [int(x) for x in line.split()[1:]]
    except (OSError, ValueError):
        return None


def steal_frac(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of this machine's CPU ticks that the hypervisor took (steal)."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return round(delta[7] / sum(delta), 4) if sum(delta) else None


def measure(src: str) -> list[dict]:
    """Every point's shared outputs, counters and wall ms samples, timed
    over PASSES passes with the circdom package in src."""
    sys.path.insert(0, src)
    from circdom import baselines, cli, construct, graph, verify

    def run_construct(argv: list[str]) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        if rc != 0:
            raise SystemExit(f"error: {' '.join(argv)} exited {rc}")
        return json.loads(out.getvalue())

    def grid_point(n: int, k: int) -> tuple[dict, dict]:
        argv = ["construct", "--n", str(n), "--random-chords", str(k),
                "--seed", str(CHORD_SEED), "--method", "paper"]
        with spy(cli, "main") as first:
            doc = run_construct(argv)  # the warm-up
        wall_ms = {"construct_first": [first[0][2]], "build_w_phase2": []}
        L = math.ceil(construct.solve_lambda(n, k))
        with spy(construct, "_sieve") as phase2:
            W = construct.build_W(n, L)
        spec = graph.CirculantSpec(
            n, baselines.random_chord_set(n, k, CHORD_SEED))
        draw = functools.partial(
            baselines.random_dominating, spec, RANDOM_SEED)
        with spy(baselines, "prefix_draws") as prefixes:
            rand = draw()
        with spy(graph, "_sieve") as tested:
            verify.is_dominating(spec, rand.D)

        def build_w():
            with spy(construct, "_sieve") as phase2:
                construct.build_W(n, L)
            wall_ms["build_w_phase2"].append(
                None if phase2 is None else sum(ms for *_, ms in phase2))

        def construct_again():
            if run_construct(argv)["size"] != doc["size"]:
                raise SystemExit(f"error: |D| changed between runs: {argv}")

        lb = -(-n // (k + 1))
        return {"shared": {"n": n, "k": k, "theorem_L": L,
                           "random_size": rand.size,
                           "random_size_over_lb": rand.size / lb,
                           "draws": rand.parameters["draws"]},
                "outputs": {"L": doc["parameters"]["L"],
                            "num_primes": doc["parameters"]["num_primes"],
                            "size": doc["size"], "size_over_n": doc["size"] / n,
                            "size_over_lb": doc["size"] / lb},
                "counters": {
                    **{c: getattr(W, c, None) for c in ("marks", "checks")},
                    "survivors": phase2[0][0][0].size if phase2 else None,
                    "ored_before_switch":
                        k + 1 - tested[0][0][1].size if tested else None,
                    "prefix_draws": prefixes[-1][1] if prefixes else None,
                    "prefix_redraws": len(prefixes) - 1 if prefixes else None},
                "wall_ms": wall_ms}, {
                    "build_w": build_w, "construct": construct_again,
                    "random": draw,
                    "verify": lambda: verify.is_dominating(spec, rand.D)}

    table = ROOT / "circbench" / "gamma_n22_k2.json"
    recorded = json.loads(table.read_text(encoding="utf-8"))["gamma"]

    def gamma_point(name: str, sets: list) -> tuple[dict, dict]:
        specs = [graph.CirculantSpec(n, graph.ChordSet(n, S)) for n, S in sets]
        values = [verify.exact_gamma(spec) for spec in specs]  # the warm-up
        if any(recorded.get(",".join(map(str, S)), v) != v
               for (n, S), v in zip(sets, values) if n == 22):
            raise SystemExit(f"error: exact_gamma disagrees with {table}")
        return {"shared": {"name": name, "sets": len(sets),
                           "gamma_sum": sum(values)},
                "outputs": {}, "counters": {}, "wall_ms": {}}, {
                    "gamma": lambda: [verify.exact_gamma(s) for s in specs]}

    def greedy_point(name: str, n: int, k: int) -> tuple[dict, dict]:
        spec = graph.CirculantSpec(
            n, baselines.random_chord_set(n, k, CHORD_SEED))
        rep = baselines.greedy_dominating(spec)  # the warm-up
        return {"shared": {"name": name, "n": n, "k": k,
                           "greedy_size": rep.size,
                           "rounds": rep.parameters["rounds"]},
                "outputs": {}, "counters": {}, "wall_ms": {}}, {
                    "greedy": lambda: baselines.greedy_dominating(spec)}

    points, jobs = zip(*[grid_point(n, k) for n, k in GRID] + [
        gamma_point(name, sets) for name, sets in GAMMA_SETS.items()] + [
        greedy_point(name, n, k) for name, (n, k) in GREEDY_POINTS.items()])
    for _ in range(PASSES):
        for point, timed in zip(points, jobs):
            for job, run in timed.items():
                t0 = time.perf_counter()
                run()
                point["wall_ms"].setdefault(job, []).append(
                    (time.perf_counter() - t0) * 1e3)
    return list(points)


def run_tree(name: str, src: str) -> list[dict]:
    res = subprocess.run([sys.executable, __file__, "--measure", src],
                         capture_output=True, text=True)
    if res.returncode != 0:
        tail = "\n".join(res.stderr.splitlines()[-20:])
        sys.exit(f"error: tree {name} ({src}) failed:\n{tail}")
    return json.loads(res.stdout)


def spread(times: list[float | None]) -> dict | None:
    """Median and quartiles of the samples, rounded to 0.01 ms; None if
    any sample is None."""
    if None in times:
        return None
    q1, median, q3 = (statistics.quantiles(times, n=4)
                      if len(times) > 1 else times * 3)
    return {"median": round(median, 2), "quartiles": [round(q1, 2), round(q3, 2)]}


def summarise(trees: dict[str, str], runs: dict[str, list]) -> list[dict]:
    """Per point: its shared outputs, which every run of every tree must
    give, and per tree the outputs every run of that tree must give, its
    counters and the spread of each job."""
    points = []
    for i, point in enumerate(runs[next(iter(trees))][0]):
        shared, out = point["shared"], {**point["shared"], "trees": {}}
        for name in trees:
            samples = [run[i] for run in runs[name]]
            if any(s["shared"] != shared for s in samples):
                raise SystemExit(f"error: tree {name} disagrees with the "
                                 f"first run on the outputs {shared}")
            outputs = samples[0]["outputs"]
            if any(s["outputs"] != outputs for s in samples):
                raise SystemExit(f"error: a run of tree {name} disagrees "
                                 f"with its first on the outputs {outputs}")
            out["trees"][name] = {
                **outputs, **samples[0]["counters"], "wall_ms": {
                    job: spread([t for s in samples
                                 for t in s["wall_ms"][job]])
                    for job in JOBS if job in point["wall_ms"]}}
        points.append(out)
    return points


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="NAME=SRC",
                        help="a src/ directory to time (repeatable; "
                             "default: after=src)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", help="JSON file to write (default: stdout)")
    parser.add_argument("--measure", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")
    trees = {}
    for tree in args.tree or [f"after={ROOT / 'src'}"]:
        name, sep, src = tree.partition("=")
        if not (name and sep and src) or name in trees:
            parser.error(f"--tree needs NAME=SRC, each NAME once: {tree!r}")
        trees[name] = src

    runs: dict[str, list] = {name: [] for name in trees}
    ticks = cpu_ticks()
    for rep in range(args.repeats):
        order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
        for name in order:
            runs[name].append(run_tree(name, trees[name]))
    import numpy

    doc = {
        "what": f"wall ms per tree and point, median and quartiles over "
                f"{args.repeats} processes (trees alternating) x {PASSES} "
                "passes; " + "; ".join(f"{j}: {t}" for j, t in JOBS.items())
                + "; null where the tree lacks the name spied on",
        "machine": {"cpu_model": cpu_model(), "usable_cpus": usable_cpus(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    # CPU time stolen by the hypervisor while timing
                    "cpu_steal_frac": steal_frac(ticks, cpu_ticks())},
        "trees": list(trees),
        "repeats": args.repeats,
        "points": summarise(trees, runs),
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
