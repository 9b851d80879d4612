#!/usr/bin/env python3
"""Time build_W, the paper method, the random baseline and exact_gamma;
write BENCH JSON for one or more source trees.

Each tree is a `src/` directory holding a `circdom` package, named on the
command line as NAME=PATH. Every repeat starts one fresh process per tree,
in alternating order so that the trees share the host's conditions. Each
process runs every grid point's `construct` once as a warm-up, timed
alone as `construct_first_wall_ms` (at the first grid point a true first
call in a fresh process), then makes PASSES round-robin passes over the
grid, each timing `build_W(n, L)` (wall, process CPU, which counts
every thread, and the wall time of its phase 2, the `construct._sieve`
call that tests the vertices its marks left), one in-process
`circdom construct --n N --random-chords K --seed 1 --method paper`,
`random_dominating` with draw seed RANDOM_SEED on the same chords, and
one `is_dominating` pass over the random set. The JSON holds the medians
and quartiles over all repeats x PASSES samples (the quartiles give each
tree's run-to-run spread), the set sizes and random draws (which must
agree across trees), each tree's build_W work counters (cells marked,
candidate x prime cells tested), the chords the verification of the
random set ORs before it switches to testing the vertices left (null
where that pass never switches), the draws of the prefix that the random
baseline covers in bulk and how many prefixes it drew again because they
covered Z_n, and the machine. Each pass also times `exact_gamma`, summed
over every 2-chord set at n = 22 (checked against circbench's recorded
table) and alone on C_22({9, 11}) and C_24({6, 18}), its slowest sets at
n = 22 and 24; the JSON puts these per tree under `gamma`. Every tree
needs `graph._sieve`, `construct._sieve`, `baselines.prefix_draws` and
`WSet.marks`/`checks`.
Run from the repo root, e.g. against a checkout of a base commit in
../base:

    python3 scripts/run_bench.py --tree before=../base/src --tree after=src \\
        --out BENCH_build_w.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
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
PASSES = 3  # timed passes over the grid per process
# exact_gamma jobs: name -> the (n, chords) sets timed together in one sample
GAMMA_JOBS = {
    "n22_k2_all": [(22, S) for S in itertools.combinations(range(1, 22), 2)],
    "n22_9_11": [(22, (9, 11))],
    "n24_6_18": [(24, (6, 18))],
}
GAMMA_TABLE = ROOT / "circbench" / "gamma_n22_k2.json"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
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


def measure(src: str) -> dict:
    """PASSES timed passes over the grid and the gamma jobs with the
    circdom package in src."""
    sys.path.insert(0, src)
    from circdom import baselines, construct, graph
    from circdom.baselines import random_chord_set, random_dominating
    from circdom.cli import main
    from circdom.graph import ChordSet, CirculantSpec
    from circdom.verify import exact_gamma, is_dominating

    def run_construct(argv: list[str]) -> tuple[float, dict]:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = main(argv)
        wall = time.perf_counter() - t0
        if rc != 0:
            raise SystemExit(f"error: {' '.join(argv)} exited {rc}")
        return wall, json.loads(out.getvalue())

    rows = []
    for n, k in GRID:
        argv = ["construct", "--n", str(n), "--random-chords", str(k),
                "--seed", str(CHORD_SEED), "--method", "paper"]
        first, doc = run_construct(argv)  # warm-up
        L, primes = doc["parameters"]["L"], doc["parameters"]["num_primes"]
        W = construct.build_W(n, L)
        spec = CirculantSpec(n, random_chord_set(n, k, CHORD_SEED))
        rand = random_dominating(spec, RANDOM_SEED)
        rows.append({"n": n, "k": k, "L": L, "num_primes": primes,
                     "size": doc["size"], "argv": argv,
                     "random_size": rand.size,
                     "draws": rand.parameters["draws"],
                     **cover_counters(
                         graph, k, lambda: is_dominating(spec, rand.D)),
                     **prefix_counters(baselines, spec),
                     "marks": W.marks, "checks": W.checks,
                     "spec": spec, "D": rand.D,
                     "construct_first_wall_ms": [first * 1e3],
                     "build_w_wall_ms": [], "build_w_cpu_ms": [],
                     "build_w_phase2_ms": [],
                     "construct_wall_ms": [], "random_wall_ms": [],
                     "verify_wall_ms": []})
    gamma_specs = {name: [CirculantSpec(n, ChordSet(n, S)) for n, S in sets]
                   for name, sets in GAMMA_JOBS.items()}
    gamma = {name: {"values": [exact_gamma(spec) for spec in specs],  # warm-up
                    "wall_ms": []} for name, specs in gamma_specs.items()}
    recorded = json.loads(GAMMA_TABLE.read_text(encoding="utf-8"))["gamma"]
    if gamma["n22_k2_all"]["values"] != [
            recorded[",".join(map(str, S))] for _, S in GAMMA_JOBS["n22_k2_all"]]:
        raise SystemExit(f"error: exact_gamma disagrees with {GAMMA_TABLE.name}")
    phase2, sieve = [], construct._sieve

    def timed_sieve(*args):  # build_W's phase 2 is one call
        t0 = time.perf_counter()
        left = sieve(*args)
        phase2.append((time.perf_counter() - t0) * 1e3)
        return left

    for _ in range(PASSES):
        for row in rows:
            phase2.clear()
            construct._sieve = timed_sieve
            t0, c0 = time.perf_counter(), time.process_time()
            construct.build_W(row["n"], row["L"])
            construct._sieve = sieve
            row["build_w_wall_ms"].append((time.perf_counter() - t0) * 1e3)
            row["build_w_cpu_ms"].append((time.process_time() - c0) * 1e3)
            row["build_w_phase2_ms"].append(sum(phase2))
            wall, doc = run_construct(row["argv"])
            row["construct_wall_ms"].append(wall * 1e3)
            if doc["size"] != row["size"]:
                raise SystemExit(f"error: |D| changed between runs: {row['argv']}")
            t0 = time.perf_counter()
            random_dominating(row["spec"], RANDOM_SEED)
            row["random_wall_ms"].append((time.perf_counter() - t0) * 1e3)
            t0 = time.perf_counter()
            is_dominating(row["spec"], row["D"])
            row["verify_wall_ms"].append((time.perf_counter() - t0) * 1e3)
        for name, specs in gamma_specs.items():
            t0 = time.perf_counter()
            for spec in specs:
                exact_gamma(spec)
            gamma[name]["wall_ms"].append((time.perf_counter() - t0) * 1e3)
    for row in rows:
        del row["spec"], row["D"]
    return {"grid": rows, "gamma": gamma}


def cover_counters(graph, k, verify) -> dict:
    """Chords shift_cover ORs in verify(), a closed cover by the k chords
    and 0, before it tests the vertices left against the rest: k + 1
    minus the chords handed to graph._sieve (None if that never runs)."""
    tested, sieve = [], graph._sieve

    def spy(alive, chords, hit):
        tested.append(chords.size)
        return sieve(alive, chords, hit)

    graph._sieve = spy
    try:
        verify()
    finally:
        graph._sieve = sieve
    return {"ored_before_switch": k + 1 - tested[0] if tested else None}


def prefix_counters(baselines, spec) -> dict:
    """The draws of the prefix random_dominating keeps, and the prefixes
    it drew before that one because they covered Z_n: one shift_cover
    call each."""
    covers, cover = [], baselines.shift_cover

    def spy(*args):
        covers.append(1)
        return cover(*args)

    baselines.shift_cover = spy
    try:
        baselines.random_dominating(spec, RANDOM_SEED)
    finally:
        baselines.shift_cover = cover
    left = max(baselines.PREFIX_LEFT * (spec.k + 1), 2) * 2 ** (len(covers) - 1)
    return {"prefix_draws": baselines.prefix_draws(spec.n, spec.k, left),
            "prefix_redraws": len(covers) - 1}


def run_tree(src: str) -> dict:
    res = subprocess.run([sys.executable, __file__, "--measure", src],
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout)


def spread(times: list[float]) -> dict:
    """Median and quartiles of the samples, rounded to 0.01 ms."""
    q1, median, q3 = (statistics.quantiles(times, n=4)
                      if len(times) > 1 else times * 3)
    return {"median": round(median, 2), "quartiles": [round(q1, 2), round(q3, 2)]}


def summarise(trees: dict[str, str], passes: dict[str, list]) -> list[dict]:
    grid = []
    for i, (n, k) in enumerate(GRID):
        first = passes[next(iter(trees))][0]["grid"][i]
        lb = -(-n // (k + 1))
        point = {"n": n, "k": k, "L": first["L"],
                 "num_primes": first["num_primes"], "size": first["size"],
                 "size_over_n": first["size"] / n,
                 "size_over_lb": first["size"] / lb,
                 "random_size": first["random_size"],
                 "random_size_over_lb": first["random_size"] / lb,
                 "draws": first["draws"]}
        for name in trees:
            rows = [p["grid"][i] for p in passes[name]]
            for key in ("size", "random_size", "draws"):
                if any(r[key] != first[key] for r in rows):
                    raise SystemExit(
                        f"error: {key} differs across trees at n={n}, k={k}")
            point[name] = {key: rows[0][key] for key in (
                "marks", "checks", "ored_before_switch", "prefix_draws",
                "prefix_redraws")}
            for key in ("build_w_wall_ms", "build_w_cpu_ms",
                        "build_w_phase2_ms", "construct_wall_ms",
                        "construct_first_wall_ms", "random_wall_ms",
                        "verify_wall_ms"):
                times = spread([t for r in rows for t in r[key]])
                point[name][f"{key}_median"] = times["median"]
                point[name][f"{key}_quartiles"] = times["quartiles"]
        grid.append(point)
    return grid


def summarise_gamma(trees: dict[str, str], passes: dict[str, list]) -> dict:
    """Per gamma job: its sets, the sum of their gammas (which must agree
    across trees) and each tree's wall time per sample."""
    out = {}
    for job, sets in GAMMA_JOBS.items():
        runs = {name: [p["gamma"][job] for p in passes[name]] for name in trees}
        values = {tuple(r["values"]) for rs in runs.values() for r in rs}
        if len(values) != 1:
            raise SystemExit(f"error: gamma differs across trees on {job}")
        out[job] = {"sets": len(sets), "gamma_sum": sum(values.pop())}
        for name, rs in runs.items():
            times = spread([t for r in rs for t in r["wall_ms"]])
            out[job][name] = {"wall_ms_median": times["median"],
                              "wall_ms_quartiles": times["quartiles"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="NAME=SRC",
                        help="a src/ directory to time (repeatable; "
                             "default: after=src)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=None,
                        help="JSON file to write (default: stdout)")
    parser.add_argument("--measure", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0

    trees = dict(t.split("=", 1) for t in (args.tree or [f"after={ROOT / 'src'}"]))
    passes: dict[str, list] = {name: [] for name in trees}
    ticks = cpu_ticks()
    for rep in range(args.repeats):
        order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
        for name in order:
            passes[name].append(run_tree(trees[name]))
    import numpy

    doc = {
        "what": "build_W, `construct --method paper`, random_dominating "
                f"(draw seed {RANDOM_SEED}) and one is_dominating pass over "
                f"its set per (n, k), chord seed {CHORD_SEED}; medians and "
                "quartiles over "
                f"{args.repeats} processes "
                f"per tree (trees alternating) x {PASSES} timed passes each; "
                "construct_first_wall_ms over each process's warm-up "
                "construct, at the first grid point its first call; "
                "build_w_phase2_ms is the part of build_w_wall_ms spent "
                "testing the vertices left after marking (0 where every "
                "prime is marked); gamma holds exact_gamma's wall time per "
                "pass, summed over all 210 2-chord sets at n = 22 "
                "(n22_k2_all) and on C_22({9, 11}) and C_24({6, 18}) alone",
        "machine": {"cpu_model": cpu_model(), "usable_cpus": usable_cpus(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    # CPU time stolen by the hypervisor while timing
                    "cpu_steal_frac": steal_frac(ticks, cpu_ticks())},
        "trees": list(trees),
        "repeats": args.repeats,
        "grid": summarise(trees, passes),
        "gamma": summarise_gamma(trees, passes),
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
