"""The circdom benchmark: one workload, one seed, one single-threaded process.

    python3 circbench/run.py --workload paper-1e6 --seed 1 --seconds 30 --trace 0

Each job calls ``circdom.cli.main(argv)`` in-process with the argv a user
would type, stdout captured, so argparse, chord generation, every
verification pass and the JSON write are inside the time. One untimed
warm-up pass runs first; its outputs are checked by the benchmark's own
oracles (``oracles.py``) and every later pass must reproduce them.
Timed passes then repeat the job list until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics, measured untraced. Each job
of a timed pass runs twice back to back, once with the program and once
with ``circdom_v0``, a frozen copy of the program as the benchmark was
defined, in an order that alternates. ``pass_over_v0`` is the program's
pass time over v0's, from those pairs: the host's speed drifts by a fifth
over minutes, and both sides of a pair see the same host.
``--trace 1`` alternates untraced and traced passes (``tracer.py``) and
prints the per-layer metrics. Before the last line, which is the JSON
result, a table shows every metric with its unit, and each time with its
median, the highest percentile that has ten samples beyond it, and the
sample count.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in set-up children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402  (this directory is sys.path[0])
from tracer import Tracer, traced_functions  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_REPEATS = 9
# A fresh process as a user starts it: interpreter, ``import circdom``
# and its CLI, then the job list.
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import circdom.cli, workloads; "
    "workloads.build_jobs(sys.argv[3], int(sys.argv[4]))"
)
KINDS = ("paper", "greedy", "random", "gamma", "audit_expsum", "audit_nu")


def load_program():
    """Import circdom from this checkout's sources, never from elsewhere."""
    package_dir = SRC / "circdom"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"error: circdom sources not found at {package_dir}")
    sys.path.insert(0, str(SRC))
    import circdom
    import circdom.cli  # noqa: F401

    if Path(circdom.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"error: imported circdom from {circdom.__file__}")
    return circdom


@dataclass
class Result:
    rc: int | None
    seconds: float
    out: str
    err: str


@dataclass
class TracedPass:
    wall: float
    self_times: dict[str, tuple[int, float]]
    counters: list[tuple[str, float]]
    coverage: float  # share of the pass inside root spans


def run_job(cli, argv) -> Result:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))  # looked up per call, so tracing applies
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing job is a failed job, not a crashed run
        rc = None
        err.write(traceback.format_exc())
    return Result(rc, time.perf_counter() - t0, out.getvalue(), err.getvalue())


def run_pass(cli, jobs) -> tuple[float, list[Result]]:
    t0 = time.perf_counter()
    results = [run_job(cli, job.argv) for job in jobs]
    return time.perf_counter() - t0, results


def run_paired_pass(cli, v0_cli, jobs, i) -> tuple[list[Result], list[Result]]:
    """Each job by the program and by v0 back to back; who goes first
    alternates from job to job and from pass to pass."""
    ours, theirs = [], []
    for k, job in enumerate(jobs):
        if (i + k) % 2 == 0:
            ours.append(run_job(cli, job.argv))
            theirs.append(run_job(v0_cli, job.argv))
        else:
            theirs.append(run_job(v0_cli, job.argv))
            ours.append(run_job(cli, job.argv))
    return ours, theirs


def load_v0():
    """The frozen program copy kept in this directory."""
    import circdom_v0.cli

    if Path(circdom_v0.__file__).resolve().parent != BENCH_DIR / "circdom_v0":
        raise SystemExit(f"error: imported circdom_v0 from {circdom_v0.__file__}")
    return circdom_v0.cli


def normalised(out: str) -> list[dict]:
    """Output lines without their wall-clock field, for pass-to-pass equality."""
    docs = [json.loads(line) for line in out.splitlines() if line.strip()]
    for doc in docs:
        doc.pop("wall_ms", None)
    return docs


def reproduces(out: str, expected: list[dict]) -> bool:
    try:
        return normalised(out) == expected
    except ValueError:
        return False


def set_size(job, out: str) -> tuple[int, int, int] | None:
    """(size, n, k) of the set a job returns: D for construct, W for nu."""
    if job.kind in ("paper", "greedy", "random"):
        doc = json.loads(out)
        return doc["size"], doc["n"], doc["k"]
    if job.kind == "audit_nu":
        doc = json.loads(out.splitlines()[0])
        return doc["w_size"], doc["n"], doc["k"]
    return None


def check_job(circdom, gamma_table, job, res) -> tuple[list[str], dict]:
    """Problems with one job's first output, and facts the metrics need."""
    if res.rc != 0:
        return [f"exit code {res.rc}: {res.err.strip()[-500:]}"], {}
    try:
        return _check_output(circdom, gamma_table, job, res)
    except (ValueError, KeyError, TypeError, IndexError, ArithmeticError) as exc:
        return [f"output {res.out[:200]!r} failed a check: {exc!r}"], {}


def _check_output(lib, gamma_table, job, res):
    opts = dict(zip(job.argv[1::2], job.argv[2::2]))
    if job.kind in ("paper", "greedy", "random"):
        n, k, seed = int(opts["--n"]), int(opts["--random-chords"]), int(opts["--seed"])
        spec = lib.CirculantSpec(n, lib.random_chord_set(n, k, seed))
        rebuild = {
            "paper": lambda: lib.construct_dominating(spec),
            "greedy": lambda: lib.greedy_dominating(spec),
            "random": lambda: lib.random_dominating(spec, seed),
        }[job.kind]
        return oracles.domination_problems(
            json.loads(res.out), rebuild().D.members, spec.chords.chords), {}
    if job.kind == "gamma":
        doc = json.loads(res.out)
        chords = lib.random_chord_set(doc["n"], doc["k"], int(opts["--seed"]))
        greedy = lib.greedy_dominating(lib.CirculantSpec(doc["n"], chords)).size
        recorded = gamma_table.get(",".join(map(str, chords.chords)))
        return (oracles.gamma_problems(doc, greedy, recorded),
                {"greedy_over_gamma": greedy / doc["gamma"]})
    if job.kind == "audit_expsum":
        return [p for line in normalised(res.out)
                for p in oracles.expsum_problems(line)], {}
    if job.kind == "audit_nu":
        problems = []
        for line in normalised(res.out):
            n, k = line["n"], line["k"]
            W = lib.construct_universal_2dom(n, k, c=line["c"], C=line["C"],
                                             c0=line["c0"])
            chords = lib.random_chord_set(n, k, line["seed"]).chords
            problems += oracles.nu_problems(line, W.elements.members, chords)
        return problems, {}
    return [f"no oracle for job kind {job.kind!r}"], {}


def measure_setup(workload: str, seed: int) -> float:
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR),
           workload, str(seed)]
    t0 = time.perf_counter()
    # No timeout: waiting with one polls in steps of up to 50 ms.
    subprocess.run(cmd, check=True)
    return time.perf_counter() - t0


def tail(samples: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, and N."""
    s = sorted(samples)
    n = len(s)
    text = f"p50={statistics.median(s):.6g}"
    if n > 20:  # below that the percentile falls under the median
        text += f" p{100 * (n - 10) / n:.0f}={s[n - 11]:.6g}"
    return text + f" N={n}"


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(map(math.log, values))) if values else 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def best_seconds(plain, jobs, kinds=KINDS) -> float:
    """Sum over the jobs of ``kinds`` of each job's fastest time in a plain pass."""
    return sum(min(results[i].seconds for _, results in plain)
               for i, job in enumerate(jobs) if job.kind in kinds)


def over_v0(plain, v0) -> float:
    """The program's pass time over v0's: per job, the median ratio of the
    two times of a pair, weighted by the job's share of v0's fastest pass."""
    best = [min(results[j].seconds for results in v0)
            for j in range(len(v0[0]))]
    return sum(b / sum(best) * statistics.median(
        ours[j].seconds / theirs[j].seconds
        for (_, ours), theirs in zip(plain, v0)) for j, b in enumerate(best))


def end_to_end(plain, v0, setup, sizes, peak_rss_mb) -> dict:
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "pass_over_v0": metric(over_v0(plain, v0), "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        # Random sets vary by ~10% with the seed by design: reported per layer.
        "size_over_lb": metric(
            geomean([r for kind, r in sizes if kind != "random"]), "ratio"),
    }


def per_layer(plain, jobs, traced, ledger, span_names) -> dict:
    """Per-command times, size ratios and traced self times, per pass."""
    out = {"pass_s": metric(best_seconds(plain, jobs), "s")}
    for kind in KINDS:
        out[f"{kind}_s"] = metric(best_seconds(plain, jobs, (kind,)), "s")
    for kind in ("paper", "greedy", "random"):
        out[f"{kind}_size_over_lb"] = metric(
            geomean([r for k, r in ledger.sizes if k == kind]), "ratio")
    out["greedy_size_over_gamma"] = metric(
        geomean([f["greedy_over_gamma"] for f in ledger.facts
                 if "greedy_over_gamma" in f]), "ratio")

    for name in span_names:
        selfs = [p.self_times.get(name, (0, 0.0))[1] * 1e3 for p in traced]
        out[f"{name}.self_ms"] = metric(statistics.median(selfs), "ms")
        calls = traced[-1].self_times.get(name, (0, 0.0))[0]
        out[f"{name}.calls"] = metric(calls, "count")
    counters: dict[str, list[float]] = {}
    for name, value in traced[-1].counters:
        counters.setdefault(name, []).append(value)
    for name in ("construct.L", "construct.num_primes", "construct.w_size",
                 "construct.u_size"):  # mean over paper constructions
        out[name] = metric(statistics.fmean(counters.get(name, [0])), "count")
    draws = sum(counters.get("baselines.random.draws", []))
    out["baselines.greedy.rounds"] = metric(
        sum(counters.get("baselines.greedy.rounds", [])), "count")
    out["baselines.random.draws"] = metric(draws, "count")
    out["baselines.random.useful_draw_frac"] = metric(
        sum(counters.get("baselines.random.size", [])) / draws if draws else 0.0,
        "fraction")
    plain_wall = statistics.median(w for w, _ in plain)
    traced_wall = statistics.median(p.wall for p in traced)
    out["trace.overhead_frac"] = metric(traced_wall / plain_wall - 1.0, "fraction")
    out["trace.coverage"] = metric(
        statistics.median(p.coverage for p in traced), "fraction")
    return out


def print_tables(args, metrics, plain, v0, jobs, traced, attempted,
                 failed) -> None:
    print(f"# circdom benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(plain)} traced_passes={len(traced)}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"whole-pass seconds: {tail([w for w, _ in plain])}")
    print(f"pass_s (every job at its fastest) = {best_seconds(plain, jobs):.6g} s")
    if v0:
        print(f"v0 whole-pass seconds: "
              f"{tail([sum(r.seconds for r in rs) for rs in v0])}")
    for kind in KINDS:
        times = [results[i].seconds for _, results in plain
                 for i, job in enumerate(jobs) if job.kind == kind]
        if times:
            print(f"{kind} job seconds: {tail(times)}")
    if traced:
        wall = statistics.median(p.wall for p in traced)
        print(f"{'span':45s} {'calls':>6s} {'self_ms':>10s} {'share':>7s}")
        stats = traced[-1].self_times
        for name in sorted(stats, key=lambda n: -metrics[f"{n}.self_ms"]["value"]):
            self_ms = metrics[f"{name}.self_ms"]["value"]
            print(f"{name:45s} {stats[name][0]:6d} {self_ms:10.3f} "
                  f"{self_ms / 1e3 / wall:7.2%}")
    for name, m in metrics.items():
        if not name.endswith((".self_ms", ".calls")):
            print(f"{name} = {m['value']:.6g} {m['unit']}")


def declared_metrics(trace: int) -> list[str]:
    """Metric names BENCHMARK.json declares for this kind of run."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


class Ledger:
    """Checks each distinct job's first output; later runs must repeat it."""

    def __init__(self, circdom, gamma_table):
        self.circdom, self.gamma_table = circdom, gamma_table
        self.expected: dict[tuple, list[dict] | None] = {}  # None: job failed
        self.sizes: list[tuple[str, float]] = []  # (kind, |set| / lb)
        self.facts: list[dict] = []
        self.attempted = self.failed = 0

    def record(self, jobs, results, v0_results=None) -> None:
        for k, (job, res) in enumerate(zip(jobs, results)):
            self.attempted += 1
            if job.argv in self.expected:
                want = self.expected[job.argv]
                ok = want is not None and res.rc == 0 and reproduces(res.out, want)
            else:
                ok = self._first(job, res)
            if v0_results is not None and v0_results[k].rc != 0:
                print(f"FAIL v0 {' '.join(job.argv)}: exit code "
                      f"{v0_results[k].rc}", file=sys.stderr)
                ok = False  # no pair, no ratio
            self.failed += not ok

    def _first(self, job, res) -> bool:
        problems, facts = check_job(self.circdom, self.gamma_table, job, res)
        for problem in problems:
            print(f"FAIL {' '.join(job.argv)}: {problem}", file=sys.stderr)
        if problems:
            self.expected[job.argv] = None
            return False
        self.expected[job.argv] = normalised(res.out)
        self.facts.append(facts)
        size = set_size(job, res.out)
        if size is not None:
            count, n, k = size
            self.sizes.append((job.kind, count / oracles.lower_bound(n, k)))
        return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    circdom = load_program()
    import workloads  # imports circdom

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    jobs = workloads.build_jobs(args.workload, args.seed)
    cli = circdom.cli
    ledger = Ledger(circdom, workloads.load_gamma_table())
    ledger.record(jobs, run_pass(cli, jobs)[1])  # warm-up, untimed
    # The program's peak: later passes repeat these jobs, and v0 loads later.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    v0_cli = None
    if not args.trace:
        v0_cli = load_v0()
        run_pass(v0_cli, jobs)  # warm-up, untimed; failures show in pairs

    plain, v0, traced = [], [], []
    tracer = Tracer(circdom)
    start = time.perf_counter()
    deadline = start + args.seconds
    setup: list[float] = []
    i = 0
    while time.perf_counter() < deadline or not plain:
        if not args.trace:
            # Set-up samples are spread evenly over the run, so that they
            # see the same host conditions as the passes.
            due = SETUP_REPEATS * (time.perf_counter() - start) / args.seconds
            if len(setup) < min(due, SETUP_REPEATS - 1) + 1:
                setup.append(measure_setup(args.workload, args.seed))
            ours, theirs = run_paired_pass(cli, v0_cli, jobs, i)
            plain.append((sum(r.seconds for r in ours), ours))
            v0.append(theirs)
            ledger.record(jobs, ours, theirs)
        # With tracing, the job list runs once plain and once traced, in
        # alternating order, so both sides see the same conditions.
        for traced_now in ((i % 2 == 1, i % 2 == 0) if args.trace else ()):
            if traced_now:
                tracer.reset()
                with tracer:
                    wall, results = run_pass(cli, jobs)
                traced.append(TracedPass(wall, tracer.self_times(),
                                         list(tracer.counters),
                                         tracer.root_seconds() / wall))
            else:
                wall, results = run_pass(cli, jobs)
                plain.append((wall, results))
            ledger.record(jobs, results)
        i += 1
    while not args.trace and len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(args.workload, args.seed))

    if args.trace:
        metrics = per_layer(plain, jobs, traced, ledger,
                            sorted(traced_functions(circdom)))
    else:
        metrics = end_to_end(plain, v0, setup, ledger.sizes, peak_rss_mb)
    print_tables(args, metrics, plain, v0, jobs, traced, ledger.attempted,
                 ledger.failed)
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": {name: metrics[name] for name in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
