"""Run the benchmark over many seeds and summarise each metric's spread.

    python3 circbench/record.py --seeds 1-10 --trace-seeds 1-3 \
        --held-out 9001 --out circbench/trajectory.json

For every workload this runs ``run.py --trace 0`` once per seed and
``--trace 1`` once per trace seed, one run at a time, and reports each
metric's median, quartiles (``statistics.quantiles(values, n=4)``) and
spread, the quartile distance over the median. An end-to-end spread
above a third of the metric's bound is flagged as unsteady. With
``--out`` the summary, the held-out seed's run and the machine are
written as one trajectory point.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "runs": len(values)}


def machine() -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads_pinned_in_benchmark_process": {
                "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}}


def commit() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default all in BENCHMARK.json")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace-seeds", type=seed_list, default=[])
    parser.add_argument("--held-out", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    point = {"program_commit": commit(), "machine": machine(),
             "run_seconds": spec["run_seconds"], "seeds": args.seeds,
             "trace_seeds": args.trace_seeds, "held_out_seed": args.held_out,
             "workloads": {}}
    steady = True
    for workload in names:
        runs = [run_once(spec, workload, s, 0)["metrics"] for s in args.seeds]
        e2e = {m: summarise([r[m]["value"] for r in runs]) for m in bounds}
        entry = {"end_to_end": e2e}
        for m, summary in e2e.items():
            ok = m == "setup_s" or summary["spread"] <= bounds[m] / 3
            steady &= ok
            print(f"{workload:15s} {m:14s} median={summary['median']:<12.6g} "
                  f"spread={summary['spread']:.4f} bound={bounds[m]}"
                  f"{'' if ok else '  UNSTEADY'}  runs: "
                  + " ".join(f"{r[m]['value']:.4g}" for r in runs), flush=True)
        if args.trace_seeds:
            traced = [run_once(spec, workload, s, 1)["metrics"]
                      for s in args.trace_seeds]
            entry["per_layer"] = {
                m: summarise([r[m]["value"] for r in traced])
                if len(traced) > 1 else {"median": traced[0][m]["value"]}
                for m in traced[0]}
        if args.held_out is not None:
            entry["held_out"] = {
                m: v["value"] for m, v in
                run_once(spec, workload, args.held_out, 0)["metrics"].items()}
            print(f"{workload:15s} held-out seed {args.held_out}: "
                  f"{entry['held_out']}", flush=True)
        point["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
