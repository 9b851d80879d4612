#!/usr/bin/env python3
"""Regenerate artifacts/bench_scaling.csv: the n-doubling timing sweep.

Fixed grid (n doubling at fixed k = 100, seeds 0..4) so the run is
reproducible apart from wall-clock jitter. Run from the repo root:

    python3 scripts/run_bench_scaling.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from circdom.cli import main  # noqa: E402

OUT = ROOT / "artifacts" / "bench_scaling.csv"

ARGV = [
    "bench",
    "--n-list", "12500,25000,50000,100000",
    "--k-list", "100",
    "--methods", "paper",
    "--seeds", "0,1,2,3,4",
    "--out", str(OUT),
]

if __name__ == "__main__":
    sys.exit(main(ARGV))
