"""Regenerate gamma_n22_k2.json: gamma(C_22(S)) for every 2-chord set S.

Each value is computed twice, by the benchmark's branch-and-bound solver
and by circdom's brute-force ``exact_gamma``, and written only when the
two agree. Run from the repository root (takes about a minute):

    python3 circbench/make_gamma_table.py
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from circdom.graph import ChordSet, CirculantSpec  # noqa: E402
from circdom.verify import exact_gamma  # noqa: E402

from oracles import exact_gamma_bb  # noqa: E402
from workloads import GAMMA_K, GAMMA_N, GAMMA_TABLE  # noqa: E402


def main() -> int:
    table = {}
    for chords in itertools.combinations(range(1, GAMMA_N), GAMMA_K):
        ours = exact_gamma_bb(GAMMA_N, chords)
        theirs = exact_gamma(CirculantSpec(GAMMA_N, ChordSet(GAMMA_N, chords)))
        if ours != theirs:
            print(f"disagree on S={chords}: {ours} vs {theirs}", file=sys.stderr)
            return 1
        table[",".join(map(str, chords))] = ours
    doc = {"n": GAMMA_N, "k": GAMMA_K,
           "method": "branch and bound, checked against circdom.exact_gamma",
           "gamma": table}
    GAMMA_TABLE.write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} values to {GAMMA_TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
