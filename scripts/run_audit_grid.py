#!/usr/bin/env python3
"""Run the full audit grid and write JSON-lines files under artifacts/.

Covers the cardinality equality, the exponential-sum bound ratios, the
exceptional-set envelope, and the universal 2-domination counts. The
maximum observed ratios are the empirical constants for the bounds.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from circdom.cli import main  # noqa: E402

ART = ROOT / "artifacts"

RUNS = [
    ["audit", "--check", "card",
     "--n-list", "101,211,401,809,1009,2003,4001,5003,7919,10007,12289,16001",
     "--l-list", "2,3,4,5,6,8,10,12",
     "--out", str(ART / "audit_card.jsonl")],
    ["audit", "--check", "expsum",
     "--n-list", "257,521,1031,2053,4099,8191,12289,16381,16384,"
     "65521,262144,1048576",
     "--l-list", "4,8,12,16",
     "--out", str(ART / "audit_expsum.jsonl")],
    ["audit", "--check", "exceptional",
     "--n-list", "1009,10007,50021",
     "--k-list", "10,100,500",
     "--trials", "5", "--seed", "7",
     "--out", str(ART / "audit_exceptional.jsonl")],
    ["audit", "--check", "nu",
     "--n-list", "10000", "--k-list", "2000",
     "--trials", "50", "--seed", "7",
     "--out", str(ART / "audit_nu.jsonl")],
]

if __name__ == "__main__":
    rc = 0
    for run in RUNS:
        print("running:", " ".join(run))
        rc |= main(run)
    sys.exit(rc)
