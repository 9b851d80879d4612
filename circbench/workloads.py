"""Job lists of the three benchmark workloads, made from a seed.

Each job is the argv a user would give the ``circdom`` command. The seed
only picks chord seeds; the program sees nothing but the argv.

Why each workload exists, and which planned optimisation it exercises
(E) or bypasses (B, where the prediction is no change):

``paper-1e6``
    ``construct --method paper`` at n = 10^6, k in {100, 1000}. Time sits
    in ``build_W``, ``exceptional_set`` and a dense ``is_dominating`` that
    saturates after a few chords. E: ``build_W``/``exceptional_set`` work,
    the single verification pass. B: incremental greedy, branch-and-bound
    gamma, FFT audits.
``reference``
    The size references: greedy at n = 5000, random at n = 10^6 and 10^5,
    exact gamma at n = 22, k = 2. ``is_dominating`` runs on sparse sets
    and scans every chord, the other side of the layer ``paper-1e6`` uses.
    E: incremental greedy, branch-and-bound gamma, batched random draws,
    the single verification pass. B: ``build_W``, FFT audits.
``spectral-audit``
    ``audit --check expsum`` at n = 16381 (prime) and 16384 (2^14) with
    L = 16, and ``audit --check nu`` at n = 10^4, k = 2000. E: FFT scan
    and Parseval sum, FFT representation counts, r = 2 coverage of a
    sparse W, the single verification pass. B: greedy, gamma, the paper
    construction at scale.

Gamma chord sets are drawn one per domination-number class (8 to 11 at
n = 22, k = 2): brute-force cost grows with the class by two orders of
magnitude, so a job list with one set per class costs about the same for
every seed while its chord sets still change with the seed.

Each job list is short (about 0.5 to 2.5 s) so that a run repeats every
job many times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from circdom.baselines import random_chord_set

GAMMA_TABLE = Path(__file__).resolve().parent / "gamma_n22_k2.json"
GAMMA_N, GAMMA_K = 22, 2

WORKLOADS = ("paper-1e6", "reference", "spectral-audit")


@dataclass(frozen=True)
class Job:
    """One CLI invocation. ``kind`` groups jobs for the per-command times."""

    kind: str  # paper | greedy | random | gamma | audit_expsum | audit_nu
    argv: tuple[str, ...]


def _construct(method: str, n: int, k: int, seed: int) -> Job:
    return Job(method, ("construct", "--n", str(n), "--random-chords", str(k),
                        "--seed", str(seed), "--method", method))


def load_gamma_table() -> dict[str, int]:
    """Recorded gamma of C_22(S) for every 2-chord set, keyed "a,b"."""
    return json.loads(GAMMA_TABLE.read_text(encoding="utf-8"))["gamma"]


def _gamma_jobs(rng: np.random.Generator) -> list[Job]:
    """One gamma job per domination-number class, in class order."""
    table = load_gamma_table()
    by_class: dict[int, Job | None] = dict.fromkeys(sorted(set(table.values())))
    while None in by_class.values():
        seed = int(rng.integers(2**31))
        chords = random_chord_set(GAMMA_N, GAMMA_K, seed).chords
        gamma = table[",".join(map(str, chords))]
        if by_class[gamma] is None:
            by_class[gamma] = Job("gamma", ("gamma", "--n", str(GAMMA_N),
                                            "--random-chords", str(GAMMA_K),
                                            "--seed", str(seed)))
    return list(by_class.values())


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The job list one pass of ``workload`` runs."""
    rng = np.random.default_rng(seed)

    def draw() -> int:
        return int(rng.integers(2**31))

    if workload == "paper-1e6":
        return [_construct("paper", 10**6, k, draw())
                for k in (100, 1000) for _ in range(3)]
    if workload == "reference":
        return ([_construct("greedy", 5000, 100, draw()),
                 _construct("random", 10**6, 1000, draw()),
                 _construct("random", 10**5, 100, draw())]
                + _gamma_jobs(rng))
    if workload == "spectral-audit":
        return [
            Job("audit_expsum", ("audit", "--check", "expsum",
                                 "--n-list", "16381,16384", "--l-list", "16")),
            Job("audit_nu", ("audit", "--check", "nu", "--n-list", "10000",
                             "--k-list", "2000", "--trials", "3",
                             "--seed", str(draw()))),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
