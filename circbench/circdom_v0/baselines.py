"""Baseline constructions: greedy set cover and randomized covering.

Greedy recounts gains exactly every round (O(rounds * n * k)); desk-scale
n makes exactness cheaper than lazy-bucket cleverness. The randomized
baseline samples vertices uniformly with replacement until coverage is
complete, seeded through numpy's PCG64 for cross-platform determinism.
"""

from __future__ import annotations

import time

import numpy as np

from .construct import DominationReport
from .graph import CirculantSpec, VertexSet
from .verify import is_dominating

RNG_NAME = "PCG64"


def greedy_dominating(spec: CirculantSpec) -> DominationReport:
    """Pick the vertex covering the most uncovered vertices each round.

    Ties break toward the smallest vertex index. Always terminates with a
    verified dominating set.
    """
    n = spec.n
    chords = spec.chords.as_array()
    t0 = time.perf_counter()
    uncovered = np.ones(n, dtype=bool)
    idx = np.arange(n, dtype=np.int64)
    picks: list[int] = []
    while uncovered.any():
        gain = uncovered.astype(np.int64)
        for s in chords:
            gain = gain + uncovered[(idx + int(s)) % n]
        u = int(np.argmax(gain))  # argmax returns the first maximum
        picks.append(u)
        uncovered[u] = False
        uncovered[(u + chords) % n] = False
    D = VertexSet.from_indices(n, picks)
    verified, leftover = is_dominating(spec, D, 1)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return DominationReport(
        method="greedy",
        n=n,
        k=spec.k,
        r=1,
        D=D,
        size=D.size,
        verified=verified,
        uncovered_count=leftover.size,
        wall_ms=wall_ms,
        parameters={"rounds": len(picks)},
    )


def random_dominating(spec: CirculantSpec, seed: int) -> DominationReport:
    """Sample vertices uniformly with replacement until coverage completes."""
    n = spec.n
    chords = spec.chords.as_array()
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    covered = np.zeros(n, dtype=bool)
    chosen = np.zeros(n, dtype=bool)
    draws = 0
    while not covered.all():
        v = int(rng.integers(0, n))
        draws += 1
        chosen[v] = True
        covered[v] = True
        covered[(v + chords) % n] = True
    D = VertexSet(n, chosen)
    verified, leftover = is_dominating(spec, D, 1)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return DominationReport(
        method="random",
        n=n,
        k=spec.k,
        r=1,
        D=D,
        size=D.size,
        verified=verified,
        uncovered_count=leftover.size,
        wall_ms=wall_ms,
        parameters={"draws": draws},
        seed=seed,
        generator=RNG_NAME,
    )


def random_chord_set(n: int, k: int, seed: int, symmetric: bool = False):
    """Draw k distinct chords from [1, n-1]; optionally closed under s -> n-s.

    For symmetric draws with odd k, n must be even (the fixed point n/2 is
    forced into the set).
    """
    from .graph import ChordSet

    if not 1 <= k <= n - 1:
        raise ValueError("require 1 <= k <= n - 1")
    rng = np.random.default_rng(seed)
    if not symmetric:
        chords = rng.choice(n - 1, size=k, replace=False) + 1
        return ChordSet(n, tuple(sorted(int(c) for c in chords)))
    out: set[int] = set()
    if k % 2 == 1:
        if n % 2 != 0:
            raise ValueError("odd symmetric chord count requires even n")
        out.add(n // 2)
    while len(out) < k:
        t = int(rng.integers(1, n))
        if t == n - t:
            continue
        out.add(t)
        out.add(n - t)
    return ChordSet(n, tuple(sorted(out)))
