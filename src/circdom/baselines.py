"""Baseline constructions: greedy set cover and randomized covering.

Greedy keeps every vertex's gain (uncovered vertices in its closed
neighbourhood) across rounds and lowers only the gains a pick changes,
so a round costs O(n + |newly covered| * (k+1)) instead of a full
recount. The randomized baseline samples vertices uniformly with
replacement until coverage is complete, seeded through numpy's PCG64 for
cross-platform determinism; draws come in chunks from the same stream
and stop at the exact draw a one-at-a-time loop would stop at.
"""

from __future__ import annotations

import time

import numpy as np

from .construct import DominationReport, report
from .graph import ChordSet, CirculantSpec, VertexSet
# Not called here; circbench's test_rebound_names_are_restored looks it up.
from .verify import is_dominating  # noqa: F401

RNG_NAME = "PCG64"
# Index entries (draws * (k+1)) per chunk of random draws.
RANDOM_CHUNK_CELLS = 2**16


def _greedy_picks(n: int, chords: np.ndarray) -> list[int]:
    """Greedy picks in order; ties break toward the smallest vertex index.

    gain[v] counts the uncovered vertices among v + (S u {0}). Covering x
    lowers exactly gain[x - s] for s in S u {0}.
    """
    offsets = np.concatenate(([0], chords))
    gain = np.full(n, offsets.size, dtype=np.int64)
    uncovered = np.ones(n, dtype=bool)
    picks: list[int] = []
    while True:
        u = int(np.argmax(gain))  # argmax returns the first maximum
        if gain[u] == 0:
            return picks
        picks.append(u)
        hit = (u + offsets) % n
        fresh = hit[uncovered[hit]]
        uncovered[fresh] = False
        np.subtract.at(gain, ((fresh[:, None] - offsets) % n).ravel(), 1)


def greedy_dominating(spec: CirculantSpec) -> DominationReport:
    """Pick the vertex covering the most uncovered vertices each round.

    Ties break toward the smallest vertex index. Always terminates with a
    verified dominating set.
    """
    n = spec.n
    t0 = time.perf_counter()
    picks = _greedy_picks(n, spec.chords.as_array())
    return report("greedy", spec, VertexSet.from_indices(n, picks), 1, t0,
                  {"rounds": len(picks)})


def _random_picks(n: int, chords: np.ndarray, seed: int):
    """(membership of the drawn vertices, number of draws) until covered.

    Chunked draws from rng.integers(0, n, size=B) are the same stream as
    B scalar draws; the chunk that completes the coverage is replayed one
    draw at a time, so the set and the draw count match a scalar loop.
    """
    offsets = np.concatenate(([0], chords))
    batch = max(1, RANDOM_CHUNK_CELLS // offsets.size)
    rng = np.random.default_rng(seed)
    covered = np.zeros(n, dtype=bool)
    chosen = np.zeros(n, dtype=bool)
    draws = 0
    while True:
        v = rng.integers(0, n, size=batch)
        hits = v[:, None] + offsets
        np.subtract(hits, n, out=hits, where=hits >= n)
        new = hits[~covered[hits]]
        covered[new] = True
        if covered.all():
            break
        draws += batch
        chosen[v] = True
    # This chunk completed the coverage: undo it and replay it draw by draw.
    covered[new] = False
    uncovered = n - np.count_nonzero(covered)
    for u, row in zip(v.tolist(), hits):
        row = row[~covered[row]]  # offsets are distinct mod n
        covered[row] = True
        uncovered -= row.size
        draws += 1
        chosen[u] = True
        if uncovered == 0:
            return chosen, draws


def random_dominating(spec: CirculantSpec, seed: int) -> DominationReport:
    """Sample vertices uniformly with replacement until coverage completes."""
    n = spec.n
    t0 = time.perf_counter()
    # the cover's work arrays are freed before the verification pass
    chosen, draws = _random_picks(n, spec.chords.as_array(), seed)
    return report("random", spec, VertexSet(n, chosen), 1, t0,
                  {"draws": draws}, seed=seed, generator=RNG_NAME)


def random_chord_set(n: int, k: int, seed: int, symmetric: bool = False):
    """Draw k distinct chords from [1, n-1]; optionally closed under s -> n-s.

    For symmetric draws with odd k, n must be even (the fixed point n/2 is
    forced into the set).
    """
    if not 1 <= k <= n - 1:
        raise ValueError("require 1 <= k <= n - 1")
    rng = np.random.default_rng(seed)
    if not symmetric:
        chords = rng.choice(n - 1, size=k, replace=False) + 1
        return ChordSet(n, tuple(np.sort(chords).tolist()))
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
