"""Baseline constructions: greedy set cover and randomized covering.

Greedy keeps every vertex's gain (uncovered vertices in its closed
neighbourhood) across rounds and lowers only the gains a pick changes,
so a round costs O(n + |newly covered| * (k+1)) instead of a full
recount. The randomized baseline samples vertices uniformly with
replacement until coverage is complete, seeded through numpy's PCG64 for
cross-platform determinism; draws come in chunks from the same stream
and stop at the exact draw a one-at-a-time loop would stop at. It
scatters whole chunks of draws while many vertices are uncovered, then
tests the few left against the next draws with graph._sieve, the kernel
with which build_W and shift_cover also test the few vertices they
leave unmarked.
"""

from __future__ import annotations

import time

import numpy as np

from . import graph
from .construct import DominationReport, report
from .graph import (ChordSet, CirculantSpec, VertexSet, _sieve, shift_cover,
                    shifted_lookup)
# Not called here; circbench's test_rebound_names_are_restored looks it up.
from .verify import is_dominating  # noqa: F401

RNG_NAME = "PCG64"


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

    Draws come from rng.integers(0, n, size=B) in chunks, the same stream
    as B scalar draws, and the result is what a one-draw-at-a-time loop
    returns: the set of draws up to the first one after which every
    vertex is covered.

    Phase 1 scatters whole chunks of about graph.CELLS hits while at
    least k + 1 vertices are uncovered, with no gather and no filter:
    most late hits land on covered vertices. It counts the uncovered
    vertices only once the last count minus the hits scattered since, a
    lower bound, is at most k: until then the chunk certainly leaves more
    than k uncovered, so only a counted chunk can end phase 1 or complete
    the cover. A draw covers at most k + 1 vertices, so below that phase 2
    tests the u uncovered vertices against the next draws with _sieve
    instead, u cells per draw against k + 1 scattered: draw v covers x iff
    (x - v) mod n is in S u {0}. The cover completes at the draw that
    drops the last x. A chunk that completes the cover in phase 1 (at
    small n) is undone, by rebuilding the cover of the earlier draws with
    shift_cover, and its draws are the first that phase 2 tests; fresh
    draws follow, graph.CELLS // u of them at a time.
    """
    offsets = np.concatenate(([0], chords))
    rng = np.random.default_rng(seed)
    covered = np.zeros(n, dtype=bool)
    chosen = np.zeros(n, dtype=bool)
    draws, uncovered = 0, n  # uncovered: a lower bound, exact when counted
    replay = np.empty(0, dtype=np.int64)
    while uncovered > chords.size:
        v = rng.integers(0, n, size=max(1, graph.CELLS // offsets.size))
        hits = v[:, None] + offsets
        np.subtract(hits, n, out=hits, where=hits >= n)
        covered[hits] = True
        uncovered -= hits.size
        if uncovered <= chords.size:
            uncovered = n - np.count_nonzero(covered)
        if uncovered == 0:  # undo this chunk; phase 2 replays it
            covered = shift_cover(chosen.copy(), chosen, chords)
            replay = v
            break
        chosen[v] = True
        draws += v.size
    alive = np.flatnonzero(np.logical_not(covered, out=covered))
    table = covered  # phase 2 needs only alive: the mask becomes S u {0}
    table[:] = False
    table[offsets] = True
    v = replay
    while True:
        alive, used, _ = _sieve(alive, v,
                                lambda x, a: shifted_lookup(table, x, a))
        chosen[v[:used]] = True
        draws += used
        if not alive.size:
            return chosen, draws
        v = rng.integers(0, n, size=max(1, graph.CELLS // alive.size))


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
