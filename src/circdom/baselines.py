"""Baseline constructions: greedy set cover and randomized covering.

Greedy keeps every vertex's gain (uncovered vertices in its closed
neighbourhood) across rounds, lowers only the gains a pick changes, and
finds each pick by a forward scan from the last one, not an argmax a
round: O(n (k+1)) in all. It indexes the gains a pick lowers in blocks
of graph.CELLS cells, not (k+1)^2 at once in its first round. At
k = 100 on a 2-vCPU Xeon it takes 3-5 ms at n = 5000 and ~1.5 s at
n = 10^6. The randomized baseline samples
vertices uniformly with replacement until coverage is complete, seeded
through numpy's PCG64 for cross-platform determinism; draws come in
chunks from the same stream and stop at the exact draw a one-at-a-time
loop would stop at. It covers a prefix of the draws, which leaves ~2
vertices expected uncovered, by S u {0} in one graph.shift_cover call
(the verification's closed cover), then tests the few left against the
next draws with graph._sieve, the kernel with which build_W and
shift_cover also test the few vertices they leave unmarked.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import graph
from .construct import DominationReport, report
from .graph import (ChordSet, CirculantSpec, VertexSet, _sieve, shift_cover,
                    shifted_lookup)
# Not called here; circbench's test_rebound_names_are_restored looks it up.
from .verify import is_dominating  # noqa: F401

RNG_NAME = "PCG64"
# The random baseline's prefix leaves about PREFIX_LEFT vertices uncovered
# in expectation, at every k. Fewer left draws a longer prefix, at one
# scattered cell a draw, and tests fewer after it, but covers Z_n on about
# e^-PREFIX_LEFT of seeds and then draws again. At n = 10^6 on a 2-vCPU
# Xeon, leaving 2 rather than (k + 1) / 4 took 10.8 against 13.9 ms at
# k = 1000 (means, draw seeds 1-32); no other count was faster at every k.
PREFIX_LEFT = 2


def _greedy_picks(n: int, chords: np.ndarray) -> list[int]:
    """Greedy picks in order; ties break toward the smallest vertex index.

    gain[v] counts the uncovered vertices among v + (S u {0}). Covering x
    lowers exactly gain[x - s] for s in S u {0}; x - s lies in (-n, n), and
    numpy wraps a negative index to (x - s) mod n.

    Gains only fall, so while the maximum stays m the first vertex holding
    m never moves left: the pick is found by scanning forward from the
    last one in blocks of graph.CELLS. Once the scan passes n - 1, no
    vertex holds m any more, and one full argmax sets the new maximum and
    restarts the scan there. Each of the at most k + 1 values of m costs
    one forward pass and one argmax over n, whatever the number of rounds.
    gain is int32, half the bytes that the scattered decrements touch, and
    is lowered by np.int32(1): a Python int 1 takes ufunc.at on int32 off
    numpy's fast path.
    """
    offsets = np.concatenate(([0], chords))
    gain = np.full(n, offsets.size, dtype=np.int32)
    uncovered = np.ones(n, dtype=bool)
    rows = max(1, graph.CELLS // offsets.size)
    picks: list[int] = []
    u, m = 0, offsets.size  # no vertex before u holds m, none more than m
    while True:
        while u < n:
            block = gain[u:u + graph.CELLS]
            i = int(block.argmax())  # argmax returns the first maximum
            if block[i] == m:
                u += i
                break
            u += block.size
        else:
            u = int(gain.argmax())
            m = int(gain[u])
            if m == 0:
                return picks
        picks.append(u)
        hit = (u + offsets) % n
        fresh = hit[uncovered[hit]]
        uncovered[fresh] = False
        for s in range(0, fresh.size, rows):
            np.subtract.at(gain, (fresh[s:s + rows, None] - offsets).ravel(),
                           np.int32(1))


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


def prefix_draws(n: int, k: int, left: float) -> int:
    """Draws after which about left vertices are expected to be uncovered:
    a draw misses a given vertex with probability 1 - (k + 1) / n. 0 when
    left >= n, or k + 1 >= n, where one draw may cover Z_n."""
    if k + 1 >= n or left >= n:
        return 0
    return math.floor(math.log(n / left) / -math.log1p(-(k + 1) / n))


def _random_picks(n: int, chords: np.ndarray, seed: int):
    """(membership of the drawn vertices, number of draws) until covered.

    The result is what a one-draw-at-a-time loop returns: the set of draws
    up to the first one after which every vertex is covered. Draws come
    from rng.integers(0, n, size=B) in chunks of at most graph.CELLS, the
    same stream as B scalar draws.

    Phase 1 marks the first prefix_draws(n, k, PREFIX_LEFT) draws and
    covers them by S u {0} in one shift_cover call. If they cover Z_n,
    the cover completed among them: a fresh generator draws the shorter
    prefix that leaves twice as many vertices expected, until one is
    left (the empty prefix leaves all).
    Phase 2 tests the u vertices left against the next draws with _sieve,
    u cells per draw: draw v covers x iff (x - v) mod n is in S u {0}.
    The cover completes at the draw that drops the last x. A call draws
    at most ceil(n / (k + 1)) draws, about as many as hit one given
    vertex, and at most graph.CELLS // u.
    """
    offsets = np.concatenate(([0], chords))
    left = PREFIX_LEFT
    while True:
        draws = prefix_draws(n, chords.size, left)
        rng = np.random.default_rng(seed)
        chosen = np.zeros(n, dtype=bool)
        for start in range(0, draws, graph.CELLS):
            size = min(graph.CELLS, draws - start)
            chosen[rng.integers(0, n, size=size)] = True
        covered = shift_cover(chosen, offsets)
        if not covered.all():
            break
        left *= 2
    alive = np.flatnonzero(np.logical_not(covered, out=covered))
    table = covered  # phase 2 needs only alive: the mask becomes S u {0}
    table[:] = False
    table[offsets] = True
    cap = -(-n // offsets.size)  # the mean draws to hit a given vertex
    while alive.size:
        size = max(1, min(cap, graph.CELLS // alive.size))
        v = rng.integers(0, n, size=size)
        alive, used, _ = _sieve(alive, v,
                                lambda x, a: shifted_lookup(table, x, a))
        chosen[v[:used]] = True
        draws += used
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

    A symmetric draw takes k // 2 distinct t <= (n - 1) // 2, their mirrors
    n - t, and for odd k the fixed point n/2, so n must then be even.
    """
    if not 1 <= k <= n - 1:
        raise ValueError("require 1 <= k <= n - 1")
    if symmetric and k % 2 == n % 2 == 1:
        raise ValueError("odd symmetric chord count requires even n")
    rng = np.random.default_rng(seed)
    if symmetric:
        t = rng.choice((n - 1) // 2, size=k // 2, replace=False) + 1
        chords = np.concatenate((t, n - t, np.full(k % 2, n // 2)))
    else:
        chords = rng.choice(n - 1, size=k, replace=False) + 1
    return ChordSet(n, tuple(np.sort(chords).tolist()))
