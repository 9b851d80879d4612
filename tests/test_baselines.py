import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest

from circdom import baselines, graph
from circdom.baselines import (
    _greedy_picks,
    greedy_dominating,
    random_chord_set,
    random_dominating,
)
from circdom.graph import ChordSet, CirculantSpec
from circdom.verify import exact_gamma

from conftest import (argmax_greedy_picks, naive_greedy_picks,
                      naive_random_cover, naive_shift_cover)


def spec_of(n, chords):
    return CirculantSpec(n, ChordSet(n, tuple(sorted(chords))))


def test_greedy_tiny():
    rep = greedy_dominating(spec_of(3, [1, 2]))
    assert rep.verified and rep.size == 1


def test_greedy_cycle9_hits_optimum():
    spec = spec_of(9, [1, 8])
    rep = greedy_dominating(spec)
    assert rep.verified
    assert rep.size == 3 == exact_gamma(spec)


def test_greedy_cover_guarantee():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(10, 400))
        k = int(rng.integers(1, min(n - 1, 30) + 1))
        S = random_chord_set(n, k, int(rng.integers(2**32)))
        rep = greedy_dominating(CirculantSpec(n, S))
        assert rep.verified
        assert rep.size <= (math.log(k + 2) + 1) * n / (k + 1)


def test_greedy_dominance_over_exact():
    rng = np.random.default_rng(9)
    for _ in range(15):
        n = int(rng.integers(4, 19))
        k = int(rng.integers(1, n - 1))
        S = random_chord_set(n, k, int(rng.integers(2**32)))
        spec = CirculantSpec(n, S)
        assert greedy_dominating(spec).size >= exact_gamma(spec)


def greedy_instances():
    rng = np.random.default_rng(11)
    for _ in range(150):
        n = int(rng.integers(2, 300))
        k = int(rng.integers(1, min(n - 1, 24) + 1))
        yield n, random_chord_set(n, k, int(rng.integers(2**32))).chords
    for _ in range(30):
        n = 2 * int(rng.integers(2, 150))
        k = int(rng.integers(1, min(n - 1, 24) + 1))
        S = random_chord_set(n, k, int(rng.integers(2**32)), symmetric=True)
        yield n, S.chords
    for n in range(3, 43, 2):  # every vertex ties with every other
        yield n, (1, n - 1)


# CELLS below n makes the forward scan cross block boundaries
@pytest.mark.parametrize("cells", [1, 7, 200, graph.CELLS])
def test_greedy_picks_match_recount_oracle(cells, monkeypatch):
    monkeypatch.setattr(graph, "CELLS", cells)
    count = 0
    for n, chords in greedy_instances():
        picks = _greedy_picks(n, np.asarray(chords, dtype=np.int64))
        assert picks == naive_greedy_picks(n, chords), (n, chords)
        count += 1
    assert count >= 200


def test_greedy_first_round_stays_in_cell_budget():
    # round 1 covers k + 1 vertices: one table of their (k + 1)^2 int64
    # indices peaked at 129 MB. The digest is of the 129 picks it made.
    chords = random_chord_set(10**5, 4000, 1).as_array()
    tracemalloc.start()
    try:
        picks = _greedy_picks(10**5, chords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert len(picks) == 129
    assert hashlib.sha256(np.array(picks, dtype=np.int64)).hexdigest() == (
        "a3c30edbd77ee78489e82390ee370d54e2c7cc3a6aa1714d89aed1ba31e049fd")


@pytest.mark.parametrize("cells", [200, graph.CELLS])
@pytest.mark.parametrize("n", [5000, 20000])
def test_greedy_picks_match_argmax_oracle(n, cells, monkeypatch):
    monkeypatch.setattr(graph, "CELLS", cells)
    for seed in (1, 2, 3):
        chords = random_chord_set(n, 100, seed).as_array()
        picks = _greedy_picks(n, chords)
        assert picks == argmax_greedy_picks(n, chords), (n, seed)


@pytest.mark.parametrize("cells", [1, 7, 200, graph.CELLS])
def test_random_draws_match_one_at_a_time(cells, monkeypatch):
    # chunked draws stop at the same draw as the scalar loop, whatever B is
    monkeypatch.setattr(graph, "CELLS", cells)
    rng = np.random.default_rng(13)
    for _ in range(12):
        n = int(rng.integers(2, 400))
        k = int(rng.integers(1, min(n - 1, 12) + 1))
        S = random_chord_set(n, k, int(rng.integers(2**32)))
        seed = int(rng.integers(2**32))
        rep = random_dominating(CirculantSpec(n, S), seed)
        picks, draws = naive_random_cover(n, S.chords, seed)
        assert rep.D.indices().tolist() == picks
        assert rep.parameters["draws"] == draws


CHUNK_CELLS = graph.CELLS
NAIVE_RANDOM = {}  # (n, k, seed) -> chord set, one-at-a-time (picks, draws)
NAIVE_DRAWS = {}  # (n, seed) -> the first scalar draws of the stream


def naive_random(n, k, seed):
    """Chord seed 1's set and the one-at-a-time (picks, draws) at seed."""
    if (n, k, seed) not in NAIVE_RANDOM:
        S = random_chord_set(n, k, 1)
        NAIVE_RANDOM[n, k, seed] = S, naive_random_cover(n, S.chords, seed)
    return NAIVE_RANDOM[n, k, seed]


def naive_draws(n, seed, count):
    """The first count draws of rng.integers(0, n), one call per draw."""
    got = NAIVE_DRAWS.get((n, seed), [])
    if len(got) < count:
        rng = np.random.default_rng(seed)
        got = NAIVE_DRAWS[n, seed] = [int(rng.integers(0, n))
                                      for _ in range(count)]
    return got[:count]


def spy_phases(monkeypatch):
    """Record each prefix that _random_picks covers (its drawn vertices)
    and each block its phase 2 tests (candidates, draws)."""
    covers, blocks = [], []
    shift_cover, shifted_lookup = baselines.shift_cover, baselines.shifted_lookup

    def cover_spy(sources, chords):
        covers.append(np.flatnonzero(sources).tolist())
        assert chords[0] == 0  # a closed cover, by S u {0}
        return shift_cover(sources, chords)

    def test_spy(table, x, a):
        blocks.append((x.size, a.size))
        return shifted_lookup(table, x, a)

    monkeypatch.setattr(baselines, "shift_cover", cover_spy)
    monkeypatch.setattr(baselines, "shifted_lookup", test_spy)
    return covers, blocks


def check_phases(n, S, seed, covers, blocks, cells):
    """Prefix j holds the first prefix_draws(n, k, 2^j * PREFIX_LEFT)
    draws of the stream; each prefix but the last covers Z_n, and phase
    2's first block tests the u vertices the last one leaves against
    max(1, min(ceil(n / (k + 1)), cells // u)) draws."""
    left = baselines.PREFIX_LEFT
    for j, drawn in enumerate(covers):
        prefix = naive_draws(n, seed, baselines.prefix_draws(n, S.k, left))
        assert drawn == sorted(set(prefix)), j
        marked = np.zeros(n, dtype=bool)
        marked[prefix] = True
        naive_shift_cover(marked, np.array(prefix, dtype=np.int64), S.chords)
        uncovered = n - np.count_nonzero(marked)
        assert (uncovered == 0) == (j < len(covers) - 1), j
        left *= 2
    cap = -(-n // (S.k + 1))
    assert blocks[0] == (uncovered, max(1, min(cap, cells // uncovered)))


@pytest.mark.parametrize("cells", [1, 7, 200, CHUNK_CELLS])
@pytest.mark.parametrize("n, k", [(24, 2), (73, 3), (2000, 1), (2000, 25),
                                  (10**5, 100)])
def test_random_phases_match_one_at_a_time(n, k, cells, monkeypatch):
    # n = 73 steps back twice (see test_random_prefix_covering_steps_back)
    monkeypatch.setattr(graph, "CELLS", cells)
    covers, blocks = spy_phases(monkeypatch)
    S, (picks, draws) = naive_random(n, k, 2)
    chosen, got = baselines._random_picks(n, S.as_array(), 2)
    assert np.flatnonzero(chosen).tolist() == picks
    assert got == draws
    check_phases(n, S, 2, covers, blocks, cells)
    # a prefix of T draws covers Z_n iff the one-at-a-time loop stopped
    # within it: draws <= T; every such prefix is drawn again, shorter
    j = 0
    while baselines.prefix_draws(n, k, baselines.PREFIX_LEFT * 2**j) >= draws:
        j += 1
    assert len(covers) == j + 1
    if n != 73:
        assert 0 < blocks[0][0] <= k


@pytest.mark.parametrize("n, k, seed", [(2000, 25, 2), (10**5, 100, 2),
                                        (1000, 10, 12)])
def test_random_prefix_left_changes_no_output(n, k, seed, monkeypatch):
    # how many vertices the prefix leaves sets the time only: the set and
    # draws are the one-at-a-time loop's whatever the count. Draw seed 12
    # is the first of 1-12 whose 2-vertex prefix covers Z_1000 at k = 10
    # (found by search), so the prefix is drawn again above k = 6 too
    S, (picks, draws) = naive_random(n, k, seed)
    got, prefixes = [], []
    for left in (2, 8, (k + 1) / 4):
        monkeypatch.setattr(baselines, "PREFIX_LEFT", left)
        covers, _ = spy_phases(monkeypatch)
        chosen, used = baselines._random_picks(n, S.as_array(), seed)
        got.append((np.flatnonzero(chosen).tolist(), used))
        prefixes.append(len(covers))
        monkeypatch.undo()
    assert got == [(picks, draws)] * 3
    assert (prefixes[0] > 1) == (seed == 12)


def test_random_prefix_draws():
    # about left vertices are expected to be left uncovered: PREFIX_LEFT,
    # or a count that grows with k
    for n, k in ((24, 2), (2000, 25), (10**5, 100), (10**6, 1000)):
        for left in (baselines.PREFIX_LEFT, (k + 1) / 4):
            T = baselines.prefix_draws(n, k, left)
            miss = 1 - (k + 1) / n
            assert n * miss**T >= left > n * miss ** (T + 1)
    # nothing to draw once one draw may cover Z_n, or all n are to be left
    assert baselines.prefix_draws(3, 2, 0.75) == 0
    assert baselines.prefix_draws(100, 5, 100) == 0
    assert baselines.prefix_draws(100, 5, 99.9) == 0
    assert baselines.prefix_draws(100, 5, 94.1) == 0
    assert baselines.prefix_draws(100, 5, 93.9) == 1


def test_random_prefix_covering_steps_back(monkeypatch):
    # chord seed 1, draw seed 2 at n = 73, k = 3: the first two prefixes
    # (63 and 51 draws) cover Z_73, the third (39) leaves 4 vertices; at
    # n = 39, k = 1 the first (56) covers Z_39 and the second (43) does
    # not. An empty prefix leaves every vertex: at n = 4, k = 3 phase 2
    # tests all 4
    for n, k, prefixes in ((73, 3, [63, 51, 39]), (39, 1, [56, 43]),
                           (4, 3, [0])):
        S = random_chord_set(n, k, 1)
        covers, blocks = spy_phases(monkeypatch)
        chosen, got = baselines._random_picks(n, S.as_array(), 2)
        picks, draws = naive_random_cover(n, S.chords, 2)
        assert (np.flatnonzero(chosen).tolist(), got) == (picks, draws)
        check_phases(n, S, 2, covers, blocks, graph.CELLS)
        left = baselines.PREFIX_LEFT
        assert [baselines.prefix_draws(n, k, left * 2**j)
                for j in range(len(covers))] == prefixes
        monkeypatch.undo()


def test_random_draw_calls_hold_at_most_cells(monkeypatch):
    # k = 1 at n = 2^24 would draw a prefix of over 10^8 at once; each
    # call draws at most graph.CELLS, and the prefix calls add up to it
    assert baselines.prefix_draws(2**24, 1, 2) > 10**8
    n, cells = 5000, 64
    S = random_chord_set(n, 1, 1)
    sizes, default_rng = [], np.random.default_rng

    class SpyGenerator:
        def __init__(self, seed):
            self.rng = default_rng(seed)
            sizes.append([])

        def integers(self, low, high, size):
            sizes[-1].append(size)
            return self.rng.integers(low, high, size=size)

    monkeypatch.setattr(graph, "CELLS", cells)
    monkeypatch.setattr(np.random, "default_rng", SpyGenerator)
    covers, blocks = spy_phases(monkeypatch)
    chosen, got = baselines._random_picks(n, S.as_array(), 3)
    monkeypatch.undo()
    assert (np.flatnonzero(chosen).tolist(), got) == naive_random_cover(
        n, S.chords, 3)
    left = baselines.PREFIX_LEFT
    for j, calls in enumerate(sizes):
        T = baselines.prefix_draws(n, 1, left * 2**j)
        assert T > 100 * cells
        assert max(calls) <= cells
        prefix_calls = -(-T // cells)
        assert sum(calls[:prefix_calls]) == T
        # the last generator also draws phase 2's blocks; the others none
        assert (len(calls) > prefix_calls) == (j == len(sizes) - 1)
    assert len(sizes) == len(covers) and blocks


def test_random_dominating_verified_and_deterministic():
    spec = spec_of(3, [1, 2])
    rep = random_dominating(spec, seed=1)
    assert rep.verified and rep.size >= 1

    n = 500
    S = random_chord_set(n, 12, 7)
    spec = CirculantSpec(n, S)
    a = random_dominating(spec, seed=123)
    b = random_dominating(spec, seed=123)
    assert a.size == b.size
    assert np.array_equal(a.D.members, b.D.members)
    assert a.generator == "PCG64"


def test_random_dominating_envelope():
    n, k = 10**4, 100
    S = random_chord_set(n, k, 3)
    spec = CirculantSpec(n, S)
    sizes = sorted(random_dominating(spec, seed=s).size for s in range(15))
    median = sizes[len(sizes) // 2]
    envelope = n * math.log(n) / k
    assert envelope / 4 <= median <= envelope * 4


def test_random_chord_set_basics():
    S = random_chord_set(100, 10, 0)
    assert S.k == 10
    assert len(set(S.chords)) == 10
    assert all(1 <= s <= 99 for s in S.chords)
    # determinism
    assert random_chord_set(100, 10, 0).chords == S.chords


def test_random_chord_set_symmetric():
    # closed under s -> n - s, at every k a symmetric set can have
    for n in range(2, 40):
        for k in range(1 + n % 2, n, 1 + n % 2):
            S = random_chord_set(n, k, n * k, symmetric=True)
            assert S.k == k and {n - s for s in S.chords} == set(S.chords)
    S = random_chord_set(100, 10, 1, symmetric=True)
    assert S.k == 10 and {100 - s for s in S.chords} == set(S.chords)
    S = random_chord_set(100, 7, 2, symmetric=True)
    assert S.k == 7 and {100 - s for s in S.chords} == set(S.chords)
    assert 50 in S.chords
    assert random_chord_set(100, 7, 2, symmetric=True).chords == S.chords
    with pytest.raises(ValueError,
                       match="^odd symmetric chord count requires even n$"):
        random_chord_set(101, 7, 3, symmetric=True)


def test_random_chord_set_symmetric_full_draw_is_quick():
    # the pairs come from one draw without replacement, ~10 ms at n = 2^16
    # on a 2-vCPU Xeon; a draw until k chords were collected took ~0.65 s
    n = 2**16
    t0 = time.perf_counter()
    S = random_chord_set(n, n - 1, 5, symmetric=True)
    assert time.perf_counter() - t0 < 0.25
    assert S.chords == tuple(range(1, n))
