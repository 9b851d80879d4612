import math

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

from conftest import naive_greedy_picks, naive_random_cover


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


def test_greedy_picks_match_recount_oracle():
    count = 0
    for n, chords in greedy_instances():
        picks = _greedy_picks(n, np.asarray(chords, dtype=np.int64))
        assert picks == naive_greedy_picks(n, chords), (n, chords)
        count += 1
    assert count >= 200


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
NAIVE_RANDOM = {}  # (n, k) -> chord set, one-at-a-time (picks, draws)


@pytest.mark.parametrize("cells", [1, 7, 200, CHUNK_CELLS])
@pytest.mark.parametrize("n, k", [(24, 2), (2000, 25), (10**5, 100)])
def test_random_phases_match_one_at_a_time(n, k, cells, monkeypatch):
    # with whole chunks, the first chunk at n = 24 and n = 2000 completes
    # the cover, so it is undone and replayed; n = 10^5 reaches the testing
    # phase with <= k left. n = 24, k = 2 (chord seed 1, draw seed 2, found
    # by a seeded search) with one draw per chunk fails if the count bound
    # drops slower than the hits: a draw then completes the cover uncounted
    monkeypatch.setattr(graph, "CELLS", cells)
    undone, tested = [], []
    shift_cover, shifted_lookup = baselines.shift_cover, baselines.shifted_lookup

    def undo_spy(*args):
        undone.append(1)
        return shift_cover(*args)

    def test_spy(table, x, a):
        tested.append(x.size)
        return shifted_lookup(table, x, a)

    monkeypatch.setattr(baselines, "shift_cover", undo_spy)
    monkeypatch.setattr(baselines, "shifted_lookup", test_spy)
    if (n, k) not in NAIVE_RANDOM:
        S = random_chord_set(n, k, 1)
        NAIVE_RANDOM[n, k] = S, naive_random_cover(n, S.chords, 2)
    S, (picks, draws) = NAIVE_RANDOM[n, k]
    chosen, got = baselines._random_picks(n, S.as_array(), 2)
    assert np.flatnonzero(chosen).tolist() == picks
    assert got == draws
    if cells == CHUNK_CELLS and n <= 2000:
        assert len(undone) == 1 and tested[0] == n
    elif cells == CHUNK_CELLS:
        assert not undone and 0 < tested[0] <= k


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
    S = random_chord_set(100, 10, 1, symmetric=True)
    assert S.k == 10 and S.symmetric
    S = random_chord_set(100, 7, 2, symmetric=True)
    assert S.k == 7 and S.symmetric and 50 in S.chords
    with pytest.raises(ValueError):
        random_chord_set(101, 7, 3, symmetric=True)
