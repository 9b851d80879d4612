import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circdom import graph
from circdom.errors import ChordFileError
from circdom.graph import (
    ChordSet,
    CirculantSpec,
    VertexSet,
    coverage,
    load_chord_file,
    shift_cover,
)

from conftest import naive_coverage, naive_shift_cover, random_subset


def spec_of(n, chords):
    return CirculantSpec(n, ChordSet(n, tuple(sorted(chords))))


# hypothesis strategy: a small spec plus a subset and radius
small_instances = st.integers(min_value=2, max_value=40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(1, n - 1), min_size=1, max_size=min(6, n - 1)),
        st.sets(st.integers(0, n - 1), min_size=0, max_size=n),
        st.integers(1, 3),
    )
)


def test_coverage_examples():
    spec = spec_of(4, [1])
    D = VertexSet.from_indices(4, [0, 2])
    assert coverage(spec, D, 1) == VertexSet(4, np.ones(4, dtype=bool))

    spec = spec_of(5, [1])
    got = coverage(spec, VertexSet.from_indices(5, [0]), 2)
    assert sorted(got.indices().tolist()) == [0, 1, 2]

    spec = spec_of(7, [2, 5])
    full = VertexSet(7, np.ones(7, dtype=bool))
    assert coverage(spec, full, 1) == full


@given(small_instances)
@example((40, {1, 5, 7}, set(range(40)) - {17}, 1))  # saturates at chord 1
@example((40, {3, 9}, set(range(40)) - {0}, 3))
@example((40, {10, 30}, {0}, 5))  # stops growing, unsaturated, at round 3
@example((40, {1}, {0, 20}, 4))  # grows every round, from the scratch copy
@settings(max_examples=150)
def test_coverage_matches_naive(inst):
    n, chords, dset, r = inst
    spec = spec_of(n, chords)
    D = VertexSet.from_indices(n, dset)
    got = set(coverage(spec, D, r).indices().tolist())
    assert got == naive_coverage(n, sorted(chords), sorted(dset), r)


def sieve_instances():
    """(hits, alive, items): hits[item, candidate] says which item hits
    which candidate; alive and items are distinct indices into it. Empty
    items, no candidates, hits too sparse to drop every candidate, and
    more candidates than 2^16."""
    rng = np.random.default_rng(31)
    for _ in range(60):
        m, size = int(rng.integers(0, 120)), int(rng.integers(0, 40))
        hits = rng.random((size + 5, m + 5)) < rng.choice([0.02, 0.1, 0.5])
        alive = np.sort(rng.choice(m + 5, size=m, replace=False))
        yield hits, alive, rng.permutation(size + 5)[:size]
    hits = rng.random((6, 70_000)) < 0.6
    yield hits, np.arange(70_000), np.arange(6)
    yield hits, np.arange(0), np.arange(6)
    yield hits, np.arange(9), np.arange(0)


def naive_first_hits(hits, alive, items):
    """Per candidate, the position in items of the first item hitting it,
    or None."""
    return [next((j for j, ell in enumerate(items) if hits[ell, x]), None)
            for x in alive]


@pytest.mark.parametrize("cells", [1, 7, 2**16])
def test_sieve_matches_first_hit_loop(cells, monkeypatch):
    monkeypatch.setattr(graph, "CELLS", cells)
    seen = set()
    for hits, alive, items in sieve_instances():
        blocks = []

        def hit(x, block):
            blocks.append((x.size, block.size))
            return hits[block][:, x]

        left, used, tested = graph._sieve(alive, items, hit)
        first = naive_first_hits(hits, alive, items)
        assert left.tolist() == [x for x, j in zip(alive, first) if j is None]
        if left.size or not alive.size:
            assert used == (items.size if alive.size else 0)
        else:
            assert used == 1 + max(first)
        # a candidate is tested at least through its first hit, and in
        # blocks of at most CELLS cells, or one item while more are left
        lower = sum(items.size if j is None else j + 1 for j in first)
        assert tested == sum(m * size for m, size in blocks) >= lower
        assert all(size == 1 or m * size <= cells for m, size in blocks)
        sizes = [size for _, size in blocks]  # the last holds item used - 1
        assert sum(sizes[:-1]) < used <= sum(sizes) if blocks else used == 0
        if cells == 1:
            assert tested == lower
        seen |= {"no items" if not items.size else "items",
                 "more than CELLS" if alive.size > cells else "at most CELLS",
                 "some left" if left.size else "none left"}
    assert len(seen) == 6, seen


def cover_instances():
    """(n, chords, sources): sparse sources, and sources with planted holes,
    vertices x whose coverers x - (S u {0}) are all cleared, each under an
    open cover (chords S) and a closed one (S u {0}, chord 0 last), at
    random n and at n = 0, 1 and 7 mod 64."""
    rng = np.random.default_rng(17)
    for n in [*rng.integers(2, 1500, 30).tolist(), 640, 641, 647]:
        chords = random_subset(rng, n, int(rng.integers(1, min(n - 1, 60) + 1)))
        sources = rng.random(n) < 2.0 / (len(chords) + 1)
        holes = rng.random(n) < 4.0 / (len(chords) + 1)
        for x in rng.integers(0, n, 3):
            holes[(x - np.array((0, *chords))) % n] = False
        for cover in (chords, (*chords, 0)):
            yield n, cover, sources
            yield n, cover, holes


def check_cover(sources, chords):
    """shift_cover(sources, chords) against the index scatter; it leaves
    sources as it was and returns a mask of its own."""
    before = sources.copy()
    got = shift_cover(sources, chords)
    want = naive_shift_cover(np.zeros(sources.size, dtype=bool),
                             np.flatnonzero(sources), chords)
    assert np.array_equal(got, want), (sources.size, chords)
    assert np.array_equal(sources, before)
    assert not np.shares_memory(got, sources)
    return got


# (COUNT_EVERY, TEST_BELOW_SHARE, CELLS): switch after the first chord
# in one-cell or whole blocks, or on a count below n / 4 or n / 2 in small
# blocks (the shipped n / 512 needs larger n, see test_construct)
@pytest.mark.parametrize("every, share, cells", [
    (1, 1, 1), (1, 1, 2**16), (3, 4, 7), (graph.COUNT_EVERY, 2, 200)])
def test_shift_cover_testing_phase_matches_naive(every, share, cells,
                                                  monkeypatch):
    monkeypatch.setattr(graph, "COUNT_EVERY", every)
    monkeypatch.setattr(graph, "TEST_BELOW_SHARE", share)
    monkeypatch.setattr(graph, "CELLS", cells)
    tested, sieve = [], graph._sieve

    def spy(alive, chords, hit):
        tested.append((chords.size, 0 in chords))
        return sieve(alive, chords, hit)

    monkeypatch.setattr(graph, "_sieve", spy)
    sieved, undominated, zero_tested = 0, 0, set()
    for n, chords, sources in cover_instances():
        tested.clear()
        got = check_cover(sources, chords)
        sieved += bool(tested)
        undominated += chords[-1] == 0 and not got.all()
        if any(zero for _, zero in tested):
            zero_tested.add(n)
        if n <= 500 and chords[-1] == 0:  # and coverage, by S u {0}
            spec, D = spec_of(n, chords[:-1]), VertexSet(n, sources)
            for r in (1, 2):  # the second round covers the first's cover
                assert set(coverage(spec, D, r).indices().tolist()) == \
                    naive_coverage(n, chords[:-1], np.flatnonzero(sources), r)
    assert sieved >= 10 and undominated >= 20
    if every == 1:  # chord 0, last, is tested at n = 0, 1 and 7 mod 64
        assert {640, 641, 647} <= zero_tested, zero_tested


def word_instances():
    """(n, chords, sources) for the packed stage: every n mod 8, below 64
    and above, at and off multiples of 64 (n = 0, 1 and 7 mod 64), and
    10^5; chords 1 and n - 1, chords at each bit offset (n - s) mod 8 and
    at (n - s) = 0 mod 64; sources holding vertices 0 and n - 1, from
    sparse to dense sources that saturate within a few chords, and sources
    of just under and exactly n / COUNT_EVERY vertices, at the start or
    spread; each under an open cover (chords S) and a closed one
    (S u {0}, chord 0 last)."""
    rng = np.random.default_rng(23)
    sizes = [*range(2, 10), 17, 63, 64, 65, 71, 127, 128, 129,
             *range(1000, 1008), 4099, 4103, 4160, 10**5]
    sizes += [int(x) for x in rng.integers(130, 6000, 8)]
    for n in sizes:
        k = int(rng.integers(1, min(n - 1, 300) + 1))
        chords = {1, n - 1, *random_subset(rng, n, k)}
        chords |= {n - o for o in range(8, 16) if o < n}
        chords |= {n - 64 * j for j in range(1, 4) if 64 * j < n}
        chords = tuple(sorted(chords))
        masks = []
        for density in (0.003, 0.02, 0.1, 0.5, 0.9):
            masks.append(rng.random(n) < density)
            masks[-1][[0, n - 1]] = True
        edge = -(-n // graph.COUNT_EVERY)
        for m in (edge - 1, edge):
            for where in (np.arange(m), rng.choice(n, m, replace=False)):
                masks.append(np.zeros(n, dtype=bool))
                masks[-1][where] = True
        for sources in masks:
            yield n, chords, sources
            yield n, (*chords, 0), sources


def test_shift_cover_word_phase_matches_naive(monkeypatch):
    # every cover hands all its chords to _or_words, and _sieve gets just
    # the chords it returns and the vertices its packed cover leaves clear;
    # patching the count interval and the testing share drives every way
    # through: saturating at a count, ORing to the last chord, testing
    # after a count, with chord 0 ORed or tested
    calls, stages, or_words, sieve = [], [], graph._or_words, graph._sieve

    def unpack(cover):
        return np.unpackbits(cover.view(np.uint8), bitorder="little")

    def spy_words(sources, chords):
        stages.append("words")
        calls.append((chords.size, *or_words(sources, chords)))
        return calls[-1][1:]

    def spy_test(alive, chords, hit):
        stages.append("test")
        assert chords is calls[-1][1]
        assert alive.tolist() == np.flatnonzero(unpack(calls[-1][2]) == 0
                                                ).tolist()
        return sieve(alive, chords, hit)

    monkeypatch.setattr(graph, "_or_words", spy_words)
    monkeypatch.setattr(graph, "_sieve", spy_test)
    paths, zero = set(), set()
    for every, share in ((1, 2**40), (3, 4), (graph.COUNT_EVERY, 2),
                         (graph.COUNT_EVERY, graph.TEST_BELOW_SHARE)):
        monkeypatch.setattr(graph, "COUNT_EVERY", every)
        monkeypatch.setattr(graph, "TEST_BELOW_SHARE", share)
        for n, chords, sources in word_instances():
            stages.clear()
            calls.clear()
            got = check_cover(sources, chords)
            [(size, rest, cover)] = calls
            assert size == len(chords), (n, every)
            bits = unpack(cover)  # padding bits set, marks within got
            assert bits[n:].all() and not (bits[:n] > got).any(), n
            if rest.size:  # it stops only below the share
                assert share * (n - np.count_nonzero(bits[:n])) < n
            else:
                assert np.array_equal(bits[:n], got), (n, every, share)
            assert stages in (["words"], ["words", "test"]), (n, every)
            paths.add((*stages, "all" if got.all() else "some"))
            if chords[-1] != 0:
                continue
            if n % 64 in (0, 1, 7):
                zero.add((n % 64, "test" if 0 in rest else "words"))
            spec, D = spec_of(n, chords[:-1]), VertexSet(n, sources)
            want = got  # coverage's first round; the second covers it
            assert np.array_equal(coverage(spec, D, 1).members, want)
            want = naive_shift_cover(want.copy(), np.flatnonzero(want),
                                     chords)
            assert np.array_equal(coverage(spec, D, 2).members, want)
            if n <= 1000:
                for r in (1, 2):
                    assert set(coverage(spec, D, r).indices().tolist()) == \
                        naive_coverage(n, chords[:-1],
                                       np.flatnonzero(sources), r)
    assert {("words", "all"), ("words", "some"),
            ("words", "test", "some")} <= paths, paths
    assert zero == {(m, stage) for m in (0, 1, 7)
                    for stage in ("words", "test")}, zero


def test_unmarked_reads_clear_bits_of_partial_words():
    # packed masks with their padding bits set, as _or_words packs covered:
    # full words, words with one or many clear bits, a last partial word
    # with its last vertex clear or set, and no vertex marked at all
    rng = np.random.default_rng(29)
    for n in (1, 2, 7, 8, 63, 64, 65, 127, 128, 129, 1000, 4161):
        for clear in (0, 1, 2, n // 50 + 1, n // 3 + 1, n):
            mask = np.ones(n, dtype=bool)
            mask[rng.choice(n, min(clear, n), replace=False)] = False
            for last in (True, False):
                mask[-1] = last
                padded = np.ones(64 * -(-n // 64), dtype=bool)
                padded[:n] = mask
                cover = np.packbits(padded, bitorder="little").view(graph.WORD)
                got = graph._unmarked(cover)
                assert got.tolist() == np.flatnonzero(~mask).tolist(), n


def test_shifted_lookup_matches_modulo():
    # every pair (x, a) at small n, so x < a, x == a and x > a all occur
    rng = np.random.default_rng(37)
    for n in (1, 2, 5, 64, 1000):
        table = rng.random(n) < 0.5
        for x, a in ((np.arange(n), np.arange(n)),
                     (rng.integers(0, n, 50), rng.integers(0, n, 7))):
            want = table[(x[None, :] - a[:, None]) % n]
            assert np.array_equal(graph.shifted_lookup(table, x, a), want)


@given(small_instances)
@settings(max_examples=100)
def test_coverage_monotone_and_composes(inst):
    n, chords, dset, r = inst
    spec = spec_of(n, chords)
    D = VertexSet.from_indices(n, dset)
    cov_r = coverage(spec, D, r)
    cov_r1 = coverage(spec, D, r + 1)
    # monotone in r
    assert np.all(cov_r1.members >= cov_r.members)
    # composition law
    assert coverage(spec, cov_r, 1) == cov_r1
    # monotone in D
    bigger = VertexSet(n, D.members | (np.arange(n) == 0))
    assert np.all(coverage(spec, bigger, r).members >= cov_r.members)


@given(small_instances)
@settings(max_examples=80)
def test_symmetric_coverage_direction_free(inst):
    n, chords, dset, r = inst
    cs = ChordSet(n, tuple(sorted({*chords, *(n - s for s in chords)})))
    spec = CirculantSpec(n, cs)
    neg = ChordSet(n, tuple(sorted((n - s) % n for s in cs.chords)))
    assert neg.chords == cs.chords  # symmetric: -S == S, membership-level
    D = VertexSet.from_indices(n, dset)
    assert coverage(spec, D, r) == coverage(CirculantSpec(n, neg), D, r)


def test_chord_file_roundtrip(tmp_path):
    p = tmp_path / "chords.txt"
    p.write_text("# cycle on 9 vertices\n1\n\n8\n")
    cs = load_chord_file(p, 9)
    assert cs.chords == (1, 8)


def test_chord_file_duplicate_names_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1\n2\n1\n")
    with pytest.raises(ChordFileError, match="3"):
        load_chord_file(p, 9)


def test_chord_file_bad_value(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1\nnope\n")
    with pytest.raises(ChordFileError, match="2"):
        load_chord_file(p, 9)
    p.write_text("0\n")
    with pytest.raises(ChordFileError, match="1"):
        load_chord_file(p, 9)
    # int() reads each of these, as 10, 3 and 7
    for line in ("1_0", "\uff13", "+7"):
        p.write_text(f"1\n{line}\n", encoding="utf-8")
        with pytest.raises(ChordFileError, match=":2: not an integer"):
            load_chord_file(p, 50)


def test_vertexset_basics():
    v = VertexSet.from_indices(10, [1, 3, 3, 7])
    assert v.size == 3
    assert v.indices().tolist() == [1, 3, 7]
    with pytest.raises(ValueError):
        VertexSet.from_indices(10, [10])
