import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circdom.baselines import random_chord_set
from circdom.errors import TooLarge
from circdom.graph import ChordSet, CirculantSpec, VertexSet
from circdom.verify import (
    exact_gamma,
    gamma_lower_bound,
    is_dominating,
)

from conftest import (
    ap_family,
    naive_exact_gamma,
    naive_is_dominating,
    planted_family,
)

# gamma of every 2-chord set at n = 22, recorded by circbench's own solver
GAMMA_N22_TABLE = (
    Path(__file__).resolve().parents[1] / "circbench" / "gamma_n22_k2.json"
)


def spec_of(n, chords):
    return CirculantSpec(n, ChordSet(n, tuple(sorted(chords))))


def test_is_dominating_examples():
    spec = spec_of(4, [1])
    ok, unc = is_dominating(spec, VertexSet(4, np.ones(4, dtype=bool)), 1)
    assert ok and unc.size == 0

    ok, unc = is_dominating(spec, VertexSet.from_indices(4, [0, 2]), 1)
    assert ok and unc.size == 0

    ok, unc = is_dominating(spec, VertexSet.from_indices(4, [0]), 1)
    assert not ok
    assert sorted(unc.indices().tolist()) == [2, 3]


small = st.integers(min_value=2, max_value=30).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(1, n - 1), min_size=1, max_size=min(5, n - 1)),
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n),
        st.integers(1, 2),
    )
)


@given(small)
@settings(max_examples=150)
def test_is_dominating_matches_per_vertex_scan(inst):
    n, chords, dset, r = inst
    spec = spec_of(n, chords)
    D = VertexSet.from_indices(n, dset)
    ok, _ = is_dominating(spec, D, r)
    assert ok == naive_is_dominating(n, sorted(chords), sorted(dset), r)


def test_exact_gamma_examples():
    assert exact_gamma(spec_of(3, [1, 2])) == 1
    assert exact_gamma(spec_of(4, [1])) == 2
    assert exact_gamma(spec_of(9, [1, 8])) == 3  # ceil(n/3) for the cycle


def test_exact_gamma_guard():
    with pytest.raises(TooLarge):
        exact_gamma(spec_of(25, [1]))


def test_exact_gamma_is_minimal_by_oracle():
    # cross-check minimality against the naive per-vertex oracle over all
    # subsets for a couple of tiny instances
    import itertools

    for n, chords in [(7, (1, 3)), (8, (2, 5)), (6, (1, 5))]:
        spec = spec_of(n, chords)
        g = exact_gamma(spec)
        best = min(
            size
            for size in range(1, n + 1)
            for comb in itertools.combinations(range(n), size)
            if naive_is_dominating(n, list(chords), comb, 1)
        )
        assert g == best


def test_exact_gamma_matches_brute_force_all_small():
    # every chord set with k <= 2 for n <= 16
    for n in range(2, 17):
        for k in (1, 2):
            for chords in itertools.combinations(range(1, n), k):
                g = exact_gamma(spec_of(n, chords))
                assert g == naive_exact_gamma(n, chords), (n, chords)


def test_exact_gamma_matches_brute_force_seeded():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(8, 21))
        k = int(rng.integers(1, 5))
        chords = random_chord_set(n, k, int(rng.integers(2**32))).chords
        assert exact_gamma(spec_of(n, chords)) == naive_exact_gamma(n, chords)


@pytest.mark.parametrize("n", range(21, 25))
def test_exact_gamma_matches_ap_closed_form(n):
    for chords, gamma in ap_family(n):
        assert exact_gamma(spec_of(n, chords)) == gamma, (n, chords)


@pytest.mark.parametrize("n", range(21, 25))
def test_exact_gamma_matches_planted_closed_form(n):
    for chords, gamma in planted_family(n, range(6)):
        assert exact_gamma(spec_of(n, chords)) == gamma, (n, chords)


def test_closed_form_family_sizes():
    assert sum(len(list(ap_family(n))) for n in range(21, 25)) == 406
    assert sum(len(list(planted_family(n, range(6)))) for n in range(21, 25)) == 60


def test_exact_gamma_matches_recorded_n22_table():
    doc = json.loads(GAMMA_N22_TABLE.read_text(encoding="utf-8"))
    assert len(doc["gamma"]) == 210
    for key, gamma in doc["gamma"].items():
        chords = tuple(int(s) for s in key.split(","))
        assert exact_gamma(spec_of(doc["n"], chords)) == gamma, chords


def test_lower_bounds():
    assert gamma_lower_bound(9, 2) == pytest.approx(3.5)
    n = 50
    assert 0 < gamma_lower_bound(n, n - 1) < 1


@given(small)
@settings(max_examples=60, deadline=None)
def test_exact_gamma_respects_lower_bound(inst):
    # with self-coverage the sharp counting bound is n/(k+1); the n/k - 1
    # form only applies once k(k+1) >= n
    n, chords, _, _ = inst
    if n > 18:
        return
    spec = spec_of(n, chords)
    g = exact_gamma(spec)
    k = len(chords)
    assert g >= n / (k + 1) - 1e-12
    if k * (k + 1) >= n:
        assert g >= gamma_lower_bound(n, k)
