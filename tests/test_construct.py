import math
import re
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circdom import baselines, construct, graph
from circdom.baselines import random_chord_set, random_dominating
from circdom.construct import (
    all_representation_counts,
    almost_budget,
    almost_dominating_W,
    build_W,
    construct_dominating,
    construct_universal_2dom,
    exceptional_set,
    model_L,
    solve_lambda,
    suggest_universal2_constants,
)
from circdom.errors import (
    DegenerateInstance,
    EmptyPrimeWindow,
    HypothesisNotMet,
    InexactCounts,
    TooLarge,
)
from circdom.graph import ChordSet, CirculantSpec, VertexSet, coverage
from circdom.primes import primes_in_window, window_counts
from circdom.verify import exact_gamma, is_dominating

from conftest import (
    count_representations,
    naive_representation_counts,
    naive_shift_cover,
    naive_sumset,
    naive_w_set,
)


def lambda_oracle(n, k, dps=50):
    """High-precision bisection on lam^4/(ln lam)^3 = n^2 (ln n)^4/(k lnln n^2)."""
    with mpmath.workdps(dps):
        n_, k_ = mpmath.mpf(n), mpmath.mpf(k)
        target = n_**2 * mpmath.log(n_) ** 4 / (k_ * mpmath.log(mpmath.log(n_)) ** 2)
        f = lambda lam: lam**4 / mpmath.log(lam) ** 3 - target
        lo, hi = mpmath.mpf(n) ** 0.25, mpmath.mpf(n)
        while f(hi) < 0:
            hi *= 2
        root = mpmath.findroot(f, (lo + hi) / 2)
        return float(root)


def test_solve_lambda_residual_and_range():
    for n, k in [(16, 1), (100, 5), (10**4, 64), (10**6, 999)]:
        lam = solve_lambda(n, k)
        # the balance n^2 (ln lam)^2 (ln n)^4 / (k lam^2 (lnln n)^2) =
        # lam^2 / ln lam holds to a relative 1e-9
        lhs = n * n * math.log(lam) ** 2 * math.log(n) ** 4 / (
            k * lam * lam * math.log(math.log(n)) ** 2)
        rhs = lam * lam / math.log(lam)
        assert abs(lhs - rhs) / rhs <= 1e-9
        assert lam > n**0.25


def test_solve_lambda_matches_oracle():
    for n, k in [(10**4, 64), (10**5, 300), (16, 1)]:
        lam = solve_lambda(n, k)
        assert lam == pytest.approx(lambda_oracle(n, k), rel=1e-9)


# float.hex(lambda) and L = ceil(lambda), bit for bit, so that any change to
# the bisection shows: the k = 1 and k = n - 1 extremes, n = 16, where the
# bracket doubles past n, and a prime n
LAMBDA_PINS = [
    (16, 1, "0x1.ad2daf487b580p+4", 27),
    (16, 15, "0x1.54892583b0900p+3", 11),
    (100, 5, "0x1.2a441eac3d7acp+6", 75),
    (2**24, 1, "0x1.07eed984b3a0ep+18", 270_268),
    (2**24, 2**24 - 1, "0x1.7a0f926d6bc3ap+11", 3025),
    (999_983, 1, "0x1.8dde397e5bf13p+15", 50_928),
    (999_983, 100, "0x1.cb570c4059404p+13", 14_699),
    (999_983, 1000, "0x1.eb1c8dda4645cp+12", 7858),
    (10**5, 100, "0x1.bd39412d84f48p+11", 3562),
    (10**5, 1000, "0x1.d7375de25878ep+10", 1885),
    (10**6, 100, "0x1.cb58425c508c4p+13", 14_700),
    (10**6, 1000, "0x1.eb1ddb62d29b2p+12", 7858),
]


@pytest.mark.parametrize("n,k,lam_hex,L", LAMBDA_PINS)
def test_solve_lambda_pinned(n, k, lam_hex, L):
    lam = solve_lambda(n, k)
    assert lam.hex() == lam_hex
    assert math.ceil(lam) == L


def test_solve_lambda_monotone_in_k():
    assert solve_lambda(10**4, 256) < solve_lambda(10**4, 64)


def test_solve_lambda_degenerate():
    with pytest.raises(DegenerateInstance):
        solve_lambda(8, 3)


def test_build_w_101_3():
    W = build_W(101, 3)
    assert W.window == (5,)
    assert sorted(W.elements.indices().tolist()) == [41, 61, 81]
    assert W.size == 3 * 1  # distinctness: 3 < 0.5 * sqrt(101)
    assert W.card_hypothesis_ok


def test_build_w_empty_window():
    # the window [2, 2] holds no prime coprime to 6: no element, no mark
    W = build_W(6, 1)
    assert W.window == () and W.size == 0 and W.marks == 0


def test_paper_window_never_empty():
    """The theorem's L = ceil(lambda(n, k)) always has a prime.

    solve_lambda returns lambda >= n^(1/4), so n <= L^4. The window
    (L, 2L] is empty only when every prime in it divides n. For L >= 15
    it holds at least 4 primes (Ramanujan prime R_4 = 29), whose product
    exceeds L^4 >= n, so they cannot all divide n. For L <= 14 this checks
    every multiple n <= L^4 of the window's primes: lambda falls as k
    grows, and already at k = n - 1 it lies above L.
    """
    checked = 0
    for L in range(1, 15):
        P = math.prod(primes_in_window(L, 101))  # 101 > 2L: all
        for n in range(P * -(-construct.MIN_N // P), L**4 + 1, P):
            assert not primes_in_window(L, n)
            assert math.ceil(solve_lambda(n, n - 1)) > L, (n, L)
            checked += 1
    assert checked == 180


def naive_model_L(n, k):
    """model_L by a loop over primes_in_window, in Python floats."""
    best = None
    for L in range(1, 4 * math.isqrt(n) + 1):
        count = len(primes_in_window(L, n))
        if count:
            w = min(n, L * count)
            f = w + n * math.exp(-k * w / n)
            if best is None or f < best[1]:
                best = (L, f)
    return best


def test_model_L_matches_naive_argmin():
    for n in range(16, 401):
        for k in sorted({1, 2, n // 3, n - 1}):
            L, f = model_L(n, k)
            want_L, want_f = naive_model_L(n, k)
            assert L == want_L and f == pytest.approx(want_f, rel=1e-12), (n, k)


def test_model_L_is_the_argmin_not_the_first_large_window():
    # at (10^4, 100) the first L with L |window(L)| >= (n / k) ln k is 49,
    # but window sizes are not monotone in L, and f is least at 46
    n, k = 10**4, 100
    assert model_L(n, k) == naive_model_L(n, k)
    assert model_L(n, k)[0] == 46
    assert next(L for L in range(1, 401) if L * len(primes_in_window(L, n))
                >= n / k * math.log(k)) == 49


def test_model_window_never_empty():
    # model_L's range [1, 4 isqrt(n)] holds a window with a prime, so its
    # argmin is a finite f at an L whose window has one
    for n in range(construct.MIN_N, 2 * 10**4 + 1):
        assert window_counts(n, 4 * math.isqrt(n)).any(), n
    for n in (16, 17, 720_720, 2**24):
        for k in (1, n - 1):
            L, f = model_L(n, k)
            assert primes_in_window(L, n) and math.isfinite(f), (n, k)


# the five points of the model-L table: |D| is what f(L) predicts
@pytest.mark.parametrize("n,k", [(10**5, 100), (10**5, 1000), (10**6, 100),
                                 (10**6, 1000), (999_983, 1000)])
def test_paper_size_matches_predicted(n, k):
    rep = construct_dominating(CirculantSpec(n, random_chord_set(n, k, 1)))
    p = rep.parameters
    assert rep.verified and (p["L"], p["predicted_size"]) == model_L(n, k)
    w, u = p["w_size"], p["u_size"]  # U may meet W
    assert max(w, u) <= rep.size <= w + u
    assert 0.95 <= rep.size / p["predicted_size"] <= 1.05, rep.size


def test_paper_L_does_not_depend_on_S():
    n, k = 10**4, 100
    L, predicted = model_L(n, k)
    chord_sets = [random_chord_set(n, k, seed) for seed in range(4)]
    chord_sets += [ChordSet(n, tuple(range(1, k + 1))),
                   random_chord_set(n, k, 5, symmetric=True)]
    for S in chord_sets:
        rep = construct_dominating(CirculantSpec(n, S))
        assert rep.verified
        assert (rep.parameters["L"], rep.parameters["predicted_size"]) == (
            L, predicted)
        assert rep.parameters["lambda"] == solve_lambda(n, k)


@pytest.mark.parametrize(
    "n,L",
    [(101, 3), (101, 4), (1009, 10), (4099, 25), (10007, 40), (997, 2)],
)
def test_build_w_matches_naive(n, L):
    W = build_W(n, L)
    expected = naive_w_set(n, L, W.window)
    assert set(W.elements.indices().tolist()) == expected


# L = n // 2 - 1 takes products k * inv(ell) past 2^32 (up to ~5e9);
# at 2^24 and 16 777 213 = 2^24 - 3 with L = 97 phase 1 marks alone
@pytest.mark.parametrize(
    "n,L",
    [(n, L) for n in (10**5, 2**17, 99991) for L in (2, 97, 3000)]
    + [(99991, 99991 // 2 - 1), (2**24, 97), (16_777_213, 97)],
)
def test_build_w_matches_hardware_modulo(n, L):
    W = build_W(n, L)
    assert np.array_equal(W.elements.members, hardware_modulo_w(n, L, W))


def hardware_modulo_w(n, L, W):
    """Mask of (ks * inv(ell)) % n over the primes of W's window."""
    ks = np.arange(1, L + 1, dtype=np.int64)
    expected = np.zeros(n, dtype=bool)
    for ell in W.window:
        expected[(ks * pow(ell, -1, n)) % n] = True
    return expected


# first_round patched to the window size marks every prime; patched to 1,
# phase 2 tests the vertices left after one prime. (10^5, 3562) is the
# paper instance at k = 100; (2^20, 8089) leaves the most unmarked
# vertices per L found after its own first round, 3.23L. At L = n - 1 the
# phase-2 threshold is 2^64 - 1, and 1024 divides 2^64 (e0 = 0).
@pytest.mark.parametrize(
    "n,L",
    [(n, L) for n in (10**5, 2**17, 99991) for L in (2, 97, 3000)]
    + [(99991, 99991 // 2 - 1), (10**5, 3562), (2**20, 8089)]
    + [(n, L) for n in (1009, 1024) for L in (n - 2, n - 1)],
)
def test_build_w_both_phases_match_hardware_modulo(monkeypatch, n, L):
    window = len(primes_in_window(L, n))
    expected = None
    for first in (window, 1, construct.first_round(n, L)):
        monkeypatch.setattr(construct, "first_round", lambda n, L: first)
        W = build_W(n, L)
        if expected is None:
            expected = hardware_modulo_w(n, L, W)
        assert np.array_equal(W.elements.members, expected)
        if first >= window:
            assert (W.marks, W.checks) == (L * window, 0)
        else:
            # at L = n - 1 one prime marks every vertex but 0, which leaves
            # phase 2 none to test; first_round is 0 there, so it tests all
            assert W.marks == L * first and (W.checks > 0 or L == n - 1)


def test_build_w_phase_2_blocks_past_cells(monkeypatch):
    # one prime marked leaves u = n - L - 1 > max(CELLS, L) candidates, so
    # phase 2 grows the work array, and each of its blocks holds one prime
    # and its u products, in the leading u cells of the array
    n, L = 100003, 20000
    assert n - L - 1 > max(graph.CELLS, L)
    monkeypatch.setattr(construct, "first_round", lambda n, L: 1)
    W = build_W(n, L)
    assert W.marks == L and W.checks >= n - L - 1
    assert np.array_equal(W.elements.members, hardware_modulo_w(n, L, W))


# n = 2^24 and 2 divide 2^64 (e0 = 0); the others leave e0 = 2^64 mod n
# > 0. The hit test is exact while 2L * n <= 2^64, which at the prime
# 2^32 - 5 drops L = n - 1, and L = 1 is the only L < n = 2
@pytest.mark.parametrize("n", [2**24, 16_777_213, 10**6, 99_991, 17, 2,
                               2**32 - 5])
def test_fixed_point_hits_match_integer_residues(n):
    rng = np.random.default_rng(n)
    for L in sorted({1, 7, n // 3, n // 2 - 1, n - 1}):
        if not (1 <= L < n and 2 * L * n <= 2**64):
            continue
        ells = [ell for ell in {L + 1, 2 * L, *rng.integers(L + 1, 2 * L + 1,
                                                             40).tolist()}
                if math.gcd(ell, n) == 1]
        # x = r / ell for residues r at both ends of [1, L] and of [L + 1, n)
        # puts every boundary of the hit test in the table
        xs = {1, n - 1, *rng.integers(1, n, 200).tolist()}
        for ell in ells[:8]:
            xs |= {r * pow(ell, -1, n) % n for r in (1, 2, L - 1, L, L + 1,
                                                    L + 2, n - 2, n - 1)}
        xs = sorted(x for x in xs if 1 <= x < n)
        X = construct._scale(np.array(xs, dtype=np.uint64), n)
        assert X.tolist() == [-(-(x << 64) // n) for x in xs]
        T = np.uint64(((L + 1) * 2**64 - 1) // n)
        got = np.array(ells, dtype=np.uint64)[:, None] * X <= T
        want = [[1 <= x * ell % n <= L for x in xs] for ell in ells]
        assert got.tolist() == want, (n, L)


# 2^32 - 2^20 admits L up to 1 048 832: n * (L + 2^32) < 2^64 there
@pytest.mark.parametrize("n", [2**24, 16_777_213, 10**6, 99_991, 17,
                               2**32 - 2**20])
def test_ratios_match_integer_residues(n):
    rng = np.random.default_rng(n)
    Ls = ([3, 1000, (2**64 - 1) // n - 2**32] if n > 2**24
          else sorted({1, 7, n // 3, n - 1}))
    for L in Ls:
        assert n * (L + 2**32) < 2**64
        # the inverses of the units nearest both ends of (L, 2L]
        ends = [next((ell for ell in window if math.gcd(ell, n) == 1), None)
                for window in (range(L + 1, 2 * L + 1), range(2 * L, L, -1))]
        units = [a for a in rng.integers(1, n, 40).tolist()
                 if math.gcd(a, n) == 1]
        invs = [1, n - 1, *(pow(ell, -1, n) for ell in ends if ell), *units]
        ks = sorted(k for k in {1, 2, L - 1, L,
                                *rng.integers(1, L + 1, 40).tolist()}
                    if 1 <= k <= L)
        work = np.empty(len(invs) * len(ks), dtype=np.uint64)
        A = construct._scale(np.array(invs, dtype=np.uint64), n)
        got = construct._ratios(A, np.array(ks, dtype=np.uint64), n, work)
        assert got.tolist() == [[k * a % n for k in ks] for a in invs], (n, L)


def test_build_w_refuses_past_the_fixed_point_bound():
    # n * (L + 2^32) < 2^64 keeps the phase-1 residues exact, and with it
    # n < 2^32 the scaling and 2L * n <= 2^64 the phase-2 test. It is
    # checked before the n-byte mask is allocated
    with pytest.raises(TooLarge):
        build_W(2**32, 2**30 + 1)
    with pytest.raises(TooLarge):
        build_W(2**32 + 15, 3)
    # past n * (L + 2^32) < 2^64 even where 4L * n <= 2^64 and n <= 2^32;
    # (2^32 - 1, 5) has the prime 7 in its window
    for n, L in ((2**32 - 1, 3), (2**32 - 1, 5), (2**32 - 2**20, 1_048_833)):
        assert 4 * L * n <= 2**64 and n <= 2**32
        with pytest.raises(TooLarge):
            build_W(n, L)


# 1 048 583 is a prime just past 2^20 with e0 = 2^64 mod n > 0.99 n
def test_build_w_forced_phase_2_at_large_prime(monkeypatch):
    n = 1_048_583
    L = math.ceil(solve_lambda(n, 100))
    monkeypatch.setattr(construct, "first_round", lambda n, L: 1)
    W = build_W(n, L)
    assert W.marks == L and W.checks > 0
    assert np.array_equal(W.elements.members, hardware_modulo_w(n, L, W))


# Small dense W where some x = L * inv(ell) of a tested prime has no other
# representation, e.g. (57, 24): the bound k <= L is tight
@given(
    st.integers(min_value=20, max_value=400),
    st.floats(min_value=0.05, max_value=0.5),
)
@settings(max_examples=100, deadline=None)
@example(57, 24 / 57)
def test_build_w_tested_primes_match_naive(n, frac):
    L = max(1, int(frac * n))
    W = build_W(n, L)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "first_round", lambda n, L: 1)  # test after one
        tested = build_W(n, L)
    assert set(tested.elements.indices().tolist()) == naive_w_set(
        n, L, W.window)
    assert np.array_equal(tested.elements.members, W.elements.members)


# build_W keeps its state in the call: threads running it at once, more
# than the cores, with one prime per block and the interpreter handed over
# as often as it can be, each get W. (101, 3) has a one-prime window;
# (17, 20) takes the L >= n branch and marks nothing
@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize(
    "n,L", [(10**5, 97), (2**17, 3000), (99991, 2), (101, 3), (17, 20)]
)
def test_build_w_threaded_matches_hardware_modulo(monkeypatch, cpus, n, L):
    monkeypatch.setattr(graph, "CELLS", 1)
    start_together = threading.Barrier(cpus)
    results = [None] * cpus

    def run(i):
        start_together.wait(timeout=10)
        results[i] = build_W(n, L)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(cpus)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    expected = hardware_modulo_w(n, L, build_W(n, L))
    for W in results:
        assert np.array_equal(W.elements.members, expected)


def test_build_w_tests_unmarked_only_past_card_hypothesis(monkeypatch):
    # phase 2 runs at the paper instances with k = 100, and never when
    # 4L^2 < n: then the first round takes the whole window
    calls = []
    kernel = construct._sieve

    def spy(alive, primes, hit):
        calls.append(primes.tolist())
        return kernel(alive, primes, hit)

    monkeypatch.setattr(construct, "_sieve", spy)
    for n in (12_500, 25_000, 50_000, 100_000):
        L = math.ceil(solve_lambda(n, 100))
        W = build_W(n, L)
        # the call tested this window's primes past the first round, which
        # takes every ROUND_STRIDE-th prime, from each of the first
        # ROUND_STRIDE primes in turn
        stride, primes = construct.ROUND_STRIDE, W.window
        order = sorted(range(len(primes)), key=lambda i: (i % stride, i))
        assert calls[-1] == [primes[i] for i in
                             order[construct.first_round(n, L):]]
        assert W.checks > 0
        assert np.array_equal(W.elements.members, hardware_modulo_w(n, L, W))
    calls.clear()
    nu = suggest_universal2_constants(10**4, 2000)
    W = construct_universal_2dom(10**4, 2000, c=nu.c_max, C=nu.C_max,
                                 c0=nu.c0_max / 2)
    assert W.card_hypothesis_ok and W.checks == 0
    for n, L in ((16381, 16), (16384, 16)):
        assert build_W(n, L).checks == 0
    assert not calls


def test_first_round_takes_window_under_card_hypothesis():
    # 4L^2 < n gives m = ceil(n / L) > 4L and first_round > 2.77L - 1 >= L
    rng = np.random.default_rng(25)
    for n in sorted({16, 17, 64, 65, 2**14, *rng.integers(16, 20_000, 30)}):
        n = int(n)
        for L in range(1, math.isqrt(n - 1) // 2 + 1):
            assert 4 * L * L < n
            window = len(primes_in_window(L, n))
            assert construct.first_round(n, L) >= window, (n, L)
            if window:
                assert build_W(n, L).checks == 0, (n, L)


@pytest.mark.parametrize("cells", [1, 7, graph.CELLS])
@pytest.mark.parametrize("n", [12_500, 25_000])
def test_build_w_checks_count_tested_cells(n, cells, monkeypatch):
    # phase 2 tests the nonzero vertices the first round leaves unmarked
    # against blocks of the remaining primes, each of at most CELLS cells
    # or one prime, and drops a vertex at the block holding its first hit
    monkeypatch.setattr(graph, "CELLS", cells)
    L = math.ceil(solve_lambda(n, 100))
    W = build_W(n, L)
    stride, primes = construct.ROUND_STRIDE, W.window
    order = [primes[i] for i in
             sorted(range(len(primes)), key=lambda i: (i % stride, i))]
    first = construct.first_round(n, L)
    marked = {k * pow(ell, -1, n) % n
              for ell in order[:first] for k in range(1, L + 1)}
    alive = [x for x in range(1, n) if x not in marked]
    rest, checks, i = order[first:], 0, 0
    while i < len(rest) and alive:
        block = rest[i:i + max(1, cells // len(alive))]
        checks += len(block) * len(alive)
        alive = [x for x in alive
                 if not any(1 <= x * ell % n <= L for ell in block)]
        i += len(block)
    assert W.checks == checks > 0
    assert W.marks == L * first
    assert set(alive) == set(range(1, n)) - set(W.elements.indices().tolist())


@given(
    st.integers(min_value=50, max_value=5000),
    st.integers(min_value=1, max_value=30),
)
@settings(max_examples=60, deadline=None)
def test_card_lemma_property(n, L):
    # |W| = L * |window| exactly whenever L < 0.5 sqrt(n)
    if 4 * L * L >= n:
        return
    W = build_W(n, L)
    assert W.size == L * len(W.window)


def test_pairwise_distinctness_witness():
    n, L = 10007, 12
    W = build_W(n, L)
    seen = {}
    for ell in W.window:
        inv = pow(ell, -1, n)
        for k in range(1, L + 1):
            v = (k * inv) % n
            assert v not in seen, (seen[v], (k, ell))
            seen[v] = (k, ell)


def test_exceptional_set_full_w():
    n = 17
    W = build_W(n, 2)
    W.elements.members[:] = True  # force W = Z_n
    U = exceptional_set(n, ChordSet(n, (1,)), W)
    assert U.size == 0


def test_exceptional_set_tiny():
    # n = 5, S = {1}, W = {2}: only 3 is representable
    n = 5
    W = build_W(5, 1)
    W.elements.members[:] = False
    W.elements.members[2] = True
    W.elements._size = None
    U = exceptional_set(n, ChordSet(5, (1,)), W)
    assert sorted(U.indices().tolist()) == [0, 1, 2, 4]


# L = 40 makes W dense enough that S + W saturates Z_101 before the last chord
@pytest.mark.parametrize("seed, L", [(0, 3), (1, 3), (2, 3), (0, 40)],
                         ids=["0", "1", "2", "dense"])
def test_exceptional_set_matches_naive(seed, L):
    n = 101
    S = random_chord_set(n, 10, seed)
    W = build_W(n, L)
    U = exceptional_set(n, S, W)
    reachable = naive_sumset(n, S.chords, W.elements.indices().tolist())
    assert set(U.indices().tolist()) == set(range(n)) - reachable


def _scale_instance(kind):
    """(n, S, W, D) at n = 10^5: the dense paper W, or a sparse one."""
    n = 10**5
    if kind == "dense":
        S = random_chord_set(n, 100, seed=1)
        W = build_W(n, math.ceil(solve_lambda(n, 100)))
        return n, S, W, W.elements
    # 1000 chords including 1 and n - 1, so both wrap slices carry marks
    rng = np.random.default_rng(5)
    inner = rng.choice(np.arange(2, n - 1), size=998, replace=False)
    S = ChordSet(n, tuple(sorted({1, n - 1, *map(int, inner)})))
    D = VertexSet.from_indices(n, [0, n - 1, *rng.integers(0, n, 100)])
    return n, S, build_W(n, 20), D


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_cover_at_scale_matches_index_scatter(kind):
    n, S, W, D = _scale_instance(kind)
    U = exceptional_set(n, S, W)
    hit = naive_shift_cover(np.zeros(n, dtype=bool), W.elements.indices(),
                            S.chords)
    assert np.array_equal(U.members, ~hit)
    if kind == "sparse":  # never saturates, so every chord is scanned
        assert U.size > 0
    spec = CirculantSpec(n, S)
    expected = D.members
    for r in (1, 2):
        expected = naive_shift_cover(expected.copy(), np.flatnonzero(expected),
                                     S.chords)
        assert np.array_equal(coverage(spec, D, r).members, expected)


def _theorem_L_cover(n, k):
    """(spec, W, U, D) of the theorem's L = ceil(lambda) at chord seed 1."""
    spec = CirculantSpec(n, random_chord_set(n, k, 1))
    W = build_W(n, math.ceil(solve_lambda(n, k)))
    U = exceptional_set(n, spec.chords, W)
    return spec, W, U, VertexSet(n, W.elements.members | U.members)


def spy_prefixes(monkeypatch):
    """Record each prefix length that _random_picks asks prefix_draws for:
    one per prefix cover, the last one the cover that leaves vertices."""
    prefixes, prefix_draws = [], baselines.prefix_draws

    def spy(n, k, left):
        prefixes.append(prefix_draws(n, k, left))
        return prefixes[-1]

    monkeypatch.setattr(baselines, "prefix_draws", spy)
    return prefixes


def test_cover_tests_sparse_sets_only(monkeypatch):
    # the theorem-L sets are dense: their covers (exceptional_set, the
    # verification) saturate at shift_cover's first count. The sparse
    # covers switch: the model-L set's verification (and at k = 1000 its
    # exceptional_set too), and the random baseline's prefix covers (one
    # more for each prefix that covers Z_n), then its verification
    tested, sieve = [], graph._sieve

    def spy(alive, chords, hit):
        tested.append(chords.size)
        return sieve(alive, chords, hit)

    monkeypatch.setattr(graph, "_sieve", spy)
    for n, k in ((10**6, 100), (10**6, 1000)):
        spec, _, _, D = _theorem_L_cover(n, k)
        assert is_dominating(spec, D)[0] and tested == []
    for n, k, covers in ((10**6, 100, 1), (10**6, 1000, 2)):
        rep = construct_dominating(CirculantSpec(n, random_chord_set(n, k, 1)))
        assert rep.verified and len(tested) == covers
        assert all(0 < tested.pop() < k for _ in range(covers))
    prefixes = spy_prefixes(monkeypatch)
    for n, k in ((10**6, 1000), (10**5, 100)):
        rep = random_dominating(CirculantSpec(n, random_chord_set(n, k, 1)), 2)
        # only the last prefix stops short of the draw that completes
        assert [T < rep.parameters["draws"] for T in prefixes] == [
            False] * (len(prefixes) - 1) + [True]
        covers = len(prefixes) + 1
        assert rep.verified and len(tested) == covers
        assert all(0 < tested.pop() < k for _ in range(covers))
        prefixes.clear()


def test_cover_ors_words_from_the_first_chord(monkeypatch):
    # every cover hands all its chords to the word stage: the k of S to
    # exceptional_set's open cover, and the k + 1 of S u {0} to a closed
    # cover. The theorem-L sets at n = 10^6 (98.4-99.6% of Z_n) saturate
    # there, so neither exceptional_set nor the verification calls _sieve;
    # the model-L set, the random baseline's prefix and its set leave
    # vertices that _sieve tests, and it gets just the chords the word
    # stage returns and the vertices its packed cover leaves clear
    calls, tested, or_words, sieve = [], [], graph._or_words, graph._sieve

    def spy_words(sources, chords):
        calls.append((chords.size, *or_words(sources, chords)))
        return calls[-1][1:]

    def spy_test(alive, chords, hit):
        assert chords is calls[-1][1]
        assert np.array_equal(alive, graph._unmarked(calls[-1][2]))
        tested.append(chords.size)
        return sieve(alive, chords, hit)

    monkeypatch.setattr(graph, "_or_words", spy_words)
    monkeypatch.setattr(graph, "_sieve", spy_test)
    n = 10**6
    for k in (100, 1000):
        spec, W, U, D = _theorem_L_cover(n, k)
        assert D.size > 0.98 * n and is_dominating(spec, D)[0]
        # both covers saturate: W + S is Z_n (U is empty), and D dominates
        assert U.size == 0 and tested == []
        assert [(size, rest.size, bool((cover == graph.FULL).all()))
                for size, rest, cover in calls] == [(k, 0, True),
                                                    (k + 1, 0, True)]
        calls.clear()
    for k in (100, 1000):
        spec = CirculantSpec(n, random_chord_set(n, k, 1))
        rep = construct_dominating(spec)
        assert rep.verified and rep.size < 0.06 * n and len(calls) == 2
        assert [size for size, *_ in calls] == [k, k + 1]
        # no cover is full after its packed chords, and the verification
        # tests the vertices left against the chords it did not OR
        assert not any((cover == graph.FULL).all() for *_, cover in calls)
        assert tested == [rest.size for _, rest, _ in calls if rest.size]
        assert tested[-1] == calls[-1][1].size > 0
        calls.clear()
        tested.clear()
    prefixes = spy_prefixes(monkeypatch)
    for k in (100, 1000):
        spec = CirculantSpec(n, random_chord_set(n, k, 1))
        rep = random_dominating(spec, 2)
        assert [T < rep.parameters["draws"] for T in prefixes] == [
            False] * (len(prefixes) - 1) + [True]
        covers = len(prefixes) + 1
        assert rep.verified and len(calls) == covers
        assert is_dominating(spec, rep.D)[0] and len(calls) == covers + 1
        assert [size for size, *_ in calls] == [k + 1] * (covers + 1)
        assert tested == [rest.size for _, rest, _ in calls] and all(tested)
        calls.clear()
        tested.clear()
        prefixes.clear()


def test_construct_dominating_always_dominates():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(16, 3000))
        k = int(rng.integers(1, min(n - 1, 200) + 1))
        S = random_chord_set(n, k, int(rng.integers(2**32)))
        rep = construct_dominating(CirculantSpec(n, S))
        assert rep.verified and rep.uncovered_count == 0
        assert rep.size >= n / (k + 1)


def test_construct_dominating_verified_against_naive_shrink():
    n = 1000
    S = random_chord_set(n, 30, seed=42)
    rep = construct_dominating(CirculantSpec(n, S))
    assert rep.verified
    # quadratic-loop re-check on the full instance
    covered = set(rep.D.indices().tolist())
    covered |= naive_sumset(n, S.chords, rep.D.indices().tolist())
    assert covered == set(range(n))


def test_construct_dominating_degenerate():
    with pytest.raises(DegenerateInstance):
        construct_dominating(CirculantSpec(9, ChordSet(9, (1, 8))))


def test_construct_dominating_size_vs_exact_gamma():
    n = 18
    S = ChordSet(n, (1, 17))
    rep = construct_dominating(CirculantSpec(n, S))
    assert rep.verified
    assert rep.size >= exact_gamma(CirculantSpec(n, S))


def test_universal2_deterministic_and_chordfree():
    n, k = 10**4, 2000
    sugg = suggest_universal2_constants(n, k)
    kwargs = dict(c=sugg.c_max, C=sugg.C_max, c0=sugg.c0_max / 2)
    W1 = construct_universal_2dom(n, k, **kwargs)
    W2 = construct_universal_2dom(n, k, **kwargs)
    assert np.array_equal(W1.elements.members, W2.elements.members)


def test_universal2_hypothesis_not_met():
    # at c = C = c0 = 1 the card check fails too: the k-floor message wins
    n = 10**4
    assert 4 * construct.universal2_L(n, 2000, 1.0) ** 2 >= n
    message = f"k=2000 below C*sqrt(n)(ln n)^3/lnln n with C=1.0 for n={n}"
    with pytest.raises(HypothesisNotMet, match=f"^{re.escape(message)}$"):
        construct_universal_2dom(n, 2000, c=1.0, C=1.0, c0=1.0)
    # only the card check fails
    message = f"L=70379 >= 0.5*sqrt(n) for n={n}; distinctness lemma fails"
    with pytest.raises(HypothesisNotMet, match=f"^{re.escape(message)}$"):
        construct_universal_2dom(n, 50, c=1.0, C=0.0)


def test_universal2_runtime_check_sieves_once(monkeypatch):
    # the runtime check reads W's window, so a call that fails only that
    # check and a call that passes each sieve the window once, in build_W
    n, k = 10**4, 2000
    sugg = suggest_universal2_constants(n, k)
    c0 = 2 * sugg.c0_max
    assert len(primes_in_window(math.isqrt((n - 1) // 4), n)) == 10
    calls = []

    def counted(L, n):
        calls.append(L)
        return primes_in_window(L, n)

    monkeypatch.setattr(construct, "primes_in_window", counted)
    message = f"window size 10 fails the c0={c0} runtime check"
    with pytest.raises(HypothesisNotMet, match=f"^{re.escape(message)}$"):
        construct_universal_2dom(n, k, c=sugg.c_max, C=sugg.C_max, c0=c0)
    assert len(calls) == 1
    W = construct_universal_2dom(n, k, c=sugg.c_max, C=sugg.C_max,
                                 c0=sugg.c0_max / 2)
    assert len(W.window) == 10 and calls == [W.L, W.L]


def test_universal2_refuses_empty_window_before_c0_check():
    # L = 1 and n even: the window {2} is empty. build_W returns the empty
    # W, and the theorem refuses it before its c0 check, which 0 primes
    # fail at every c0 > 0 with HypothesisNotMet, not EmptyPrimeWindow
    assert construct.universal2_L(10**4, 2000, 1e-6) == 1
    assert build_W(10**4, 1).window == ()
    assert not issubclass(EmptyPrimeWindow, HypothesisNotMet)
    message = "no primes in [2, 2] coprime to 10000"
    for c0 in (1.0, 1e-300):
        with pytest.raises(EmptyPrimeWindow, match=f"^{re.escape(message)}$"):
            construct_universal_2dom(10**4, 2000, c=1e-6, C=0.01, c0=c0)


@pytest.mark.parametrize("k", [0, -3, 10**4], ids=["0", "negative", "n"])
@pytest.mark.parametrize("build", [
    solve_lambda, construct_universal_2dom, suggest_universal2_constants,
    almost_dominating_W])
def test_chord_count_outside_1_to_n_minus_1(build, k):
    # one guard, before any constant is derived from k: at k = 0 the
    # constants divided by zero, at k = -3 W was built from negative ones
    with pytest.raises(ValueError, match=r"^require 1 <= k < n$"):
        build(10**4, k)


def test_universal2_suggested_constants_pass_checks():
    # unstepped, the quotients round past their boundary: at (1000, 999)
    # L comes out at L_max + 1, at (4988, 997) k falls below C_max's floor
    points = [(n, k) for n in range(1000, 199_404, 997)
              for k in {n // 20, n // 5, n // 2, n - 1}]
    assert (1000, 999) in points and (4988, 997) in points
    for n, k in points:
        sugg = suggest_universal2_constants(n, k)
        W = construct_universal_2dom(n, k, c=sugg.c_max, C=sugg.C_max,
                                     c0=sugg.c0_max / 2)
        assert W.L == math.isqrt((n - 1) // 4), (n, k)


def test_universal2_two_dominates_random_chordsets():
    n, k = 10**4, 2000
    sugg = suggest_universal2_constants(n, k)
    W = construct_universal_2dom(n, k, c=sugg.c_max, C=sugg.C_max,
                                 c0=sugg.c0_max / 2)
    for seed in range(5):
        S = random_chord_set(n, k, seed)
        ok, _ = is_dominating(CirculantSpec(n, S), W.elements, 2)
        assert ok


def test_count_representations_tiny():
    n = 5
    W = build_W(5, 1)
    W.elements.members[:] = False
    W.elements.members[2] = True
    W.elements._size = None
    S = ChordSet(5, (1,))
    counts = [count_representations(n, S, W, u) for u in range(n)]
    assert counts == [0, 0, 0, 0, 1]  # only (1, 1, 2) -> 4


@pytest.mark.parametrize("seed", [3, 11])
def test_representation_total_mass_and_consistency(seed):
    n = 211
    S = random_chord_set(n, 12, seed)
    W = build_W(n, 5)
    counts = all_representation_counts(n, S, W)
    assert counts.sum() == S.k**2 * W.size
    for u in (0, 1, 57, 210):
        assert counts[u] == count_representations(n, S, W, u)


# n prime, composite, and a power of two; 8 seeded chord sets each
@pytest.mark.parametrize("n, L", [(101, 4), (100, 4), (128, 5)])
@pytest.mark.parametrize("seed", range(8))
def test_representation_counts_match_triple_loop(n, L, seed):
    S = random_chord_set(n, 3 + seed, seed)
    W = build_W(n, L)
    counts = all_representation_counts(n, S, W)
    assert counts.dtype == np.int64
    expected = naive_representation_counts(n, S.chords,
                                           W.elements.indices().tolist())
    assert counts.tolist() == expected


def test_representation_counts_rounding_guard(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.3)
    with pytest.raises(InexactCounts):
        all_representation_counts(211, random_chord_set(211, 12, 3), build_W(211, 5))


def test_almost_dominating_budget_and_monotone():
    n, k = 10**4, 400
    W1 = almost_dominating_W(n, k, psi=1.0)
    assert W1.size <= almost_budget(n, k, 1.0)
    W2 = almost_dominating_W(n, k, psi=2.0)
    assert W2.size <= almost_budget(n, k, 2.0)
    assert W2.size >= W1.size
    # the search keeps the predicted size L * |window(L)| within budget
    for n, k, psi in [(10**4, 400, 1.0), (10**4, 400, 2.0), (997, 5, 0.01),
                      (1024, 30, 0.05), (5000, 60, 0.2), (10**5, 1000, 1.0),
                      (10**5, 3, 0.001), (65536, 2000, 0.5)]:
        W = almost_dominating_W(n, k, psi=psi)
        assert W.L * len(W.window) <= almost_budget(n, k, psi)


def test_almost_dominating_coverage_fraction():
    n, k = 10**4, 400
    W = almost_dominating_W(n, k, psi=1.0)
    for seed in range(5):
        S = random_chord_set(n, k, seed)
        U = exceptional_set(n, S, W)
        assert 1.0 - U.size / n >= 0.99
