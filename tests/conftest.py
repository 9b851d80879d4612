"""Shared independent oracles for the test suite.

Everything here is deliberately naive (exhaustive search, quadratic
loops, per-term summation) and stays independent of the library code
paths it checks.
"""

import cmath
import itertools
import math

import numpy as np


def naive_mod_inv(a, n):
    """Exhaustive search for the inverse of a mod n; None if absent."""
    for x in range(1, n):
        if (a * x) % n == 1:
            return x
    return None


def naive_coverage(n, chords, d_indices, r):
    """Set of vertices within r (+S)-steps of d_indices, by BFS layers."""
    covered = set(int(v) for v in d_indices)
    frontier = set(covered)
    for _ in range(r):
        nxt = set()
        for v in frontier | covered:
            for s in chords:
                nxt.add((v + s) % n)
        covered |= nxt
        frontier = nxt
    return covered


def naive_is_dominating(n, chords, d_indices, r=1):
    """Per-vertex scan: does any d in D reach v in at most r steps?"""
    reach = naive_coverage(n, chords, d_indices, r)
    return all(v in reach for v in range(n))


def naive_sumset(n, s_values, w_values):
    """{(s + w) mod n} by the quadratic double loop."""
    return {(s + w) % n for s in s_values for w in w_values}


def naive_shift_cover(covered, sources, chords):
    """Index scatter: mark (v + s) mod n for each source index v and chord s."""
    n = covered.size
    for s in chords:
        covered[(sources + int(s)) % n] = True
        if covered.all():
            break
    return covered


def naive_exp_sum(n, w_values, a):
    """Term-by-term character sum with cmath, no vectorization."""
    return sum(cmath.exp(2j * math.pi * ((a * w) % n) / n) for w in w_values)


def naive_representation_counts(n, s_values, w_values):
    """N(u) = #{(s, t, w) : s + t + w = u mod n} by the triple loop."""
    counts = [0] * n
    for s in s_values:
        for t in s_values:
            for w in w_values:
                counts[(s + t + w) % n] += 1
    return counts


def count_representations(n, S, W, u):
    """N(u) = #{(s, t, w) in S x S x W : s + t + w = u mod n}.

    Direct scan over S x S with a membership test in W; O(k^2).
    """
    s_arr = S.as_array()
    pair_sums = (s_arr[:, None] + s_arr[None, :]) % n
    needed = (u - pair_sums) % n
    return int(W.elements.members[needed].sum())


def naive_w_set(n, L, primes):
    """Direct enumeration of {k * inv(ell) mod n} with exhaustive inverses."""
    out = set()
    for ell in primes:
        inv = naive_mod_inv(ell % n, n)
        assert inv is not None
        for k in range(1, L + 1):
            out.add((k * inv) % n)
    return out


def naive_exact_gamma(n, chords):
    """Smallest dominating set by trying every subset in order of size."""
    full = (1 << n) - 1
    masks = []
    for u in range(n):
        m = 1 << u
        for s in chords:
            m |= 1 << ((u + s) % n)
        masks.append(m)
    start = max(1, math.ceil(n / (len(chords) + 1)))
    for size in range(start, n + 1):
        for comb in itertools.combinations(range(n), size):
            acc = 0
            for u in comb:
                acc |= masks[u]
            if acc == full:
                return size
    raise AssertionError("unreachable: Z_n itself dominates")


def ap_family(n, k_max=5):
    """(chords, gamma) for S = d*{1..k}, every d in [1, n) and k <= k_max
    with k < n/g, g = gcd(d, n): gamma = g*ceil((n/g)/(k+1)).

    Each of the g cosets of the subgroup <d> is a component in which a
    vertex covers at most k+1, and x + d(k+1)j (j >= 0) covers the coset
    of x.
    """
    for d in range(1, n):
        g = math.gcd(d, n)
        for k in range(1, min(k_max, n // g - 1) + 1):
            chords = tuple(sorted(d * i % n for i in range(1, k + 1)))
            yield chords, g * -(-(n // g) // (k + 1))


def planted_family(n, seeds):
    """(chords, gamma) for S = {i + m*r_i : 1 <= i < m}, every divisor
    2 <= m < n of n and r_i drawn from [0, n/m) by each seed: gamma = n/m.

    S u {0} holds each residue mod m once, so mZ_n is a perfect code.
    """
    for m in range(2, n):
        if n % m:
            continue
        for seed in seeds:
            r = np.random.default_rng(seed).integers(0, n // m, size=m - 1)
            chords = tuple(sorted(i + m * int(ri) for i, ri in enumerate(r, 1)))
            yield chords, n // m


def naive_greedy_picks(n, chords):
    """Greedy picks in order, recounting every vertex's gain each round."""
    chords = np.asarray(chords, dtype=np.int64)
    uncovered = np.ones(n, dtype=bool)
    idx = np.arange(n, dtype=np.int64)
    picks = []
    while uncovered.any():
        gain = uncovered.astype(np.int64)
        for s in chords:
            gain = gain + uncovered[(idx + int(s)) % n]
        u = int(np.argmax(gain))  # argmax returns the first maximum
        picks.append(u)
        uncovered[u] = False
        uncovered[(u + chords) % n] = False
    return picks


def argmax_greedy_picks(n, chords):
    """Greedy picks in order, with incremental gains and a full argmax
    each round: quick enough for n in the tens of thousands."""
    offsets = np.concatenate(([0], np.asarray(chords, dtype=np.int64)))
    gain = np.full(n, offsets.size, dtype=np.int64)
    uncovered = np.ones(n, dtype=bool)
    picks = []
    while True:
        u = int(np.argmax(gain))  # argmax returns the first maximum
        if gain[u] == 0:
            return picks
        picks.append(u)
        hit = (u + offsets) % n
        fresh = hit[uncovered[hit]]
        uncovered[fresh] = False
        np.subtract.at(gain, ((fresh[:, None] - offsets) % n).ravel(), 1)


def naive_random_cover(n, chords, seed):
    """One PCG64 draw per iteration until covered: (sorted picks, draws)."""
    rng = np.random.default_rng(seed)
    covered = np.zeros(n, dtype=bool)
    chosen = set()
    draws = 0
    while not covered.all():
        v = int(rng.integers(0, n))
        draws += 1
        chosen.add(v)
        covered[v] = True
        for s in chords:
            covered[(v + s) % n] = True
    return sorted(chosen), draws


def random_subset(rng, n, k):
    """k distinct residues from [1, n-1]."""
    vals = rng.choice(n - 1, size=k, replace=False) + 1
    return tuple(sorted(int(v) for v in vals))


def make_rng(seed):
    return np.random.default_rng(seed)
