"""Correctness oracles of the benchmark, independent of circdom's checks.

They run outside the timed region on the output of each job's first run.
Each ``*_problems`` function returns a list of problems; an empty list
means the job's output is correct. Covers are plain ``np.roll`` unions, exponential sums
one ``np.fft.fft`` of the indicator, and gamma values come from a table
recorded by the branch-and-bound solver below.
"""

from __future__ import annotations

import math

import numpy as np

# |max_abs - FFT max| allowed, per element of W. Both routes carry
# roughly 1e-14 of rounding at |W| = 80; a wrong maximum is off by far more.
EXPSUM_TOL_PER_ELEMENT = 1e-9
# Representation counts from the FFT are integers up to rounding.
COUNT_ROUND_TOL = 0.25


def lower_bound(n: int, k: int) -> int:
    """ceil(n / (k+1)): a vertex covers itself and k others."""
    return -(-n // (k + 1))


def uncovered_count(members: np.ndarray, chords, r: int = 1) -> int:
    """Vertices not within r steps along +S of the set, by np.roll unions."""
    covered = np.asarray(members, dtype=bool)
    for _ in range(r):
        step = covered.copy()
        for s in chords:
            step |= np.roll(covered, int(s))  # v covered when v - s is
        covered = step
    return int(covered.size - covered.sum())


def _window_primes(L: int, n: int) -> list[int]:
    return [p for p in range(L + 1, 2 * L + 1)
            if all(p % d for d in range(2, math.isqrt(p) + 1))
            and math.gcd(p, n) == 1]


def ratio_set(n: int, L: int) -> np.ndarray:
    """Indicator of {j * inv(ell) mod n : j <= L, ell prime in (L, 2L]}."""
    members = np.zeros(n, dtype=bool)
    for ell in _window_primes(L, n):
        inv = pow(ell, -1, n)
        members[[j * inv % n for j in range(1, L + 1)]] = True
    return members


def expsum_problems(line: dict) -> list[str]:
    """Check an ``audit --check expsum`` line against one FFT of 1_W."""
    n, L = line["n"], line["L"]
    members = ratio_set(n, L)
    mags = np.abs(np.fft.fft(members.astype(float)))[1:]
    peak = float(mags.max())
    tol = EXPSUM_TOL_PER_ELEMENT * members.sum()
    a = int(np.flatnonzero(mags >= peak - tol)[0]) + 1
    problems = []
    if line["w_size"] != members.sum():
        problems.append(f"w_size {line['w_size']} != {members.sum()}")
    if abs(line["max_abs"] - peak) > tol:
        problems.append(f"max_abs {line['max_abs']} != FFT {peak} (tol {tol})")
    if line["argmax_a"] not in (a, n - a):  # |S(a)| = |S(n - a)|
        problems.append(f"argmax_a {line['argmax_a']} not in {{{a}, {n - a}}}")
    return problems


def representation_counts(n: int, chords, w_members: np.ndarray) -> np.ndarray:
    """N(u) = #{(s, t, w) : s + t + w = u} as the FFT convolution 1_S*1_S*1_W."""
    ind_s = np.zeros(n)
    ind_s[list(chords)] = 1.0
    f_s = np.fft.fft(ind_s)
    raw = np.fft.ifft(f_s * f_s * np.fft.fft(w_members.astype(float))).real
    counts = np.rint(raw)
    err = float(np.abs(raw - counts).max())
    if err >= COUNT_ROUND_TOL:
        raise ArithmeticError(f"FFT counts off an integer by {err}")
    return counts.astype(np.int64)


def nu_problems(line: dict, w_members: np.ndarray, chords) -> list[str]:
    """Check an ``audit --check nu`` line: |W|, 2-domination and min N(u)."""
    n = line["n"]
    problems = []
    if line["w_size"] != w_members.sum():
        problems.append(f"w_size {line['w_size']} != {w_members.sum()}")
    missed = uncovered_count(w_members, chords, r=2)
    if missed or not line["two_dominates"]:
        problems.append(f"W misses {missed} vertices at r = 2, line says "
                        f"two_dominates={line['two_dominates']}")
    min_nu = int(representation_counts(n, chords, w_members).min())
    if line["min_nu"] != min_nu or min_nu <= 0:
        problems.append(f"min_nu {line['min_nu']} != FFT count {min_nu}")
    return problems


def domination_problems(doc: dict, members: np.ndarray, chords) -> list[str]:
    """Check a ``construct`` report against the set the library rebuilds."""
    problems = []
    if not doc["verified"] or doc["uncovered_count"]:
        problems.append(f"report says verified={doc['verified']}, "
                        f"uncovered_count={doc['uncovered_count']}")
    missed = uncovered_count(members, chords)
    if missed:
        problems.append(f"rebuilt set misses {missed} vertices")
    if doc["size"] != members.sum():
        problems.append(f"size {doc['size']} != rebuilt size {members.sum()}")
    return problems


def gamma_problems(doc: dict, greedy_size: int, recorded: int | None) -> list[str]:
    """Check a ``gamma`` report: ceil(n/(k+1)) <= gamma <= greedy, = table."""
    g, lb = doc["gamma"], lower_bound(doc["n"], doc["k"])
    problems = []
    if not lb <= g <= greedy_size:
        problems.append(f"gamma {g} outside [{lb}, greedy {greedy_size}]")
    if g != recorded:
        problems.append(f"gamma {g} != recorded {recorded}")
    return problems


def exact_gamma_bb(n: int, chords) -> int:
    """Domination number by branch and bound on the lowest uncovered vertex.

    Only the closed in-neighbours v - s (s in S + {0}) can cover v, so each
    branch tries those; |D| + ceil(uncovered / (k+1)) prunes.
    """
    offsets = (0, *chords)
    masks = [sum(1 << ((u + s) % n) for s in offsets) for u in range(n)]
    full, per = (1 << n) - 1, len(offsets)
    best = n

    def search(covered: int, size: int) -> None:
        nonlocal best
        if covered == full:
            best = min(best, size)
            return
        left = n - bin(covered).count("1")
        if size + -(-left // per) >= best:
            return
        v = (~covered & (covered + 1)).bit_length() - 1  # lowest zero bit
        for s in offsets:
            search(covered | masks[(v - s) % n], size + 1)

    search(0, 0)
    return best
