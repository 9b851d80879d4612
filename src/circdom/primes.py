"""Prime windows [L+1, 2L].

A window is read from one sieve of Eratosthenes up to 2L, and a table of
window sizes for every L up to L_max from one sieve up to 2 L_max.
Divisors of n are dropped from the window on the way out.
"""

from __future__ import annotations

import math

import numpy as np


def _prime_flags(limit: int) -> np.ndarray:
    """The boolean mask of the primes in [0, limit]."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def primes_in_window(L: int, n: int) -> tuple[int, ...]:
    """The primes ell in [L+1, 2L] with gcd(ell, n) = 1, ascending."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    primes = np.flatnonzero(_prime_flags(2 * L)[L + 1:]) + (L + 1)
    return tuple(primes[np.gcd(primes, n) == 1].tolist())


def window_counts(n: int, L_max: int) -> np.ndarray:
    """The int64 array whose entry L - 1 is len(primes_in_window(L, n)),
    for L = 1, ..., L_max: prefix sums over one sieve up to 2 L_max, with
    the primes dividing n dropped."""
    if L_max < 1:
        raise ValueError("L_max must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    flags = _prime_flags(2 * L_max)
    primes = np.flatnonzero(flags)
    flags[primes[n % primes == 0]] = False
    below = np.cumsum(flags)  # below[x]: the primes <= x coprime to n
    Ls = np.arange(1, L_max + 1)
    return below[2 * Ls] - below[Ls]
