"""Prime windows [L+1, 2L].

The window is the primes above L of one sieve of Eratosthenes up to 2L.
Divisors of n are dropped from the window on the way out.
"""

from __future__ import annotations

import math

import numpy as np


def _sieve_upto(limit: int) -> np.ndarray:
    """Indices of primes <= limit (numpy int64 array)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def primes_in_window(L: int, n: int) -> tuple[int, ...]:
    """The primes ell in [L+1, 2L] with gcd(ell, n) = 1, ascending."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    primes = _sieve_upto(2 * L)
    primes = primes[primes > L]
    return tuple(primes[np.gcd(primes, n) == 1].tolist())

