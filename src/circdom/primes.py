"""Prime windows [L+1, 2L].

The window is the primes above L of one sieve of Eratosthenes up to 2L.
Divisors of n are dropped from the window on the way out.
"""

from __future__ import annotations

import math

import numpy as np


def primes_in_window(L: int, n: int) -> tuple[int, ...]:
    """The primes ell in [L+1, 2L] with gcd(ell, n) = 1, ascending."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    flags = np.ones(2 * L + 1, dtype=bool)
    for p in range(2, math.isqrt(2 * L) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.flatnonzero(flags[L + 1:]) + (L + 1)
    return tuple(primes[np.gcd(primes, n) == 1].tolist())

