import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from circdom.primes import primes_in_window, window_counts


def test_window_all_divide_n():
    assert primes_in_window(1, 6) == ()


def test_window_small():
    assert type(primes_in_window(3, 101)) is tuple
    assert primes_in_window(3, 101) == (5,)
    assert primes_in_window(10, 101) == (11, 13, 17, 19)


def test_window_drops_divisors_of_n():
    # 11 divides n, so it must vanish from [11, 20]
    assert primes_in_window(10, 11 * 7) == (13, 17, 19)


@given(st.integers(min_value=1, max_value=3000), st.integers(2, 10**6))
@settings(max_examples=60)
def test_window_matches_sympy(L, n):
    got = primes_in_window(L, n)
    expected = tuple(
        p for p in sympy.primerange(L + 1, 2 * L + 1) if math.gcd(p, n) == 1
    )
    assert got == expected
    assert all(sympy.isprime(p) for p in got)  # independent re-check
    assert list(got) == sorted(set(got))


@pytest.mark.parametrize("L", [100, 250, 1000, 5000])
@pytest.mark.parametrize("n", [101, 2 * 3 * 5 * 7 * 11, 10**6])
def test_window_pnt_sanity_band(L, n):
    count = len(primes_in_window(L, n))
    omega = len(sympy.primefactors(n))
    assert count >= 0.5 * L / math.log(2 * L) - omega



# an even n, a prime n, a prime power and 720 720 = 2^4 3^2 5 7 11 13
@pytest.mark.parametrize("n", [10**6, 999_983, 3**10, 720_720])
def test_window_counts_match_windows(n):
    L_max = 4 * math.isqrt(n)
    counts = window_counts(n, L_max)
    assert counts.dtype == np.int64 and counts.shape == (L_max,)
    assert counts.tolist() == [len(primes_in_window(L, n))
                               for L in range(1, L_max + 1)]


def test_window_counts_refuse_bad_arguments():
    with pytest.raises(ValueError, match="L_max must be >= 1"):
        window_counts(100, 0)
    with pytest.raises(ValueError, match="n must be >= 2"):
        window_counts(1, 5)
