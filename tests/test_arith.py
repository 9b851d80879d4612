import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circdom.arith import centered_residue, e_n, mod_inv
from circdom.errors import NotInvertible

from conftest import naive_mod_inv


def test_mod_inv_identity():
    for n in (2, 7, 101, 4096):
        assert mod_inv(1, n) == 1


def test_mod_inv_5_mod_101():
    # exhaustive oracle pins the value
    assert naive_mod_inv(5, 101) == 81
    assert mod_inv(5, 101) == 81
    assert 5 * 81 == 4 * 101 + 1


def test_mod_inv_not_invertible():
    with pytest.raises(NotInvertible):
        mod_inv(2, 4)


@given(st.integers(min_value=2, max_value=500), st.data())
def test_mod_inv_property(n, data):
    a = data.draw(st.integers(min_value=1, max_value=n - 1))
    if math.gcd(a, n) == 1:
        x = mod_inv(a, n)
        assert (a * x) % n == 1
        assert x == naive_mod_inv(a, n)
    else:
        with pytest.raises(NotInvertible):
            mod_inv(a, n)


def test_centered_residue_examples():
    for n in (3, 10, 101):
        assert centered_residue(n - 1, n) == -1
    assert centered_residue(5, 10) == 5  # upper boundary included
    assert centered_residue(3, 10) == 3


@given(st.integers(min_value=3, max_value=10**6), st.integers(-10**9, 10**9))
def test_centered_residue_property(n, u):
    w = centered_residue(u, n)
    assert -n / 2 < w <= n / 2
    assert (w - u) % n == 0


def test_e_n_basics():
    for n in (2, 5, 101):
        assert e_n(0, n) == pytest.approx(1.0)
        assert e_n(n, n) == pytest.approx(1.0)


@given(st.integers(min_value=2, max_value=10**6), st.integers(-10**6, 10**6))
def test_e_n_unit_circle(n, z):
    assert abs(abs(e_n(z, n)) - 1.0) < 1e-12


@given(
    st.integers(min_value=2, max_value=10**4),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_e_n_multiplicative(n, a, b):
    assert e_n(a + b, n) == pytest.approx(e_n(a, n) * e_n(b, n), abs=1e-10)


@pytest.mark.parametrize("n", [7, 128, 1000, 9973])
def test_orthogonality(n):
    for m in (0, 1, 2, n // 2, n, 3 * n):
        total = sum(e_n(a * m, n) for a in range(n))
        if m % n == 0:
            assert total == pytest.approx(n)
        else:
            assert abs(total) < 1e-6 * n
