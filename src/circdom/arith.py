"""Exact modular arithmetic and complex exponential evaluation.

All residues live in {0, ..., n-1}; centered representatives live in
(-n/2, n/2]. Python integers make overflow a non-issue for any modulus
we touch. Complex values are double precision; callers own tolerances.
"""

from __future__ import annotations

import cmath
import math

from .errors import NotInvertible

TWO_PI = 2.0 * math.pi


def mod_inv(a: int, n: int) -> int:
    """Inverse of a modulo n; raises NotInvertible when gcd(a, n) > 1."""
    try:
        return pow(a, -1, n)
    except ValueError as exc:
        raise NotInvertible(f"{a} is not invertible mod {n}") from exc


def centered_residue(u: int, n: int) -> int:
    """The unique integer congruent to u mod n lying in (-n/2, n/2]."""
    r = u % n
    return r - n if 2 * r > n else r


def e_n(z: int, n: int) -> complex:
    """The additive character exp(2*pi*i*z/n); depends only on z mod n."""
    return cmath.exp(1j * TWO_PI * (z % n) / n)
