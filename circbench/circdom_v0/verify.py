"""Ground truth: domination checks, exact domination numbers, lower bounds."""

from __future__ import annotations

import itertools
import math

from .errors import TooLarge
from .graph import CirculantSpec, VertexSet, coverage

EXACT_GAMMA_MAX_N = 24


def is_dominating(spec: CirculantSpec, D: VertexSet, r: int = 1):
    """Whether every vertex is within r (+S)-steps of D; returns uncovered set."""
    covered = coverage(spec, D, r)
    uncovered = covered.complement()
    return uncovered.size == 0, uncovered


def exact_gamma(spec: CirculantSpec) -> int:
    """Minimum dominating-set size by exhaustive subset search (n <= 24).

    Searches cardinalities upward from the closed-neighborhood floor
    ceil(n/(k+1)), lexicographic within each cardinality, first hit wins.
    """
    n = spec.n
    if n > EXACT_GAMMA_MAX_N:
        raise TooLarge(f"exact_gamma capped at n <= {EXACT_GAMMA_MAX_N}, got {n}")
    full = (1 << n) - 1
    masks = []
    for u in range(n):
        m = 1 << u
        for s in spec.chords.chords:
            m |= 1 << ((u + s) % n)
        masks.append(m)
    start = max(1, math.ceil(n / (spec.k + 1)))
    for size in range(start, n + 1):
        for comb in itertools.combinations(range(n), size):
            acc = 0
            for u in comb:
                acc |= masks[u]
            if acc == full:
                return size
    raise AssertionError("unreachable: Z_n itself dominates")


def gamma_lower_bound(n: int, k: int) -> float:
    """Counting bound n/k - 1 on the domination number."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return n / k - 1.0


def closed_neighborhood_bound(n: int, k: int) -> float:
    """The self-coverage variant n/(k+1); reported alongside n/k - 1."""
    return n / (k + 1)
