"""Ground truth: domination checks, exact domination numbers, lower bounds."""

from __future__ import annotations

from .errors import TooLarge
from .graph import CirculantSpec, VertexSet, coverage

EXACT_GAMMA_MAX_N = 24


def is_dominating(spec: CirculantSpec, D: VertexSet, r: int = 1):
    """Whether every vertex is within r (+S)-steps of D; returns uncovered set."""
    uncovered = VertexSet(spec.n, ~coverage(spec, D, r).members)
    return uncovered.size == 0, uncovered


def exact_gamma(spec: CirculantSpec) -> int:
    """Minimum dominating-set size by bitmask branch-and-bound (n <= 24).

    Translation is an automorphism of C_n(S), so 0 is in some minimum
    dominating set and is fixed. Each step branches on the lowest
    uncovered vertex v over the k+1 vertices v - s (s in S u {0}) that
    cover it, and a branch is cut once |D| + ceil(uncovered / (k+1))
    cannot beat the best set found. A transposition table maps each
    covered mask to the fewest picks it was expanded at, and a node whose
    mask was already expanded with no more picks is cut: the subtree
    below a node depends only on its mask, and that earlier search found
    every completion that could beat the best set. At the cap the table
    held at most ~2 000 masks (under 1 MB).
    """
    n = spec.n
    if n > EXACT_GAMMA_MAX_N:
        raise TooLarge(f"exact_gamma capped at n <= {EXACT_GAMMA_MAX_N}, got {n}")
    full = (1 << n) - 1
    offsets = (0, *spec.chords.chords)
    masks = [sum(1 << ((u + s) % n) for s in offsets) for u in range(n)]
    coverers = [[masks[(v - s) % n] for s in offsets] for v in range(n)]
    width = len(offsets)
    best = n
    seen: dict[int, int] = {}  # covered mask -> fewest picks it was expanded at

    def search(covered: int, size: int) -> None:
        nonlocal best
        if covered == full:
            best = size
            return
        uncovered = n - covered.bit_count()
        if size + -(-uncovered // width) >= best or seen.get(covered, n) <= size:
            return
        seen[covered] = size
        v = (~covered & (covered + 1)).bit_length() - 1
        for m in coverers[v]:
            search(covered | m, size + 1)

    search(masks[0], 1)
    return best


def gamma_lower_bound(n: int, k: int) -> float:
    """n/k - 1, the counting bound of open-neighbourhood domination.

    It is not a lower bound on gamma under the closed-neighbourhood
    convention used here: gamma(C_9({1, 8})) = 3 < 9/2 - 1 (criterion 7's
    strict xfail). The sound bound is n/(k+1), since each vertex covers at
    most k + 1; gamma is at least its ceiling.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return n / k - 1.0

