"""The modular-ratio constructions.

Core objects: the set W = {k * inv(ell) mod n : k in [1, L], ell prime in
[L+1, 2L] coprime to n}, the exceptional set U of vertices missed by
S + W, the dominating set D = U union W, the universal 2-dominating set,
and the universal almost-dominating set.

All logarithms are natural. Instances with n < MIN_N = 16 are rejected:
a scale floor for the asymptotic bounds, which mean nothing at such n
(lnln n itself is positive from n = 3).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInstance,
    EmptyPrimeWindow,
    HypothesisNotMet,
    InexactCounts,
    TooLarge,
)
from . import graph
from .graph import ChordSet, CirculantSpec, VertexSet, _sieve, shift_cover
from .primes import primes_in_window, window_counts
from .verify import is_dominating

MIN_N = 16
LAMBDA_RTOL = 1e-12
# FFT representation counts must lie closer than this to an integer.
COUNT_ROUND_TOL = 0.25
# build_W's first round takes every ROUND_STRIDE-th prime of the window, so
# that it spans the window: a vertex x whose products x * ell mod n move
# slowly with ell misses a run of neighbouring primes together, and would
# survive a round of the lowest primes into phase 2. W is the same in any
# order; at n = 10^6, k = 100 and the theorem's L = ceil(lambda) stride 4
# cuts the phase-2 tests from 12.3 M (lowest primes first) to 6.91 M.
ROUND_STRIDE = 4


@dataclass
class WSet:
    """The modular-ratio set together with the window that generated it:
    the ascending primes of [L+1, 2L] coprime to n."""

    n: int
    L: int
    elements: VertexSet
    window: tuple[int, ...]
    marks: int = 0  # (k, ell) cells marked
    checks: int = 0  # (unmarked vertex, ell) cells tested

    @property
    def size(self) -> int:
        return self.elements.size

    @property
    def card_hypothesis_ok(self) -> bool:
        # L < 0.5 * sqrt(n), checked exactly: (2L)^2 < n
        return 4 * self.L * self.L < self.n


@dataclass(kw_only=True)
class DominationReport:
    """One run's outcome; its fields before D are the construct record."""

    n: int
    k: int
    method: str
    r: int
    seed: int | None = None
    generator: str | None = None
    size: int
    verified: bool
    uncovered_count: int
    uncovered_sample: list[int] = field(default_factory=list)
    wall_ms: float
    parameters: dict = field(default_factory=dict)
    D: VertexSet


def report(method: str, spec: CirculantSpec, D: VertexSet, r: int, t0: float,
           parameters: dict, seed: int | None = None,
           generator: str | None = None) -> DominationReport:
    """Verify D at radius r once and report it, timed from perf_counter t0."""
    verified, uncovered = is_dominating(spec, D, r)
    return DominationReport(
        method=method, n=spec.n, k=spec.k, r=r, D=D, size=D.size,
        verified=verified, uncovered_count=uncovered.size,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        parameters=parameters, seed=seed, generator=generator,
    )


def _loglog(n: int) -> float:
    return math.log(math.log(n))


def _require_scale(n: int, k: int = 1) -> None:
    """Refuse n below MIN_N, then a chord count k outside [1, n - 1]."""
    if n < MIN_N:
        raise DegenerateInstance(f"n must be >= {MIN_N}, got {n}")
    if not 1 <= k < n:
        raise ValueError("require 1 <= k < n")


def solve_lambda(n: int, k: int) -> float:
    """Solve n^2 (ln lam)^2 (ln n)^4 / (k lam^2 (lnln n)^2) = lam^2 / ln lam
    for lam; the paper's cutoff is L = ceil(lam).

    Rearranged to the increasing form lam^4/(ln lam)^3 = target and
    bisected until hi - lo <= 1e-12 lo: at the latest when lo and hi are
    adjacent floats, spaced at most 2^-52 lo. The bracket's upper end is
    doubled past n when the desk-scale root exceeds n (happens for small
    n with small k; harmless, the hypothesis flags downstream record it).
    """
    _require_scale(n, k)
    target = n * n * math.log(n) ** 4 / (k * _loglog(n) ** 2)

    def g(lam: float) -> float:
        return lam**4 / math.log(lam) ** 3

    lo = n**0.25
    hi = float(n)
    while g(hi) < target:
        hi *= 2.0
    while hi - lo > LAMBDA_RTOL * lo:
        mid = 0.5 * (lo + hi)
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def first_round(n: int, L: int) -> int:
    """Primes build_W marks before it tests the vertices left unmarked:
    m ln(m / 2) with m = ceil(n / L), none for m <= 2. L random marks per
    prime would then leave about 2L vertices unmarked; the round spread by
    ROUND_STRIDE leaves 1.6L to 3.2L at the theorem's L = ceil(lambda)
    with k = 100 and 1000 from n = 12 500 to 10^6 (at construct_dominating's
    model L phase 1 marks the whole window there, and phase 2 does not
    run). About there one more prime's
    L marks (~7-8 ns each) cost what they save in phase 2: they would
    drop about u L / n of the u vertices left, each tested against about
    m primes (~1.5-2 ns a test) before its first hit, and spare that
    prime's own u tests."""
    m = -(-n // L)
    return int(m * math.log(m / 2))


def _scale(v: np.ndarray, n: int) -> np.ndarray:
    """ceil(v * 2^64 / n) for the uint64 array v of residues mod n <= 2^32,
    as v * c0 + (v * e0 + n - 1) // n with (c0, e0) = divmod(2^64, n):
    v * e0 + n - 1 <= (n - 1) * n < 2^64 does not wrap."""
    c0, e0 = (np.uint64(w) for w in divmod(2**64, n))
    return v * c0 + (v * e0 + np.uint64(n - 1)) // np.uint64(n)


def _ratios(A: np.ndarray, ks: np.ndarray, n: int,
            work: np.ndarray) -> np.ndarray:
    """The (A.size, ks.size) table of k * a mod n for the units a with
    A = _scale(a, n) and the uint64 k of ks, computed in the leading cells
    of the uint64 array work and returned as an int64 view of them. Exact
    while every k lies in [1, L] for some L with n * (L + 2^32) < 2^64.

    In fixed point: with A = ceil(a * 2^64 / n) and r = k * a mod n,
    A * k mod 2^64 is t = r * 2^64 / n + k * d for some d in [0, 1), and
    t + 2^32 < (n - 1) * 2^64 / n + L + 2^32 < 2^64 does not wrap. So
    u = (t + 2^32) >> 32 lies in (t / 2^32, t / 2^32 + 1], u < 2^32, and
    u * n / 2^32 lies in (r, r + n * (L + 2^32) / 2^64) with an upper end
    below r + 1: u * n >> 32 is r.
    """
    t = work[:A.size * ks.size].reshape(A.size, ks.size)
    np.multiply(A[:, None], ks, out=t)
    t += np.uint64(2**32)
    t >>= np.uint64(32)
    t *= np.uint64(n)
    t >>= np.uint64(32)
    return t.view(np.int64)


def build_W(n: int, L: int) -> WSet:
    """The set {k * inv(ell) mod n : (k, ell) in [1, L] x window(L, n)}.

    Phase 1 marks: one modular inverse per prime, then _ratios over
    blocks of inverses times [1, L], about graph.CELLS cells each, each
    block scattered into one mask. A mark is a wrapping uint64 multiply
    by the inverse scaled by _scale, then a multiply and two shifts back
    to the residue, exact while n * (L + 2^32) < 2^64.

    Phase 1 marks first_round(n, L) primes, taken across the window as
    every ROUND_STRIDE-th prime of it. If primes are left, phase 2 tests
    the unmarked vertices against them with _sieve: x is in W iff r =
    x * ell mod n lies in [1, L] for some prime ell of the window
    (multiply x = k * inv(ell) by the unit ell). 0 is never k * inv(ell),
    and never a candidate, since its products 0 would count as hits. The
    candidates come from inverting the mask in place, so no n-byte
    temporary is made.

    Each test is one wrapping uint64 multiply and one compare. Every
    candidate is scaled once by _scale to X = ceil(x * 2^64 / n); with
    r = x * ell mod n, not 0, ell * X mod 2^64 lies in [r * 2^64 / n,
    r * 2^64 / n + ell), so it is at most T = floor(((L + 1) * 2^64 - 1)
    / n) iff r <= L, while 2L * n <= 2^64, which the size bound implies.
    X is strictly increasing in x, so the survivors' X map back to x by
    binary search.

    Under 4L^2 < n, m = ceil(n / L) > 4L, so first_round(n, L) =
    floor(m ln(m / 2)) > 4L ln(2L) - 1 > 2.77L - 1 >= L >= |window(L)|:
    phase 1 marks the whole window and phase 2 never runs. An empty
    window marks nothing: W is empty. For L >= n the multiples of any
    unit already sweep all of Z_n, so the full set is returned directly.
    Otherwise TooLarge is raised, before anything is allocated, if
    n * (L + 2^32) >= 2^64 (the bound implies n < 2^32).
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if L < n and n * (L + 2**32) >= 2**64:
        raise TooLarge(f"build_W needs n * (L + 2^32) < 2^64, got n={n}, L={L}")
    window = primes_in_window(L, n)
    if L >= n:
        return WSet(n=n, L=L, elements=VertexSet(n, np.ones(n, dtype=bool)),
                    window=window)
    primes = [ell for r in range(ROUND_STRIDE)
              for ell in window[r::ROUND_STRIDE]]
    ks = np.arange(1, L + 1, dtype=np.uint64)
    marked = min(len(primes), first_round(n, L))
    rows = max(1, graph.CELLS // L)
    members = np.zeros(n, dtype=bool)
    # one work array for every block: a phase-1 block computes at most
    # max(CELLS, L) cells, and phase 2 grows it once if its blocks of at
    # most max(CELLS, u) products for the u vertices tested need more.
    # Fresh arrays per block made a first build_W at n = 10^6, k = 100
    # take ~168 ms instead of ~73 ms: glibc returned their pages between
    # blocks and faulted them in again.
    work = np.empty(max(graph.CELLS, L), dtype=np.uint64)
    A = _scale(np.array([pow(ell, -1, n) for ell in primes[:marked]],
                        dtype=np.uint64), n)
    for s in range(0, marked, rows):
        members[_ratios(A[s:s + rows], ks, n, work)] = True
    checks = 0
    if marked < len(primes):
        alive = np.flatnonzero(np.logical_not(members, out=members))[1:]
        if alive.size > work.size:
            work = np.empty(alive.size, dtype=np.uint64)
        X = _scale(alive.astype(np.uint64), n)
        T = np.uint64(((L + 1) * 2**64 - 1) // n)

        def hit(X, ell):
            out = work[:ell.size * X.size].reshape(ell.size, X.size)
            return np.multiply(ell[:, None], X, out=out) <= T

        left, _, checks = _sieve(
            X, np.array(primes[marked:], dtype=np.uint64), hit)
        members[:] = True
        members[0] = members[alive[np.searchsorted(X, left)]] = False
    return WSet(n=n, L=L, elements=VertexSet(n, members), window=window,
                marks=L * marked, checks=checks)


def exceptional_set(n: int, S: ChordSet, W: WSet) -> VertexSet:
    """Vertices of Z_n not representable as s + w, (s, w) in S x W.

    Rotates the membership mask of W by each chord into one bit array and
    returns the complement: an n/8-byte OR per chord (graph.shift_cover)
    until few vertices are unmarked, then a test per vertex and chord left.
    """
    return VertexSet(n, ~shift_cover(W.elements.members, S.chords))


def exceptional_bound(n: int, s_size: int, num_primes: int) -> float:
    """Envelope n^2 (ln n)^4 / (|S| |window|^2 (lnln n)^2) for |U|."""
    return n * n * math.log(n) ** 4 / (
        s_size * num_primes**2 * _loglog(n) ** 2
    )


def dom_size_envelope(n: int, k: int) -> float:
    """Envelope n (ln n)^{5/2} / (sqrt(k) lnln n) for the dominating set."""
    return n * math.log(n) ** 2.5 / (math.sqrt(k) * _loglog(n))


def model_L(n: int, k: int) -> tuple[int, float]:
    """(L, f(L)) for the L that minimises f(L) = w + n exp(-k w / n), with
    w = min(n, L |window(L)|), over the L in [1, 4 isqrt(n)] with a
    non-empty window; ties go to the smallest L.

    f is the Alon-Spencer random-then-fix estimate of |W u U| (The
    Probabilistic Method, Thm 1.2.2), reading W as a random set of its
    size. Window sizes are not monotone in L, so the argmin is taken over
    every L, not at the first L with w >= (n / k) ln k. The range holds a
    non-empty window for n >= MIN_N: each prime p <= 8 isqrt(n) lies in
    the window of L = ceil(p / 2), and the primes up to 8 isqrt(n) >= 32
    cannot all divide n, since their product exceeds 2^(8 isqrt(n)) > n
    (see test_model_window_never_empty).
    """
    _require_scale(n, k)
    counts = window_counts(n, 4 * math.isqrt(n))
    w = np.minimum(n, np.arange(1, counts.size + 1) * counts)
    f = np.where(counts > 0, w + n * np.exp(-k * w / n), np.inf)
    L = int(np.argmin(f)) + 1
    return L, float(f[L - 1])


def construct_dominating(spec: CirculantSpec) -> DominationReport:
    """Build D = U union W at the model L of model_L and verify domination.

    The report keeps lambda, from which the theorem's L = ceil(lambda)
    follows; build_W(n, math.ceil(solve_lambda(n, k))) builds that W.
    """
    n, k = spec.n, spec.k
    t0 = time.perf_counter()
    lam = solve_lambda(n, k)
    L, predicted = model_L(n, k)
    W = build_W(n, L)
    U = exceptional_set(n, spec.chords, W)
    D = VertexSet(n, W.elements.members | U.members)
    return report("paper", spec, D, 1, t0, {
        "lambda": lam,
        "L": W.L,
        "num_primes": len(W.window),
        "w_size": W.size,
        "u_size": U.size,
        "predicted_size": predicted,
        "card_hypothesis_ok": W.card_hypothesis_ok,
    })


def _universal2_k_floor(n: int, C: float) -> float:
    """Hypothesis threshold C sqrt(n) (ln n)^3 / lnln n for k."""
    return C * math.sqrt(n) * math.log(n) ** 3 / _loglog(n)


def universal2_L(n: int, k: int, c: float) -> int | float:
    """L = ceil(c * n (ln n)^3 / (k lnln n)); inf, which fails the card
    check, where a finite c near the float maximum overflows it."""
    L = c * n * math.log(n) ** 3 / (k * _loglog(n))
    return L if L == math.inf else math.ceil(L)


def construct_universal_2dom(
    n: int, k: int, c: float = 1.0, C: float = 1.0, c0: float = 1.0
) -> WSet:
    """Chord-set-independent W that 2-dominates every C_n(S) with |S| >= k.

    Deterministic in (n, k, c): the same call always returns the same set.
    Raises HypothesisNotMet at the first of these checks that fails: the
    theorem hypothesis k >= C sqrt(n) (ln n)^3 / lnln n and the cardinality
    hypothesis L < 0.5 sqrt(n) with L = universal2_L(n, k, c) before W is
    built, and the runtime check |window| > c0 n (ln n)^2 / (k lnln n) on
    W's window, which raises EmptyPrimeWindow instead if it holds no prime.
    """
    _require_scale(n, k)
    # negated, so that a NaN constant fails its check
    if not k >= _universal2_k_floor(n, C):
        raise HypothesisNotMet(
            f"k={k} below C*sqrt(n)(ln n)^3/lnln n with C={C} for n={n}"
        )
    L = universal2_L(n, k, c)
    if 4 * L * L >= n:
        raise HypothesisNotMet(
            f"L={L} >= 0.5*sqrt(n) for n={n}; distinctness lemma fails"
        )
    W = build_W(n, L)
    num_primes = len(W.window)
    if not num_primes:
        raise EmptyPrimeWindow(f"no primes in [{L + 1}, {2 * L}] coprime to {n}")
    if not num_primes > c0 * n * math.log(n) ** 2 / (k * _loglog(n)):
        raise HypothesisNotMet(
            f"window size {num_primes} fails the c0={c0} runtime check"
        )
    return W


@dataclass(frozen=True)
class Universal2Constants:
    """Largest constants that keep the universal-2-dom checks satisfiable,
    in (c, C, c0) order, the order of a nu audit line's last three keys.
    c_max gives the largest L with 4L^2 < n, L = isqrt((n - 1) // 4)."""

    c_max: float  # L(c) < 0.5 sqrt(n) iff c <= c_max
    C_max: float  # hypothesis holds iff C <= C_max
    c0_max: float  # runtime check at L(c_max) holds iff c0 < c0_max


def suggest_universal2_constants(n: int, k: int) -> Universal2Constants:
    """Report the constants that would let construct_universal_2dom succeed.

    The theorem's absolute constants are unspecified; at desk scale the
    defaults c = C = 1 typically fail, and this reports the feasible values.
    """
    _require_scale(n, k)
    ll = _loglog(n)
    C_max = k * ll / (math.sqrt(n) * math.log(n) ** 3)
    L_max = math.isqrt((n - 1) // 4)  # largest L with 4L^2 < n; 1 at n = MIN_N
    c_max = L_max * k * ll / (n * math.log(n) ** 3)
    # The quotients may round just past their boundary; step back onto it,
    # so that the checks themselves pass at C_max and c_max.
    while k < _universal2_k_floor(n, C_max):
        C_max = math.nextafter(C_max, 0.0)
    while universal2_L(n, k, c_max) > L_max:
        c_max = math.nextafter(c_max, 0.0)
    num_primes = len(primes_in_window(L_max, n))
    c0_max = num_primes * k * ll / (n * math.log(n) ** 2)
    return Universal2Constants(c_max=c_max, C_max=C_max, c0_max=c0_max)


def all_representation_counts(n: int, S: ChordSet, W: WSet) -> np.ndarray:
    """N(u) for every u at once: the circular convolution 1_S * 1_S * 1_W.

    Computed as irfft(rfft(1_S)^2 * rfft(1_W)) in O(n log n). The float
    results are rounded to integers; InexactCounts is raised if any lies
    COUNT_ROUND_TOL or more from its integer.
    """
    ind_s = np.bincount(S.as_array(), minlength=n).astype(float)
    f_s = np.fft.rfft(ind_s)
    f_w = np.fft.rfft(W.elements.members.astype(float))
    raw = np.fft.irfft(f_s * f_s * f_w, n=n)
    counts = np.rint(raw)
    err = float(np.abs(raw - counts).max())
    if err >= COUNT_ROUND_TOL:
        raise InexactCounts(
            f"FFT representation counts off an integer by {err:.3g} at n={n}"
        )
    return counts.astype(np.int64)


def almost_budget(n: int, k: int, psi: float) -> float:
    """Size budget psi * n (ln n)^3 / (sqrt(k) lnln n)."""
    return psi * n * math.log(n) ** 3 / (math.sqrt(k) * _loglog(n))


def almost_dominating_W(n: int, k: int, psi: float = 1.0) -> WSet:
    """A modular-ratio set whose predicted size fits the budget.

    Predicted size is L * |window(L)|; the actual set is never larger, so
    |W| <= budget holds on return. L is found by doubling then bisection,
    both of which keep predicted(L) <= budget (it holds at L = 1, since
    predicted(1) <= 1 <= budget). The window count is not monotone in L,
    so L fits the budget but need not be the largest L that does.
    """
    _require_scale(n, k)
    budget = almost_budget(n, k, psi)
    if budget < 1:
        raise ValueError("budget below one element; increase psi")
    if not math.isfinite(budget):
        raise ValueError("budget is not a finite number; decrease psi")

    def predicted(L: int) -> int:
        return L * len(primes_in_window(L, n))

    lo = 1
    while 2 * lo < n and predicted(2 * lo) <= budget:
        lo *= 2
    hi = min(2 * lo, n - 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predicted(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return build_W(n, lo)
