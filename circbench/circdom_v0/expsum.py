"""Exponential sums over the modular-ratio set and their bound audits.

Phases are evaluated per term from the exact modular product (no
recurrence), so the only floating error is one sin/cos pair per term.
The full-a scan is Theta(n * |W|) and capped; larger requests are
rejected rather than silently downsampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import centered_residue, mod_inv
from .construct import WSet, build_W
from .errors import AuditTooLarge
from .primes import PrimeWindow

AUDIT_CAP = 2**14
_CHUNK_CELLS = 1 << 22  # a-by-w phase cells held at once


@dataclass(frozen=True)
class ExpSumAudit:
    """Max |sum_{w in W} e_n(a w)| over a != 0 against L (ln n)^2 / lnln n."""

    n: int
    L: int
    w_size: int
    max_abs: float
    argmax_a: int
    bound: float
    ratio: float


def exp_sum_W(n: int, W: WSet, a: int) -> complex:
    """Direct summation of e_n(a * w) over w in W."""
    w = W.indices()
    phases = ((a % n) * w % n) * (2.0 * math.pi / n)
    return complex(np.exp(1j * phases).sum())


def expsum_bound(n: int, L: int) -> float:
    """The audited envelope L (ln n)^2 / lnln n."""
    return L * math.log(n) ** 2 / math.log(math.log(n))


def _scan_max(n: int, w: np.ndarray) -> tuple[float, int]:
    """Max |S(a)| over a in [1, n-1]; ties broken toward the smallest a."""
    best, arg = -1.0, 0
    step = max(1, _CHUNK_CELLS // max(1, len(w)))
    for start in range(1, n, step):
        a_chunk = np.arange(start, min(start + step, n), dtype=np.int64)
        phases = (a_chunk[:, None] * w[None, :] % n) * (2.0 * math.pi / n)
        mags = np.abs(np.exp(1j * phases).sum(axis=1))
        i = int(np.argmax(mags))  # first occurrence = smallest a in chunk
        if mags[i] > best:
            best, arg = float(mags[i]), int(a_chunk[i])
    return best, arg


def expsum_audit(n: int, L: int, cap: int = AUDIT_CAP) -> ExpSumAudit:
    """Scan all a in [1, n-1] and report the worst sum against the bound."""
    if n > cap:
        raise AuditTooLarge(f"n={n} exceeds the audit cap {cap}")
    W = build_W(n, L)
    max_abs, argmax_a = _scan_max(n, W.indices())
    bound = expsum_bound(n, L)
    return ExpSumAudit(
        n=n,
        L=L,
        w_size=W.size,
        max_abs=max_abs,
        argmax_a=argmax_a,
        bound=bound,
        ratio=max_abs / bound,
    )


def parseval_sum(n: int, W: WSet) -> float:
    """sum over all a in Z_n of |S(a)|^2; equals n * |W| exactly in theory."""
    w = W.indices()
    total = 0.0
    step = max(1, _CHUNK_CELLS // max(1, len(w)))
    for start in range(0, n, step):
        a_chunk = np.arange(start, min(start + step, n), dtype=np.int64)
        phases = (a_chunk[:, None] * w[None, :] % n) * (2.0 * math.pi / n)
        sums = np.exp(1j * phases).sum(axis=1)
        total += float((sums.real**2 + sums.imag**2).sum())
    return total


def centered_profile(n: int, a: int, window: PrimeWindow) -> list[tuple[int, int]]:
    """(ell, centered a/ell mod n) for every prime in the window.

    These centered values drive the dyadic counts in the sum bound's
    proof; histogram them by bands [e^j, e^{j+1}) for diagnostics.
    """
    return [
        (ell, centered_residue(a * mod_inv(ell, n), n)) for ell in window.primes
    ]


def dyadic_histogram(profile: list[tuple[int, int]]) -> dict[int, int]:
    """Counts of |centered value| per dyadic-in-e band floor(ln |rho|)."""
    hist: dict[int, int] = {}
    for _, rho in profile:
        j = -1 if rho == 0 else int(math.floor(math.log(abs(rho))))
        hist[j] = hist.get(j, 0) + 1
    return hist
