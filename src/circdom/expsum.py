"""Exponential sums over the modular-ratio set and their bound audits.

S(a) = sum_{w in W} e_n(a w), with e_n(x) = exp(2 pi i x / n), for all a
in Z_n at once is one DFT of the indicator 1_W, O(n log n). The float
shortcut is checked: S at the argmax and at four a seeded by n is re-summed
term by term by exp_sum_W (the one sin/cos pair per term comes from the
exact modular product) and compared with the DFT's modulus. Requests above
the cap are rejected before anything is allocated, not silently
downsampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import WSet, _require_scale, build_W
from .errors import AuditTooLarge

AUDIT_CAP = 2**22
# Float error allowed per element of W, in the argmax tie-break and the
# direct cross-check; both routes carry ~1e-14 of rounding at |W| = 80.
FFT_TOL_PER_ELEMENT = 1e-9


@dataclass(frozen=True)
class ExpSumAudit:
    """Max |sum_{w in W} e_n(a w)| over a != 0 against L (ln n)^2 / lnln n.

    argmax_a is the smallest a in [1, n-1] within the float tolerance of
    the max; direct_check_err is the largest gap between |S(a)| summed
    directly and the DFT's |S(a)| over argmax_a and the four a of
    np.random.default_rng(n).integers(1, n, size=4).
    """

    n: int
    L: int
    w_size: int
    max_abs: float
    argmax_a: int
    bound: float
    ratio: float
    direct_check_err: float


def exp_sum_W(n: int, W: WSet, a: int) -> complex:
    """Direct summation of e_n(a * w) over w in W."""
    w = W.elements.indices()
    phases = ((a % n) * w % n) * (2.0 * math.pi / n)
    return complex(np.exp(1j * phases).sum())


def expsum_bound(n: int, L: int) -> float:
    """The audited envelope L (ln n)^2 / lnln n."""
    return L * math.log(n) ** 2 / math.log(math.log(n))


def _magnitudes(W: WSet) -> np.ndarray:
    """|S(a)| for every a in Z_n from one DFT of 1_W.

    np.fft.fft sums e_n(-a w), the conjugate of S(a); the moduli agree.
    """
    return np.abs(np.fft.fft(W.elements.members.astype(float)))


def expsum_audit(n: int, L: int) -> ExpSumAudit:
    """Report the worst sum over a in [1, n-1] against the bound.

    Raises DegenerateInstance below MIN_N, the scale floor construct keeps:
    lnln n > 0 from n = 3, but the asymptotic bound means nothing there.
    """
    if n > AUDIT_CAP:
        raise AuditTooLarge(f"n={n} exceeds the audit cap {AUDIT_CAP}")
    _require_scale(n)
    W = build_W(n, L)
    mags = _magnitudes(W)
    max_abs = float(mags[1:].max())
    tol = FFT_TOL_PER_ELEMENT * W.size
    argmax_a = int(np.flatnonzero(mags[1:] >= max_abs - tol)[0]) + 1
    checked = [argmax_a, *np.random.default_rng(n).integers(1, n, size=4)]
    direct_check_err = max(abs(abs(exp_sum_W(n, W, int(a))) - mags[a])
                           for a in checked)
    bound = expsum_bound(n, L)
    return ExpSumAudit(
        n=n,
        L=L,
        w_size=W.size,
        max_abs=max_abs,
        argmax_a=argmax_a,
        bound=bound,
        ratio=max_abs / bound,
        direct_check_err=float(direct_check_err),
    )


def parseval_sum(n: int, W: WSet) -> float:
    """sum over all a in Z_n of |S(a)|^2; equals n * |W| exactly in theory."""
    mags = _magnitudes(W)
    return float(mags @ mags)

