import math

import pytest

from circdom.construct import MIN_N, build_W
from circdom.errors import AuditTooLarge, DegenerateInstance
from circdom.expsum import (
    AUDIT_CAP,
    FFT_TOL_PER_ELEMENT,
    exp_sum_W,
    expsum_audit,
    expsum_bound,
    parseval_sum,
)

from conftest import naive_exp_sum


def test_exp_sum_at_zero_is_cardinality():
    W = build_W(101, 3)
    assert exp_sum_W(101, W, 0) == pytest.approx(W.size)


def test_exp_sum_conjugate_symmetry():
    W = build_W(1009, 7)
    for a in (1, 5, 100, 504):
        lhs = abs(exp_sum_W(1009, W, a))
        rhs = abs(exp_sum_W(1009, W, 1009 - a))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_exp_sum_matches_termwise_oracle():
    W = build_W(101, 3)
    assert sorted(W.elements.indices().tolist()) == [41, 61, 81]
    got = exp_sum_W(101, W, 1)
    expected = naive_exp_sum(101, [41, 61, 81], 1)
    assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n, L", [(101, 3), (521, 8), (4099, 12)])
def test_audit_matches_double_loop(n, L):
    audit = expsum_audit(n, L)
    W = build_W(n, L)
    w_vals = W.elements.indices().tolist()
    mags = {a: abs(naive_exp_sum(n, w_vals, a)) for a in range(1, n)}
    best = max(mags.values())
    assert audit.max_abs == pytest.approx(best, abs=1e-9)
    # argmax must be a maximizer up to float noise (conjugate pairs tie)
    assert mags[audit.argmax_a] >= best - 1e-9
    tol = FFT_TOL_PER_ELEMENT * W.size
    assert audit.argmax_a == min(a for a in mags if mags[a] >= best - tol)
    assert audit.ratio == pytest.approx(best / expsum_bound(n, L))
    assert audit.w_size == len(w_vals)
    assert audit.direct_check_err <= tol


def test_audit_argmax_takes_smallest_of_conjugate_pair():
    # |S(a)| = |S(n - a)|; float rounding once picked 8952 = 16381 - 7429
    audit = expsum_audit(16381, 16)
    assert audit.argmax_a == 7429
    assert audit.direct_check_err <= FFT_TOL_PER_ELEMENT * audit.w_size


def test_audit_max_below_cardinality():
    for n, L in [(101, 3), (1009, 5), (4099, 8)]:
        audit = expsum_audit(n, L)
        assert audit.max_abs <= audit.w_size
        if audit.w_size >= 2:
            assert audit.max_abs < audit.w_size


def test_audit_cap():
    with pytest.raises(AuditTooLarge):
        expsum_audit(AUDIT_CAP + 1, 10)


def test_audit_scale_floor():
    # MIN_N is a scale floor: n = 15 is rejected although lnln 15 > 0, and
    # at n = 2 lnln n < 0 would make the bound and the ratio negative
    for n in (2, MIN_N - 1):
        with pytest.raises(DegenerateInstance):
            expsum_audit(n, 3)
    assert expsum_audit(MIN_N, 3).bound > 0


def test_parseval_identity():
    for n, L in [(101, 3), (1009, 5), (2048, 6)]:
        W = build_W(n, L)
        total = parseval_sum(n, W)
        assert total == pytest.approx(n * W.size, rel=1e-6)

