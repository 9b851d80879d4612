"""Acceptance suite: one test per criterion, each prints a PASS line.

The theory is asymptotic with unspecified absolute constants, so most
criteria are property checks with recorded empirical constants. Envelope
caps use the generous factor 16 so that implementation bugs fail loudly
while the lemmas themselves stay comfortably inside.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from circdom.baselines import (
    greedy_dominating,
    random_chord_set,
    random_dominating,
)
from circdom.construct import (
    all_representation_counts,
    build_W,
    construct_dominating,
    construct_universal_2dom,
    dom_size_envelope,
    exceptional_bound,
    suggest_universal2_constants,
)
from circdom.errors import HypothesisNotMet
from circdom.expsum import expsum_audit, parseval_sum
from circdom.graph import ChordSet, CirculantSpec
from circdom.verify import exact_gamma, gamma_lower_bound, is_dominating

from conftest import count_representations

ROOT = Path(__file__).resolve().parents[1]
GRID_SEED = 20260823
ENVELOPE_CAP = 16.0


# ---------------------------------------------------------------- grid runs

_grid_cache = {}


def correctness_grid():
    """500 randomized instances, n log-spaced in [16, 1e5], k in [1, 1000]."""
    if "rows" in _grid_cache:
        return _grid_cache["rows"], _grid_cache["elapsed"]
    rng = np.random.default_rng(GRID_SEED)
    rows = []
    t0 = time.perf_counter()
    for _ in range(500):
        n = int(round(math.exp(rng.uniform(math.log(16), math.log(10**5)))))
        n = max(n, 16)
        k = int(rng.integers(1, min(n - 1, 1000) + 1))
        S = random_chord_set(n, k, int(rng.integers(2**32)))
        rep = construct_dominating(CirculantSpec(n, S))
        rows.append(rep)
    elapsed = time.perf_counter() - t0
    _grid_cache["rows"] = rows
    _grid_cache["elapsed"] = elapsed
    return rows, elapsed


def test_criterion_1_correctness():
    rows, elapsed = correctness_grid()
    verified = sum(r.verified for r in rows)
    assert verified == 500
    assert elapsed < 300.0, f"grid took {elapsed:.1f}s, budget 300s"
    print(f"\nACCEPTANCE 1 PASS: 500/500 dominating, {elapsed:.1f}s total")


def test_criterion_2_cardinality_equality():
    n_values = [101, 211, 401, 809, 1009, 2003, 4001, 5003, 7919, 10007,
                12289, 16001]
    l_values = [2, 3, 4, 5, 6, 8, 10, 12]
    checked = 0
    for n in n_values:
        for L in l_values:
            if 4 * L * L >= n:
                continue
            W = build_W(n, L)
            assert W.size == L * len(W.window), (n, L)
            checked += 1
    assert checked >= 50
    print(f"\nACCEPTANCE 2 PASS: |W| = L*|window| exact on {checked} pairs")


def test_criterion_3_size_envelope():
    rows, _ = correctness_grid()
    worst = 0.0
    for r in rows:
        ratio = r.size / dom_size_envelope(r.n, r.k)
        worst = max(worst, ratio)
        assert ratio <= ENVELOPE_CAP, (r.n, r.k, ratio)
        assert r.size >= r.n / (r.k + 1)
    print(f"\nACCEPTANCE 3 PASS: max size/envelope ratio = {worst:.4f}")


def test_criterion_4_exceptional_envelope():
    rows, _ = correctness_grid()
    worst = 0.0
    for r in rows:
        p = r.parameters
        bound = exceptional_bound(r.n, r.k, p["num_primes"])
        ratio = p["u_size"] / bound
        worst = max(worst, ratio)
        assert ratio <= ENVELOPE_CAP, (r.n, r.k, ratio)
    print(f"\nACCEPTANCE 4 PASS: max |U|/bound ratio = {worst:.4f}")


def test_criterion_5_expsum_audit():
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for n in [257, 521, 1031, 2053, 4099, 6143, 8191, 10007, 12289,
              16381, 16384]:
        base = max(2, math.ceil(n**0.25))
        for L in (base, 2 * base):
            audit = expsum_audit(n, L)
            assert audit.ratio <= ENVELOPE_CAP, (n, L, audit.ratio)
            worst = max(worst, audit.ratio)
            W = build_W(n, L)
            total = parseval_sum(n, W)
            assert abs(total - n * W.size) <= 1e-6 * n * W.size, (n, L)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 5 PASS: {checked} audits, max ratio {worst:.4f}, "
          f"Parseval ok, {elapsed:.1f}s")


def test_criterion_6_universal_2dom():
    n, k = 10**4, 2000
    try:
        W = construct_universal_2dom(n, k, c=1.0, C=1.0, c0=1.0)
        constants = {"c": 1.0, "C": 1.0, "c0": 1.0}
    except HypothesisNotMet:
        # defaults infeasible at this scale; use the audited constants
        sugg = suggest_universal2_constants(n, k)
        constants = {"c": sugg.c_max, "C": sugg.C_max, "c0": sugg.c0_max / 2}
        W = construct_universal_2dom(n, k, **constants)
    min_nu_overall = None
    for trial in range(50):
        S = random_chord_set(n, k, seed=1000 + trial)
        spec = CirculantSpec(n, S)
        dominated, _ = is_dominating(spec, W.elements, 2)
        assert dominated, trial
        counts = all_representation_counts(n, S, W)
        min_nu = int(counts.min())
        assert min_nu > 0, trial
        min_nu_overall = min_nu if min_nu_overall is None else min(
            min_nu_overall, min_nu)
        if trial == 0:  # dual-route spot check of the counting
            for u in (0, 1, n // 2, n - 1):
                assert counts[u] == count_representations(n, S, W, u)
    print(f"\nACCEPTANCE 6 PASS: one W 2-dominates 50/50 chord sets, "
          f"min N(u) = {min_nu_overall}, constants {constants}")


def _small_instances():
    rng = np.random.default_rng(GRID_SEED + 7)
    out = []
    for _ in range(200):
        n = int(rng.integers(2, 19))
        k = int(rng.integers(1, n))
        out.append((n, random_chord_set(n, k, int(rng.integers(2**32)))))
    return out


def test_criterion_7_oracle_dominance():
    instances = _small_instances()
    for n, S in instances:
        spec = CirculantSpec(n, S)
        gamma = exact_gamma(spec)
        assert gamma >= n / (S.k + 1)  # closed-neighborhood counting bound
        sizes = [greedy_dominating(spec).size,
                 random_dominating(spec, seed=n).size]
        if n >= 16:
            sizes.append(construct_dominating(spec).size)
        assert all(gamma <= s for s in sizes), (n, S.chords)
    cycle9 = CirculantSpec(9, ChordSet(9, (1, 8)))
    assert exact_gamma(cycle9) == 3
    print("\nACCEPTANCE 7 PASS: exact gamma <= every method on 200 "
          "instances; gamma(C_9({1,8})) = 3")


@pytest.mark.xfail(
    strict=True,
    reason="The stated clause exact_gamma >= n/k - 1 contradicts the "
    "self-coverage convention the rest of the build mandates: with closed "
    "neighborhoods the sharp counting bound is n/(k+1), and the required "
    "gamma(C_9({1,8})) = 3 itself violates 9/2 - 1 = 3.5. The n/k - 1 form "
    "presumes open-neighborhood domination.",
)
def test_criterion_7_lower_bound_as_stated():
    instances = _small_instances()
    cycle9 = CirculantSpec(9, ChordSet(9, (1, 8)))
    assert exact_gamma(cycle9) >= gamma_lower_bound(9, 2)
    for n, S in instances:
        assert exact_gamma(CirculantSpec(n, S)) >= gamma_lower_bound(n, S.k)


def test_criterion_8_scaling():
    k = 100
    ns = [12500, 25000, 50000, 100000]
    # warm-up so first-touch allocation noise stays out of the medians
    construct_dominating(
        CirculantSpec(ns[0], random_chord_set(ns[0], k, 0)))
    # round-robin over the 20 (n, seed) instances, best of 5 per instance,
    # so a slow phase of the host hits every n alike instead of one n
    specs = {(n, seed): CirculantSpec(n, random_chord_set(n, k, seed))
             for n in ns for seed in range(5)}
    best = dict.fromkeys(specs, math.inf)
    for _ in range(5):
        for key, spec in specs.items():
            rep = construct_dominating(spec)
            assert rep.verified
            best[key] = min(best[key], rep.wall_ms)
    medians = [statistics.median(best[n, seed] for seed in range(5))
               for n in ns]
    factors = [medians[i + 1] / medians[i] for i in range(len(ns) - 1)]
    assert all(f <= 2.5 for f in factors), (medians, factors)
    csv_path = ROOT / "artifacts" / "bench_scaling.csv"
    assert csv_path.exists(), "committed bench artifact missing"
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("n,k,method,seed,size,wall_ms,verified")
    print(f"\nACCEPTANCE 8 PASS: median wall ms {medians}, "
          f"doubling factors {[round(f, 2) for f in factors]}")


def _run_cli(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "circdom", *args],
        capture_output=True, text=True, env=env,
    )


def test_criterion_9_determinism():
    construct_args = ("construct", "--n", "5000", "--random-chords", "60",
                      "--seed", "9", "--method", "paper", "--no-timing")
    audit_args = ("audit", "--check", "card", "--n-list", "1009,4001",
                  "--l-list", "3,7")
    bench_args = ("bench", "--n-list", "1000,2000", "--k-list", "25",
                  "--methods", "paper,greedy,random", "--seeds", "3,4",
                  "--no-timing")
    for args in (construct_args, audit_args, bench_args):
        a = _run_cli(*args)
        b = _run_cli(*args)
        assert a.returncode == b.returncode == 0, (args, a.stderr)
        assert a.stdout == b.stdout, args
    doc = json.loads(_run_cli(*construct_args).stdout)
    assert doc["verified"] is True
    print("\nACCEPTANCE 9 PASS: byte-identical JSON/CSV across reruns")
