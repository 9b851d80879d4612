"""Command-line surface: construct | audit | bench | gamma.

JSON for single reports, CSV for sweeps. All science parameters are
explicit flags; the only environment knob is CIRCDOM_OUT_DIR, which
prefixes relative --out paths. main parses with one parser, built on
its first call and reused for the rest of the process. Each cmd_*
returns (text, exit code: 0 verified or passed, 1 not); main alone
range-checks n, L, r, --trials and the theorem constants --c, --C, --c0
and --psi, rejects a grid with no points, an unknown bench method, an
audit or construct flag the check or method does not read and
--symmetric without --random-chords, writes the text and maps errors:
HypothesisNotMet exits 2 with "HypothesisNotMet: msg", any other
CircdomError, OSError or ValueError exits 1 with "error: Name: msg".
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import sys
import time
from pathlib import Path

from . import construct as cons
from .baselines import greedy_dominating, random_chord_set, random_dominating
from .construct import DominationReport
from .errors import CircdomError, EmptyPrimeWindow, HypothesisNotMet, TooLarge
from .expsum import FFT_TOL_PER_ELEMENT, expsum_audit
from .graph import ChordSet, CirculantSpec, load_chord_file
from .verify import EXACT_GAMMA_MAX_N, exact_gamma, is_dominating

UNCOVERED_SAMPLE_CAP = 1000
# Largest --n / --n-list / --l-list value accepted, checked before anything
# is allocated (the smallest n is 2, the smallest circulant graph).
MAX_N = 2**24

METHODS = ("paper", "greedy", "random", "universal2", "almost-w")
# The audit and construct flags only some checks or methods read, with
# their defaults, and the ones each method reads (each check's are in
# AUDITS); main rejects a flag given to a check or method that ignores it.
DEFAULTS = {
    "audit": {"l_list": [], "k_list": [], "trials": 1, "seed": 0,
              "c": 1.0, "C": 1.0, "c0": 1.0},
    "construct": {"psi": 1.0, "c": 1.0, "C": 1.0, "c0": 1.0},
}
METHOD_READS = {"universal2": ("c", "C", "c0"), "almost-w": ("psi",)}

BENCH_COLUMNS = [
    "n", "k", "method", "seed", "size", "wall_ms", "verified",
    "L", "w_size", "u_size", "ratio_vs_envelope", "error",
]


def _resolve_out(path: str | None):
    if path is None or path == "-":
        return None
    p = Path(path)
    base = os.environ.get("CIRCDOM_OUT_DIR")
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text, encoding="utf-8")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def report_to_dict(rep: DominationReport, no_timing: bool = False) -> dict:
    """The construct record: rep's fields before D, its last, with wall_ms
    rounded to 3 places, or 0.0 under no_timing."""
    doc = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)[:-1]}
    doc["wall_ms"] = 0.0 if no_timing else round(rep.wall_ms, 3)
    return doc


def _chords_from_args(args) -> ChordSet:
    if (args.chords_file is None) == (args.random_chords is None):
        raise CircdomError(
            "exactly one of --chords-file or --random-chords is required"
        )
    if args.chords_file is not None:
        return load_chord_file(args.chords_file, args.n)
    if args.seed is None:
        raise CircdomError("--random-chords requires --seed")
    return random_chord_set(
        args.n, args.random_chords, args.seed, symmetric=args.symmetric
    )


def _universal2_W(n: int, k: int, c: float, C: float, c0: float,
                  fallback: bool):
    """(W, the constants (c, C, c0) it was built with, the suggestion they
    came from or None): construct_universal_2dom at (c, C, c0), or, with
    fallback, if that raises HypothesisNotMet (c = C = c0 = 1 do at every
    desk-scale n), at c_max, C_max and c0_max / 2 from
    suggest_universal2_constants."""
    try:
        W = cons.construct_universal_2dom(n, k, c=c, C=C, c0=c0)
        return W, (c, C, c0), None
    except HypothesisNotMet:
        if not fallback:
            raise
    sugg = cons.suggest_universal2_constants(n, k)
    c, C, c0 = sugg.c_max, sugg.C_max, sugg.c0_max / 2
    W = cons.construct_universal_2dom(n, k, c=c, C=C, c0=c0)
    return W, (c, C, c0), sugg


def _run_method(method: str, spec: CirculantSpec, seed: int | None,
                c: float, C: float, c0: float, psi: float,
                fallback: bool = False) -> DominationReport:
    """One method's report; universal2 takes the fallback constants of
    _universal2_W if fallback is set."""
    n, k = spec.n, spec.k
    if method == "paper":
        return cons.construct_dominating(spec)
    if method == "greedy":
        return greedy_dominating(spec)
    if method == "random":
        return random_dominating(spec, seed or 0)
    t0 = time.perf_counter()
    if method == "universal2":
        W, (c, C, c0), _ = _universal2_W(n, k, c, C, c0, fallback)
        name, r, extra = "universal2", 2, {"c": c, "C": C, "c0": c0}
    else:  # method "almost-w"
        W = cons.almost_dominating_W(n, k, psi=psi)
        name, r, extra = "almostW", 1, {
            "psi": psi, "budget": cons.almost_budget(n, k, psi)}
    return cons.report(name, spec, W.elements, r, t0, {
        "L": W.L, "num_primes": len(W.window), "w_size": W.size, **extra,
    })


def cmd_construct(args) -> tuple[str, int]:
    spec = CirculantSpec(args.n, _chords_from_args(args))
    rep = _run_method(args.method, spec, args.seed, c=args.c, C=args.C,
                      c0=args.c0, psi=args.psi)
    if rep.seed is None:
        rep.seed = args.seed
    verified, uncov = is_dominating(spec, rep.D, args.r)
    rep.r, rep.verified, rep.uncovered_count = args.r, verified, uncov.size
    if rep.method == "almostW":  # the share covered at --r
        rep.parameters["coverage_fraction"] = 1.0 - uncov.size / spec.n
    rep.uncovered_sample = uncov.indices()[:UNCOVERED_SAMPLE_CAP].tolist()
    doc = report_to_dict(rep, no_timing=args.no_timing)
    # almostW's contract is the size budget, not full domination
    return json.dumps(doc) + "\n", int(not verified and rep.method != "almostW")


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _name_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _audit_card(args, n: int, L: int):
    W = cons.build_W(n, L)
    expected = L * len(W.window)
    hyp = W.card_hypothesis_ok
    exact = W.size == expected
    yield {
        "check": "card", "n": n, "L": L,
        "num_primes": len(W.window), "w_size": W.size,
        "expected": expected, "hypothesis_ok": hyp, "exact": exact,
    }, exact or not hyp


def _audit_expsum(args, n: int, L: int):
    audit = expsum_audit(n, L)
    yield ({"check": "expsum", **dataclasses.asdict(audit)},
           audit.direct_check_err <= FFT_TOL_PER_ELEMENT * audit.w_size)


def _audit_exceptional(args, n: int, k: int):
    W = cons.build_W(n, math.ceil(cons.solve_lambda(n, k)))
    bound = cons.exceptional_bound(n, k, len(W.window))
    for trial in range(args.trials):
        seed = args.seed + trial
        U = cons.exceptional_set(n, random_chord_set(n, k, seed), W)
        yield {
            "check": "exceptional", "n": n, "k": k, "trial": trial,
            "seed": seed, "L": W.L, "num_primes": len(W.window),
            "u_size": U.size, "bound": bound, "ratio": U.size / bound,
        }, True


def _audit_nu(args, n: int, k: int):
    try:
        W, (c, C, c0), used = _universal2_W(n, k, args.c, args.C, args.c0,
                                            fallback=True)
    except EmptyPrimeWindow as exc:  # no W, so nothing 2-dominates
        yield {"check": "nu", "n": n, "k": k,
               "error": type(exc).__name__}, False
        return
    sugg = used or cons.suggest_universal2_constants(n, k)
    for trial in range(args.trials):
        seed = args.seed + trial
        S = random_chord_set(n, k, seed)
        counts = cons.all_representation_counts(n, S, W)
        min_nu = int(counts.min())
        dominated, _ = is_dominating(CirculantSpec(n, S), W.elements, 2)
        yield {
            "check": "nu", "n": n, "k": k, "trial": trial,
            "seed": seed, "L": W.L, "w_size": W.size,
            "min_nu": min_nu, "two_dominates": dominated,
            "used_fallback_constants": used is not None,
            "c": c, "C": C, "c0": c0, **dataclasses.asdict(sugg),
        }, min_nu > 0 and dominated


# Each check's (line, passed) generator over one grid point (args, n, x),
# and the flags of DEFAULTS["audit"] it reads: the first is x's axis.
AUDITS = {
    "card": (_audit_card, ("l_list",)),
    "expsum": (_audit_expsum, ("l_list",)),
    "exceptional": (_audit_exceptional, ("k_list", "trials", "seed")),
    "nu": (_audit_nu, ("k_list", "trials", "seed", "c", "C", "c0")),
}


def cmd_audit(args) -> tuple[str, int]:
    check, reads = AUDITS[args.check]
    results = [result for n in args.n_list for x in getattr(args, reads[0])
               for result in check(args, n, x)]
    text = "".join(json.dumps(line) + "\n" for line, _ in results)
    return text, int(not all(passed for _, passed in results))


def _bench_row(n: int, k: int, method: str, seed: int,
               no_timing: bool) -> dict:
    """One CSV row: the construct record and its parameters, with n, k,
    method and seed as given, or those four and the error; absent cells
    are empty."""
    record = {"n": n, "k": k, "method": method, "seed": seed}
    try:
        spec = CirculantSpec(n, random_chord_set(n, k, seed))
        rep = _run_method(method, spec, seed, **DEFAULTS["construct"],
                          fallback=True)
        doc = report_to_dict(rep, no_timing=no_timing)
        record = {**doc["parameters"], **doc, **record}
        if n >= cons.MIN_N:  # no envelope below the scale floor
            record["ratio_vs_envelope"] = (
                doc["size"] / cons.dom_size_envelope(n, k))
    except (CircdomError, ValueError) as exc:
        record["error"] = _describe(exc)
    return {c: record.get(c, "") for c in BENCH_COLUMNS}


def cmd_bench(args) -> tuple[str, int]:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS, lineterminator="\n")
    writer.writeheader()
    # one row at a time in grid order, so no two rows share the cores
    for n, k, method, seed in itertools.product(
            args.n_list, args.k_list, args.methods, args.seeds):
        writer.writerow(_bench_row(n, k, method, seed, args.no_timing))
    return buf.getvalue(), 0


def cmd_gamma(args) -> tuple[str, int]:
    spec = CirculantSpec(args.n, _chords_from_args(args))
    doc = {
        "n": args.n,
        "k": spec.k,
        "gamma": exact_gamma(spec),
        # each vertex covers at most k + 1: gamma >= ceil(n / (k + 1))
        "lower_bound": -(-args.n // (spec.k + 1)),
        "lower_bound_n_over_k_plus_1": args.n / (spec.k + 1),
    }
    return json.dumps(doc) + "\n", 0


def _add_chord_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--chords-file", type=str, default=None)
    p.add_argument("--random-chords", type=int, default=None, metavar="K")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--symmetric", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    """The circdom parser, with every command's subparser."""
    parser = argparse.ArgumentParser(
        prog="circdom",
        description="Dominating sets in circulant graphs: construct, audit, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build and verify a dominating set")
    _add_chord_flags(p)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--r", type=int, default=1)
    # flags left out stay unset, so main can tell them from given ones
    p.add_argument("--c", type=float, default=argparse.SUPPRESS)
    p.add_argument("--C", type=float, default=argparse.SUPPRESS)
    p.add_argument("--c0", type=float, default=argparse.SUPPRESS)
    p.add_argument("--psi", type=float, default=argparse.SUPPRESS)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--no-timing", action="store_true",
                   help="write wall_ms as 0.0 for byte-reproducible output")

    # flags left out stay unset, so main can tell them from given ones
    p = sub.add_parser("audit",
                       help="numerical audits of the supporting lemmas",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--check", required=True, choices=list(AUDITS))
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--l-list", type=_int_list)
    p.add_argument("--k-list", type=_int_list)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--C", type=float)
    p.add_argument("--c0", type=float)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("bench", help="CSV sweep over (n, k, method, seed)")
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--k-list", type=_int_list, required=True)
    p.add_argument("--methods", type=_name_list, default=["paper"])
    p.add_argument("--seeds", type=_int_list, default=[0])
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--no-timing", action="store_true")

    p = sub.add_parser(
        "gamma", help=f"exact domination number (n <= {EXACT_GAMMA_MAX_N})")
    _add_chord_flags(p)
    p.add_argument("--out", type=str, default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on first use: parse_args keeps no state
    between calls, and importing the module builds nothing."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(sys.argv[1:] if argv is None else argv)
    swept = ("n_list", "k_list", "seeds", "methods")  # a grid's axes
    try:
        if args.command == "audit":
            chooser, reads = f"--check {args.check}", AUDITS[args.check][1]
            swept = ("n_list", reads[0])
        else:
            method = getattr(args, "method", None)
            chooser, reads = f"--method {method}", METHOD_READS.get(method, ())
        for name, default in DEFAULTS.get(args.command, {}).items():
            if not hasattr(args, name):
                setattr(args, name, default)
            elif name not in reads:
                raise ValueError(f"{_flag(name)} is not read by {chooser}")
        if getattr(args, "symmetric", False) and args.random_chords is None:
            raise ValueError("--symmetric is not read without --random-chords")
        for name in swept:
            if not getattr(args, name, True):
                raise ValueError(f"{_flag(name)} is empty")
        for method in getattr(args, "methods", []):
            if method not in METHODS:
                raise ValueError(f"--methods: unknown method {method!r}; "
                                 f"choose from {', '.join(METHODS)}")
        if getattr(args, "trials", 1) < 1:
            raise ValueError(f"--trials={args.trials} is below 1")
        for name in ("c", "C", "c0", "psi"):
            value = getattr(args, name, 1.0)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{_flag(name)}={value} is not a positive finite number")
        if getattr(args, "r", 1) < 1:
            raise ValueError("r must be >= 1")
        for n in args.n_list if hasattr(args, "n_list") else [args.n]:
            if n > MAX_N:
                raise TooLarge(f"n={n} exceeds MAX_N={MAX_N}")
            if n < 2:
                raise ValueError(f"n={n} is below 2")
        for L in getattr(args, "l_list", []):
            if L > MAX_N:
                raise TooLarge(f"L={L} exceeds MAX_N={MAX_N}")
            if L < 1:
                raise ValueError("L must be >= 1")
        # looked up per call: the parser outlives any rebinding of a cmd_*
        text, code = globals()[f"cmd_{args.command}"](args)
        _emit(text, _resolve_out(args.out))
    except HypothesisNotMet as exc:
        print(_describe(exc), file=sys.stderr)
        return 2
    except (CircdomError, OSError, ValueError) as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
