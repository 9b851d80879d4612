"""Small dominating sets in circulant graphs.

Constructions based on modular-ratio sets, exact verification oracles,
greedy/random baselines, exponential-sum audits, and a CLI harness.
"""

from .baselines import greedy_dominating, random_chord_set, random_dominating
from .construct import (
    DominationReport,
    WSet,
    almost_dominating_W,
    all_representation_counts,
    build_W,
    construct_dominating,
    construct_universal_2dom,
    exceptional_set,
    solve_lambda,
    suggest_universal2_constants,
)
from .expsum import ExpSumAudit, exp_sum_W, expsum_audit
from .graph import (
    ChordSet,
    CirculantSpec,
    VertexSet,
    coverage,
    load_chord_file,
)
from .primes import primes_in_window
from .verify import exact_gamma, gamma_lower_bound, is_dominating

__version__ = "0.1.0"

__all__ = [
    "ChordSet",
    "CirculantSpec",
    "DominationReport",
    "ExpSumAudit",
    "VertexSet",
    "WSet",
    "__version__",
    "almost_dominating_W",
    "all_representation_counts",
    "build_W",
    "construct_dominating",
    "construct_universal_2dom",
    "coverage",
    "exact_gamma",
    "exceptional_set",
    "exp_sum_W",
    "expsum_audit",
    "gamma_lower_bound",
    "greedy_dominating",
    "is_dominating",
    "load_chord_file",
    "primes_in_window",
    "random_chord_set",
    "random_dominating",
    "solve_lambda",
    "suggest_universal2_constants",
]
