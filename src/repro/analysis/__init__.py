"""repro.analysis — AST invariant linter for the reproduction's load-bearing rules.

Run it as ``python -m repro.analysis [paths]``.  Four checkers guard the
invariants previous PRs fixed by hand: RNG stream discipline (PR 3's
seed-collision class), lock discipline in the serving tier, the batched
``(B, ...)`` shape contracts, and fork/pickle safety of the process backend.

Findings carry a stable five-key schema (file, line, rule, severity,
message).  The gate has one way to pass: no finding at or above the gating
severity; a true finding is fixed, not accepted.
"""

from repro.analysis.findings import Finding, SCHEMA_KEYS, SEVERITIES
from repro.analysis.core import Checker, FileContext, ImportResolver, run_analysis
from repro.analysis.checkers import all_checkers

__all__ = [
    "Finding",
    "SCHEMA_KEYS",
    "SEVERITIES",
    "Checker",
    "FileContext",
    "ImportResolver",
    "run_analysis",
    "all_checkers",
]
