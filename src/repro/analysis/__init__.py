"""repro.analysis — AST invariant linter for the reproduction's load-bearing rules.

Run it as ``python -m repro.analysis [paths]``.  Six checkers guard the
invariants previous PRs fixed by hand: RNG discipline (no hidden global
stream, no ad hoc or wall-clock seed), interprocedural lock discipline,
deterministic iteration on hot paths, the batched contract's parameter
names, fork/pickle safety of process payloads, and plan immutability.  A rule
stays only while some violation of it at a real site passes every tier-1
test and still draws a finding.

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
