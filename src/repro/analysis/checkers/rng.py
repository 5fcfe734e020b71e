"""RNG discipline: every stochastic draw must flow through ``repro.common.rng``.

The reproduction's end-to-end determinism (seeded posteriors bit-identical
across engines, backends and cohort packings) rests on one rule: randomness
is derived from :class:`repro.common.rng.RandomState` streams, whose
children are *mixed* (``spawn`` with tuple entropy keys), never drawn from a
hidden global stream or seeded ad hoc:

* ``rng-module-call`` — ``np.random.rand()`` et al. mutate numpy's hidden
  process-global stream, invisible to ``seed_all``.
* ``rng-direct-construction`` — ``np.random.default_rng(...)`` /
  ``SeedSequence(...)`` outside ``repro/common/rng.py`` bypasses the one
  sanctioned derivation point (and is where additive-seed collisions breed).
* ``rng-stdlib-random`` — stdlib ``random`` is a second hidden global stream.
* ``rng-time-entropy`` — wall-clock-seeded streams are unreproducible by
  construction.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.core import Checker, FileContext, ImportResolver
from repro.analysis.findings import Finding

__all__ = ["RngDisciplineChecker"]

#: the sanctioned home of raw generator construction
ALLOWED_FILE = "repro/common/rng.py"

#: generator/seed constructors (flagged as construction, not as stateful calls)
_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.RandomState",
    "numpy.random.PCG64",
    "numpy.random.MT19937",
    "numpy.random.Philox",
    "numpy.random.SFC64",
}

#: wall-clock sources that must never feed a seed
_TIME_SOURCES = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
}

#: call targets whose arguments are seed entropy
_SEEDING_TARGETS = {
    "repro.common.rng.RandomState",
    "repro.common.rng.seed_all",
    "numpy.random.default_rng",
    "numpy.random.SeedSequence",
    "numpy.random.RandomState",
    "numpy.random.seed",
}


class _RngVisitor(ast.NodeVisitor):
    def __init__(self, context: FileContext, resolver: ImportResolver) -> None:
        self.context = context
        self.resolver = resolver
        self.findings: List[Finding] = []
        self._in_sanctioned_file = context.in_scope(ALLOWED_FILE)
        self._in_test_scope = context.in_test_scope()

    def _emit(self, node: ast.AST, rule: str, message: str, severity: str = "error") -> None:
        self.findings.append(
            Finding(self.context.path, getattr(node, "lineno", 1), rule, severity, message)
        )

    # ---------------------------------------------------------------- imports
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self._emit(
                    node,
                    "rng-stdlib-random",
                    "stdlib `random` is a hidden process-global stream invisible to "
                    "seed_all; draw through repro.common.rng instead",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random" and not node.level:
            self._emit(
                node,
                "rng-stdlib-random",
                "stdlib `random` is a hidden process-global stream invisible to "
                "seed_all; draw through repro.common.rng instead",
            )
        self.generic_visit(node)

    # ------------------------------------------------------------------ calls
    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.resolver.dotted_name(node.func)
        if dotted is not None:
            self._check_call(node, dotted)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, dotted: str) -> None:
        if dotted in _SEEDING_TARGETS or dotted.endswith((".reseed", ".spawn")):
            self._check_time_entropy(node, dotted)
        if self._in_sanctioned_file:
            return
        if dotted in _CONSTRUCTORS:
            if self._in_test_scope and (node.args or node.keywords):
                return  # tests/benchmarks may build explicitly-seeded generators
            if self._in_test_scope:
                self._emit(
                    node,
                    "rng-direct-construction",
                    f"seedless `{dotted}` in a test/benchmark draws OS entropy, so "
                    "the run is unrepeatable; pass an explicit seed",
                )
                return
            self._emit(
                node,
                "rng-direct-construction",
                f"`{dotted}` constructed outside repro/common/rng.py; derive streams "
                "via repro.common.rng.RandomState / .spawn (mixed entropy keys) so "
                "they stay reproducible and collision-free",
            )
            return
        if dotted.startswith("numpy.random.") and "." not in dotted[len("numpy.random."):]:
            self._emit(
                node,
                "rng-module-call",
                f"`{dotted}` draws from numpy's hidden process-global stream; "
                "use a repro.common.rng.RandomState stream instead",
            )

    def _check_time_entropy(self, node: ast.Call, dotted: str) -> None:
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Call):
                    source = self.resolver.dotted_name(sub.func)
                    if source in _TIME_SOURCES:
                        self._emit(
                            sub,
                            "rng-time-entropy",
                            f"`{source}()` used as seed entropy for `{dotted}`; "
                            "wall-clock seeds are unreproducible — derive from a "
                            "seeded RandomState instead",
                        )


class RngDisciplineChecker(Checker):
    name = "rng-discipline"
    rules = {
        "rng-module-call": "np.random.* stateful module-level call outside repro/common/rng.py",
        "rng-direct-construction": "generator/seed constructed outside repro/common/rng.py",
        "rng-stdlib-random": "stdlib `random` imported (second hidden global stream)",
        "rng-time-entropy": "wall-clock time used as seed entropy",
    }

    def check(self, context: FileContext) -> List[Finding]:
        visitor = _RngVisitor(context, context.resolver)
        visitor.visit(context.tree)
        return visitor.findings
