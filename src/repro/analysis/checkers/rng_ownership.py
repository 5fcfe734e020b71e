"""RNG stream ownership: job bodies consume streams, parents derive them.

The reproduction's cross-backend identity rests on one contract: randomness
used by a dispatched job (a ``pool.submit`` callable, a ``Thread``/``Process``
target, a done-callback) must be *derived in the parent* and passed in —
either as a generator from the ``repro.common.rng`` spawn tree
(``base.spawn((seed, index))`` per job) or, as trace jobs do, as a stream
key the job turns into its generator with ``RandomState.from_key(key)``,
which is a pure function of the key and so not a construction here.  A job
that builds its own generator otherwise either re-seeds ad hoc
(collision-prone, engine-dependent) or, worse, calls ``get_rng()`` and
silently draws from a *different process's* global stream.  And one
generator reaching two concurrent consumers makes draw order depend on
scheduling.

Both rules run on the whole-program engine: dispatch sites and the functions
reachable from their job bodies come from the call-graph fixpoint, so the
construction can hide any number of calls below the dispatched callable and
still be caught.

* ``rng-job-construction`` — a generator is constructed (or ``get_rng()``
  called) inside a function reachable from a dispatched job body.
* ``rng-shared-stream`` — one generator variable is passed at a dispatch
  site inside a loop without a per-iteration ``spawn``, or the same
  generator variable feeds two distinct dispatch sites: two concurrent
  consumers would share one stream.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Tuple

from repro.analysis.core import Checker, FileContext
from repro.analysis.findings import Finding
from repro.analysis.summaries import display_name

__all__ = ["RngOwnershipChecker"]

#: the sanctioned module: its own internals may construct raw generators
_SANCTIONED_MODULE = "repro.common.rng"


class RngOwnershipChecker(Checker):
    name = "rng-ownership"
    rules = {
        "rng-job-construction": "generator constructed inside a dispatched job body",
        "rng-shared-stream": "one generator reachable from two concurrent consumers",
    }

    def __init__(self) -> None:
        self._project = None

    def begin_project(self, project) -> None:
        self._project = project

    def check(self, context: FileContext) -> List[Finding]:
        return []

    def finalize(self) -> List[Finding]:
        if self._project is None:
            return []
        project = self._project
        summaries = project.summaries()
        graph = project.graph()
        findings: List[Finding] = []

        # ---- construction inside job bodies ------------------------------
        for qual, witness in sorted(graph.job_reachable.items()):
            summary = summaries.get(qual)
            if summary is None or summary.decl.module == _SANCTIONED_MODULE:
                continue
            for creation in summary.rng_creations:
                findings.append(
                    Finding(
                        summary.path,
                        creation.line,
                        "rng-job-construction",
                        "error",
                        f"`{creation.dotted}` constructed in "
                        f"{display_name(project, qual)}, which runs inside a "
                        f"dispatched job body ({witness}); derive a stream key in the "
                        "parent (rng.child_key((base, index))) and build the job's "
                        "generator with RandomState.from_key(key)",
                    )
                )

        # ---- one stream, several concurrent consumers --------------------
        # (function qual, rng var) -> dispatch lines it was passed at
        consumers: Dict[Tuple[str, str], List[int]] = {}
        for dispatch in graph.dispatches:
            summary = summaries[dispatch.caller]
            for name_node in _rng_args(dispatch.site.node):
                binding = summary.rng_locals.get(name_node.id)
                if binding is None:
                    continue
                key = (dispatch.caller, name_node.id)
                consumers.setdefault(key, []).append(dispatch.site.line)
                if dispatch.site.in_loop and not (binding.via == "spawn" and binding.in_loop):
                    findings.append(
                        Finding(
                            summary.path,
                            dispatch.site.line,
                            "rng-shared-stream",
                            "error",
                            f"`{name_node.id}` (bound at line {binding.line}) is passed "
                            "to a dispatch inside a loop, so every iteration's job "
                            "shares one stream; derive a per-job stream with "
                            "spawn((base, index)) inside the loop",
                        )
                    )
        for (caller, name), lines in sorted(consumers.items()):
            distinct = sorted(set(lines))
            if len(distinct) < 2:
                continue
            summary = summaries[caller]
            findings.append(
                Finding(
                    summary.path,
                    distinct[1],
                    "rng-shared-stream",
                    "error",
                    f"`{name}` is dispatched to concurrent consumers at lines "
                    f"{distinct}; two job bodies would share one generator — spawn "
                    "a child stream per dispatch instead",
                )
            )
        return findings


def _rng_args(node: ast.Call) -> List[ast.Name]:
    """Top-level Name arguments of a dispatch call (one level into tuples).

    Only *top-level* names count: inside ``base.spawn((seed, i))`` the
    receiver ``base`` is the parent stream being forked, not a payload.
    """
    names: List[ast.Name] = []
    values = list(node.args) + [kw.value for kw in node.keywords]
    flattened: List[ast.expr] = []
    for value in values:
        if isinstance(value, (ast.Tuple, ast.List)):
            flattened.extend(value.elts)
        else:
            flattened.append(value)
    for value in flattened:
        if isinstance(value, ast.Name):
            names.append(value)
    return names
