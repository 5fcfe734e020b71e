"""Fork/pickle safety: nothing unpicklable may flow into a process boundary.

The process cohort backend and the N-rank trainer ship work to child
processes over multiprocessing pipes; everything sent on one is pickled.  A
lambda reward hook, a generator of jobs, a function defined inside the
dispatching method or an open file handle does not pickle.  Sent on a pipe,
it fails at the first send.  Handed to ``Process(target=..., args=...)``, it
does not fail at all under ``fork``, which copies the arguments instead of
pickling them, and breaks only once a child is started with ``spawn``.  This
checker moves both to lint time.

Dispatch points (the pickle boundaries):

* ``pickle.dumps`` / ``pickle.dump`` calls anywhere,
* ``<queue>.put(...)`` / ``put_nowait(...)`` and ``<connection>.send(...)``
  / ``<pipe>.send(...)`` in modules that import ``multiprocessing`` (a
  thread-pool ``queue.Queue`` is not a pickle boundary, nor is a socket's
  ``send``, so modules without multiprocessing are exempt),
* ``multiprocessing.Process(target=..., args=...)`` construction.

Each argument expression flowing into a dispatch point is walked for
lambdas, generator expressions, names bound to nested ``def``s and names
bound to ``open(...)``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.analysis.core import Checker, FileContext, ImportResolver
from repro.analysis.findings import Finding

__all__ = ["PickleSafetyChecker"]

_PICKLE_CALLS = {"pickle.dumps", "pickle.dump"}


def _receiver_text(node: ast.AST) -> str:
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            break
        else:
            break
    return ".".join(reversed(parts))


class _FunctionBindings:
    """What the names local to one function are bound to, by unsafe kind."""

    def __init__(self, node: ast.AST, resolver: ImportResolver) -> None:
        self.kinds: Dict[str, str] = {}
        for stmt in ast.walk(node):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt is not node:
                self.kinds[stmt.name] = "pickle-local-function"
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                kind = self._value_kind(stmt.value, resolver)
                if kind is not None:
                    self.kinds[target.id] = kind

    @staticmethod
    def _value_kind(value: ast.AST, resolver: ImportResolver) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "pickle-lambda"
        if isinstance(value, ast.GeneratorExp):
            return "pickle-generator"
        if isinstance(value, ast.Call):
            dotted = resolver.dotted_name(value.func)
            if dotted == "open":
                return "pickle-open-handle"
        return None


_KIND_MESSAGES = {
    "pickle-lambda": "a lambda cannot be pickled across the process boundary",
    "pickle-generator": "a generator cannot be pickled across the process boundary",
    "pickle-local-function": (
        "a function defined inside the dispatching scope cannot be pickled "
        "(only module-level functions can)"
    ),
    "pickle-open-handle": (
        "an open file handle cannot be pickled; pass the path and reopen in the worker"
    ),
}


class PickleSafetyChecker(Checker):
    name = "pickle-safety"
    rules = {
        "pickle-lambda": "lambda flows into a process-boundary dispatch",
        "pickle-generator": "generator expression flows into a process-boundary dispatch",
        "pickle-local-function": "nested function flows into a process-boundary dispatch",
        "pickle-open-handle": "open file handle flows into a process-boundary dispatch",
    }

    def check(self, context: FileContext) -> List[Finding]:
        resolver = context.resolver
        uses_multiprocessing = any(
            dotted == "multiprocessing" or dotted.startswith("multiprocessing.")
            for dotted in resolver.aliases.values()
        )
        findings: List[Finding] = []

        for scope in ast.walk(context.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bindings = _FunctionBindings(scope, resolver)
            for node in ast.walk(scope):
                if not isinstance(node, ast.Call):
                    continue
                payloads = self._dispatch_payloads(node, resolver, uses_multiprocessing)
                if payloads is None:
                    continue
                for payload in payloads:
                    findings.extend(
                        self._scan_payload(context, payload, bindings)
                    )
        return findings

    @staticmethod
    def _dispatch_payloads(
        node: ast.Call, resolver: ImportResolver, uses_multiprocessing: bool
    ) -> Optional[List[ast.AST]]:
        """The argument expressions that get pickled, if this call dispatches."""
        dotted = resolver.dotted_name(node.func)
        if dotted in _PICKLE_CALLS:
            return list(node.args[:1])
        if isinstance(node.func, ast.Attribute) and uses_multiprocessing:
            receiver = _receiver_text(node.func.value).lower()
            if node.func.attr in ("put", "put_nowait") and "queue" in receiver:
                return list(node.args)
            if node.func.attr == "send" and ("conn" in receiver or "pipe" in receiver):
                return list(node.args)
        if dotted is not None and (
            dotted == "multiprocessing.Process" or dotted.endswith(".Process")
        ):
            payloads: List[ast.AST] = []
            for keyword in node.keywords:
                if keyword.arg in ("target", "args", "kwargs"):
                    payloads.append(keyword.value)
            return payloads or None
        return None

    def _scan_payload(
        self,
        context: FileContext,
        payload: ast.AST,
        bindings: _FunctionBindings,
    ) -> List[Finding]:
        findings: List[Finding] = []

        def emit(node: ast.AST, rule: str) -> None:
            findings.append(
                Finding(
                    context.path,
                    getattr(node, "lineno", 1),
                    rule,
                    "error",
                    f"process-boundary dispatch payload: {_KIND_MESSAGES[rule]}",
                )
            )

        for node in ast.walk(payload):
            if isinstance(node, ast.Lambda):
                emit(node, "pickle-lambda")
            elif isinstance(node, ast.GeneratorExp):
                emit(node, "pickle-generator")
            elif isinstance(node, ast.Name) and node.id in bindings.kinds:
                emit(node, bindings.kinds[node.id])
        return findings
