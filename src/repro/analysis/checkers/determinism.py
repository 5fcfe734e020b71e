"""Deterministic iteration: no order-sensitive walks over unordered sets.

Seed identity is an *ordering* property as much as an RNG property: draws,
cohort packing and job dispatch must happen in the same order on every run
and every backend.  ``set`` iteration order depends on element hashes and
insertion history — and for ``str`` keys, on ``PYTHONHASHSEED`` — so a hot
path that iterates a set feeds scheduling or draw order from a source that
changes between processes.  (``dict`` is insertion-ordered and fine.)

The checker tracks which local names and ``self._x`` attributes are bound to
sets (literals, ``set()``/``frozenset()`` calls, set comprehensions, unions
of sets) and flags order-*sensitive* consumption on hot-path modules:

* ``for`` loops and list comprehensions over a set-typed value;
* ``list(s)`` / ``tuple(s)`` / ``enumerate(s)`` conversions;
* ``s.pop()`` — removes an *arbitrary* element.

Order-insensitive consumption stays legal: ``sorted(s)`` is the sanctioned
fix, and membership tests, ``len``, set algebra, and generator expressions
feeding ``sum``/``min``/``max``/``any``/``all``/``set`` are not flagged.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.core import Checker, FileContext
from repro.analysis.findings import Finding

__all__ = ["DeterministicIterationChecker"]

#: directories whose modules are hot paths: draws and dispatch happen there
_HOT_PATH_FRAGMENTS = (
    "repro/ppl/",
    "repro/serving/",
    "repro/distributed/",
    "repro/data/",
    "repro/tensor/",
)

#: builtin conversions that freeze set order into a sequence
_ORDERING_CONVERSIONS = {"list", "tuple", "enumerate"}

#: aggregations for which iteration order does not matter
_ORDER_INSENSITIVE = {"sum", "min", "max", "any", "all", "len", "set", "frozenset", "sorted"}


class _SetTracker(ast.NodeVisitor):
    """One function (or module) scope: which names hold sets right now."""

    def __init__(self, checker: "_FileVisitor", set_attrs: Set[str]) -> None:
        self.checker = checker
        self.set_attrs = set_attrs  # self._x attributes known to hold sets
        self.set_names: Set[str] = set()

    # ------------------------------------------------------------ set typing
    def is_set_valued(self, node: Optional[ast.expr]) -> bool:
        if node is None:
            return False
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Attribute):
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.set_attrs
            )
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr in (
                "union", "intersection", "difference", "symmetric_difference", "copy",
            ):
                return self.is_set_valued(func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return self.is_set_valued(node.left) or self.is_set_valued(node.right)
        if isinstance(node, ast.IfExp):
            return self.is_set_valued(node.body) or self.is_set_valued(node.orelse)
        return False

    def _describe(self, node: ast.expr) -> str:
        if isinstance(node, ast.Name):
            return f"`{node.id}`"
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return f"`{node.value.id}.{node.attr}`"
        return "a set expression"

    # --------------------------------------------------------------- bindings
    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        is_set = self.is_set_valued(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self.set_names.add(target.id)
                else:
                    self.set_names.discard(target.id)
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                if is_set:
                    self.set_attrs.add(target.attr)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if isinstance(node.target, ast.Name):
            if self.is_set_valued(node.value):
                self.set_names.add(node.target.id)
            elif node.value is not None:
                self.set_names.discard(node.target.id)

    # ----------------------------------------------------- nested scopes stop
    def visit_FunctionDef(self, node) -> None:
        self.checker.walk_function(node, self.set_attrs)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # classes get their own per-method scopes from the file visitor

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    # ------------------------------------------------------------ consumption
    def visit_For(self, node) -> None:
        if self.is_set_valued(node.iter):
            self.checker.emit(
                node.iter,
                f"`for` iterates {self._describe(node.iter)}, a set: iteration "
                "order depends on hashes and PYTHONHASHSEED, so draw/dispatch "
                "order changes between runs; iterate sorted(...) instead",
            )
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_ListComp(self, node: ast.ListComp) -> None:
        for gen in node.generators:
            if self.is_set_valued(gen.iter):
                self.checker.emit(
                    gen.iter,
                    f"list comprehension over {self._describe(gen.iter)}, a set: "
                    "the resulting order is hash-dependent; use sorted(...)",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in _ORDERING_CONVERSIONS
            and node.args
            and self.is_set_valued(node.args[0])
        ):
            self.checker.emit(
                node,
                f"{func.id}() over {self._describe(node.args[0])}, a set, freezes "
                "a hash-dependent order into a sequence; use sorted(...)",
            )
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "pop"
            and not node.args
            and self.is_set_valued(func.value)
        ):
            self.checker.emit(
                node,
                f"{self._describe(func.value)}.pop() removes an arbitrary "
                "(hash-order) element from a set; pop from a sorted or "
                "insertion-ordered structure instead",
            )
        self.generic_visit(node)


class _FileVisitor:
    def __init__(self, checker: "DeterministicIterationChecker", context: FileContext) -> None:
        self.checker = checker
        self.context = context
        self.findings: List[Finding] = []

    def emit(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                self.context.path,
                getattr(node, "lineno", 1),
                "det-set-iteration",
                "error",
                message,
            )
        )

    def walk_function(self, node, set_attrs: Set[str]) -> None:
        tracker = _SetTracker(self, set_attrs)
        for stmt in node.body:
            tracker.visit(stmt)

    def run(self) -> List[Finding]:
        module_tracker = _SetTracker(self, set())
        for stmt in self.context.tree.body:
            if isinstance(stmt, ast.ClassDef):
                self._walk_class(stmt)
            else:
                module_tracker.visit(stmt)
        return self.findings

    def _walk_class(self, node: ast.ClassDef) -> None:
        # two passes: collect every `self._x = set()` first so methods other
        # than the one doing the assignment still see the attribute as a set
        set_attrs: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and isinstance(sub.value, (ast.Set, ast.SetComp)):
                targets = sub.targets
            elif (
                isinstance(sub, ast.Assign)
                and isinstance(sub.value, ast.Call)
                and isinstance(sub.value.func, ast.Name)
                and sub.value.func.id in ("set", "frozenset")
            ):
                targets = sub.targets
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    set_attrs.add(target.attr)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.walk_function(stmt, set(set_attrs))
            elif isinstance(stmt, ast.ClassDef):
                self._walk_class(stmt)


class DeterministicIterationChecker(Checker):
    name = "determinism"
    rules = {
        "det-set-iteration": "order-sensitive iteration over an unordered set on a hot path",
    }

    def check(self, context: FileContext) -> List[Finding]:
        if not context.in_scope(*_HOT_PATH_FRAGMENTS):
            return []
        return _FileVisitor(self, context).run()
