"""The whole-program model: modules, re-exports, classes, attribute types.

One :class:`Project` is built per analysis run, from every parsed file, and
shared by all checkers.  It answers the questions the interprocedural passes
ask constantly:

* **name resolution** — what does the dotted name ``repro.serving.
  CohortWorkerPool`` *canonically* refer to?  (:meth:`Project.canonicalize`
  follows re-export chains through ``__init__.py`` bindings to
  ``repro.serving.workers.CohortWorkerPool``.)
* **class structure** — which classes exist, what are their (canonical)
  bases, which methods does each one see through its hierarchy, which
  ``self.<attr>`` bindings are locks / condition aliases of locks?
* **attribute types** — ``self.workers = ProcessCohortPool(...)`` in one
  branch and ``CohortWorkerPool(...)`` in another makes ``self.workers`` a
  union type; method calls through the attribute dispatch to both.

The model is deliberately flow-insensitive and alias-light: this repo's
style (attributes assigned in ``__init__``, classes named at construction
sites) makes that approximation precise enough for the lock checker, and
keeps a whole-repo build well inside the CI runtime budget.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import FileContext

__all__ = ["ClassModel", "FunctionDecl", "ModuleModel", "Project"]

#: threading primitives that guard a ``with`` scope
LOCK_TYPES = {"threading.Lock", "threading.RLock", "threading.Condition"}


@dataclass
class FunctionDecl:
    """One function or method definition site."""

    qualname: str
    module: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    cls: Optional[str] = None  # owning class qualname, if a method
    nested_in: Optional[str] = None  # enclosing function qualname, if nested

    @property
    def params(self) -> List[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        return names


@dataclass
class ClassModel:
    """One class definition plus the lock/type facts checkers need."""

    qualname: str
    name: str
    module: str
    file: str
    node: ast.ClassDef
    base_names: List[str] = field(default_factory=list)  # canonical, best effort
    method_quals: Dict[str, str] = field(default_factory=dict)  # name -> qualname
    lock_attrs: Set[str] = field(default_factory=set)
    cond_aliases: Dict[str, str] = field(default_factory=dict)  # condition attr -> wrapped lock
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)  # attr -> class qualnames
    #: attrs assigned from a __init__ parameter: attr -> parameter name
    attr_from_param: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleModel:
    name: str
    context: FileContext
    #: top-level name -> dotted target (imports re-exported, local defs)
    bindings: Dict[str, str] = field(default_factory=dict)
    lock_globals: Set[str] = field(default_factory=set)  # module-level lock names


class Project:
    """Everything the interprocedural passes know about the analysed tree."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.contexts = list(contexts)
        self.modules: Dict[str, ModuleModel] = {}
        self.classes: Dict[str, ClassModel] = {}
        self.functions: Dict[str, FunctionDecl] = {}
        for context in self.contexts:
            self._index_module(context)
        self._resolve_bases()
        self._infer_attr_types()
        # Built lazily (some runs never need summaries — e.g. --list-rules).
        self._summaries = None
        self._graph = None

    # ------------------------------------------------------------------ build
    def _index_module(self, context: FileContext) -> None:
        module = ModuleModel(context.module, context)
        self.modules[module.name] = module
        resolver = context.resolver
        for name, target in resolver.aliases.items():
            module.bindings[name] = target
        for stmt in context.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{module.name}.{stmt.name}"
                module.bindings[stmt.name] = qual
                self._index_function(stmt, module.name, qual, cls=None, nested_in=None)
            elif isinstance(stmt, ast.ClassDef):
                qual = f"{module.name}.{stmt.name}"
                module.bindings[stmt.name] = qual
                self._index_class(stmt, context, qual)
            elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
                dotted = resolver.dotted_name(stmt.value.func)
                if dotted in LOCK_TYPES:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            module.lock_globals.add(target.id)

    def _index_function(
        self,
        node,
        module: str,
        qualname: str,
        cls: Optional[str],
        nested_in: Optional[str],
    ) -> None:
        decl = FunctionDecl(qualname, module, node.name, node, cls=cls, nested_in=nested_in)
        self.functions[qualname] = decl
        for stmt in ast.walk(node):
            if stmt is node or not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # Only immediate children get stable qualnames; deeper nesting is
            # rare and inherits the same "runs later, unknown thread" model.
            if stmt in ast.iter_child_nodes(node) or any(
                stmt in getattr(node, attr, ()) for attr in ("body",)
            ):
                nested_qual = f"{qualname}.<locals>.{stmt.name}"
                if nested_qual not in self.functions:
                    self._index_function(stmt, module, nested_qual, cls=cls, nested_in=qualname)

    def _index_class(self, node: ast.ClassDef, context: FileContext, qualname: str) -> None:
        model = ClassModel(qualname, node.name, context.module, context.path, node)
        self.classes[qualname] = model
        resolver = context.resolver
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_qual = f"{qualname}.{stmt.name}"
                model.method_quals[stmt.name] = method_qual
                self._index_function(stmt, context.module, method_qual, cls=qualname, nested_in=None)
        # lock attributes + condition aliasing, anywhere in the class body
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Assign) or not isinstance(sub.value, ast.Call):
                continue
            dotted = resolver.dotted_name(sub.value.func)
            if dotted not in LOCK_TYPES:
                continue
            for target in sub.targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                if dotted == "threading.Condition" and sub.value.args:
                    wrapped = _self_attr(sub.value.args[0])
                    if wrapped is not None:
                        model.cond_aliases[attr] = wrapped
                        model.lock_attrs.add(wrapped)
                        continue
                model.lock_attrs.add(attr)

    def _resolve_bases(self) -> None:
        for model in self.classes.values():
            resolver = self.modules[model.module].context.resolver
            for base in model.node.bases:
                dotted = resolver.dotted_name(base)
                if dotted is None:
                    continue
                canonical = self.canonicalize_from(model.module, dotted)
                model.base_names.append(canonical)

    def _infer_attr_types(self) -> None:
        """``self.attr = SomeClass(...)`` / ``= param`` facts, per class."""
        for model in self.classes.values():
            resolver = self.modules[model.module].context.resolver
            init = None
            for stmt in model.node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == "__init__":
                    init = stmt
            init_params = (
                {a.arg for a in init.args.args} | {a.arg for a in init.args.kwonlyargs}
                if init is not None
                else set()
            )
            for sub in ast.walk(model.node):
                if not isinstance(sub, ast.Assign):
                    continue
                for target in sub.targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    if isinstance(sub.value, ast.Call):
                        dotted = resolver.dotted_name(sub.value.func)
                        if dotted is not None:
                            canonical = self.canonicalize_from(model.module, dotted)
                            if canonical in self.classes:
                                model.attr_types.setdefault(attr, set()).add(canonical)
                    elif isinstance(sub.value, ast.Name) and sub.value.id in init_params:
                        model.attr_from_param.setdefault(attr, sub.value.id)

    # ------------------------------------------------------------- resolution
    def canonicalize(self, dotted: str) -> str:
        """Follow re-export chains until ``dotted`` names a definition site.

        ``repro.serving.CohortWorkerPool`` (bound in ``__init__.py`` via
        ``from repro.serving.workers import CohortWorkerPool``) resolves to
        ``repro.serving.workers.CohortWorkerPool``.  Unknown prefixes (numpy,
        stdlib) come back unchanged.
        """
        seen = set()
        current = dotted
        while current not in seen:
            seen.add(current)
            split = self._split_module(current)
            if split is None:
                return current
            module, rest = split
            if not rest:
                return current
            binding = self.modules[module].bindings.get(rest[0])
            if binding is None:
                return current
            candidate = ".".join([binding] + rest[1:])
            if candidate == current:
                return current
            current = candidate
        return current

    def canonicalize_from(self, module: str, dotted: str) -> str:
        """Canonicalize a resolver-produced dotted name used inside ``module``."""
        return self.canonicalize(dotted)

    def _split_module(self, dotted: str) -> Optional[Tuple[str, List[str]]]:
        """Split ``dotted`` at its longest known-module prefix."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix, parts[cut:]
        return None

    def resolve_method(self, class_qual: str, method: str) -> Optional[str]:
        """Find ``method`` on ``class_qual`` or its (known) base chain."""
        seen: Set[str] = set()
        queue = [class_qual]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            model = self.classes.get(current)
            if model is None:
                continue
            if method in model.method_quals:
                return model.method_quals[method]
            queue.extend(model.base_names)
        return None

    def mro_lock_attrs(self, class_qual: str) -> Set[str]:
        """Lock attributes visible on a class through its base chain."""
        attrs: Set[str] = set()
        seen: Set[str] = set()
        queue = [class_qual]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            model = self.classes.get(current)
            if model is None:
                continue
            attrs |= model.lock_attrs
            queue.extend(model.base_names)
        return attrs

    # --------------------------------------------------------------- summaries
    def summaries(self):
        """The per-function summary table, built once on first use."""
        if self._summaries is None:
            from repro.analysis.summaries import build_summaries

            self._summaries = build_summaries(self)
        return self._summaries

    def graph(self):
        """The resolved call graph + fixpoint facts, built once on first use."""
        if self._graph is None:
            from repro.analysis.fixpoint import CallGraph

            self._graph = CallGraph(self, self.summaries())
        return self._graph


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.attr`` (optionally through subscripts) -> ``attr``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None
