"""Per-function summaries: the facts the interprocedural fixpoint consumes.

Each function/method indexed by the :class:`~repro.analysis.project.Project`
gets one :class:`FunctionSummary` extracted in a single AST walk:

* **locks** — ``with self.<lock>:`` / ``with <module lock>:`` acquisitions
  (with the lock set already held at that point), writes to and reads of
  ``self.<attr>`` state with the held set at the access, and blocking operations
  (``time.sleep``, ``Future.result``, ``join``, ``Queue.get``, foreign
  ``wait``) with the held set at the call.
* **calls** — every call site with enough structure to resolve it later:
  ``self.m(...)``, ``self.attr.m(...)``, dotted/module calls, plus the
  bare-name/attribute argument references that feed the callable-argument
  flows (``pool.submit(self._run_cohort, ...)``, ``Thread(target=...)``,
  ``MicroBatchScheduler(dispatch=self._dispatch_cohort)``).

Lock identity is *qualified*: ``self._lock`` inside a method of
``repro.serving.workers.CohortWorkerPool`` becomes
``repro.serving.workers.CohortWorkerPool._lock`` (the attribute is resolved
through the base-class chain to its defining class, and
``Condition(self._lock)`` aliases collapse onto the wrapped lock), so held
sets compose across class and module boundaries.

Nested ``def``s are indexed as their own functions (they run later, on an
unknown thread, so they inherit no lock context); lambdas are walked inline
with an empty held set and their calls marked *deferred*.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.project import FunctionDecl, Project

__all__ = [
    "Acquire",
    "AttrWrite",
    "BlockingOp",
    "CallSite",
    "FunctionSummary",
    "build_summaries",
    "display_name",
    "short_lock",
]

#: container methods that mutate their receiver
_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear", "update",
    "setdefault", "add", "discard", "appendleft", "extendleft", "popleft",
    "move_to_end", "set",
}


@dataclass
class Acquire:
    lock: str                 # qualified lock id
    held: FrozenSet[str]      # qualified locks already held at the acquisition
    line: int


@dataclass
class AttrWrite:
    attr: str                 # bare self-attribute name (class known from decl)
    line: int
    held: FrozenSet[str]
    deferred: bool = False    # inside a lambda: entry-held locks do not apply
    augmented: bool = False   # read-modify-write (``self.x += 1``)


@dataclass
class BlockingOp:
    desc: str                 # e.g. "time.sleep", "Future.result"
    line: int
    held: FrozenSet[str]
    #: the lock a condition-wait releases while waiting (waiting on the held
    #: condition is the sanctioned pattern, not a stall), None otherwise
    releases: Optional[str] = None


@dataclass
class CallSite:
    kind: str                 # 'self' | 'attr' | 'dotted' | 'opaque'
    target: object            # method name | (attr, method) | dotted string
    line: int
    held: FrozenSet[str]
    deferred: bool            # lexically inside a lambda: runs later
    #: bare callable-ish argument references: (slot, ('self'|'name'|'dotted', payload))
    arg_refs: List[Tuple[object, Tuple[str, str]]] = field(default_factory=list)


@dataclass
class FunctionSummary:
    decl: FunctionDecl
    path: str
    acquires: List[Acquire] = field(default_factory=list)
    writes: List[AttrWrite] = field(default_factory=list)
    #: ``self.<attr>`` loads, recorded in the same shape as writes
    reads: List[AttrWrite] = field(default_factory=list)
    blocking: List[BlockingOp] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)


def display_name(project: Project, qualname: str) -> str:
    """Human-facing short name: ``Class.method`` or ``module.func``."""
    decl = project.functions.get(qualname)
    if decl is not None and decl.cls is not None:
        return f"{decl.cls.rsplit('.', 1)[-1]}.{decl.name}"
    return ".".join(qualname.split(".")[-2:])


def short_lock(lock: str) -> str:
    """``pkg.mod.Class._lock`` -> ``Class._lock`` for messages."""
    return ".".join(lock.split(".")[-2:])


def _self_attr(node: ast.AST) -> Optional[str]:
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


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


class _LockEnv:
    """Lock-attribute resolution for one function's ``self``/globals."""

    def __init__(self, project: Project, decl: FunctionDecl) -> None:
        self._project = project
        self._module = decl.module
        self._aliases: Dict[str, str] = {}
        self._attr_owner: Dict[str, str] = {}  # canonical attr -> defining class qual
        self._globals = {
            name: f"{decl.module}.{name}"
            for name in project.modules[decl.module].lock_globals
        }
        if decl.cls is not None:
            # Merge condition aliases and lock attrs through the base chain;
            # the *defining* class qualifies the lock so a subclass and its
            # base agree on the identity of an inherited lock.
            seen = set()
            queue = [decl.cls]
            while queue:
                current = queue.pop(0)
                if current in seen:
                    continue
                seen.add(current)
                model = project.classes.get(current)
                if model is None:
                    continue
                for cond, wrapped in model.cond_aliases.items():
                    self._aliases.setdefault(cond, wrapped)
                for attr in model.lock_attrs:
                    self._attr_owner.setdefault(attr, current)
                queue.extend(model.base_names)

    def lock_id(self, node: ast.AST) -> Optional[str]:
        """Qualified lock id of a ``with`` context expression, if it is one."""
        attr = _self_attr(node)
        if attr is not None:
            canonical = self._aliases.get(attr, attr)
            owner = self._attr_owner.get(canonical)
            if owner is not None:
                return f"{owner}.{canonical}"
            return None
        if isinstance(node, ast.Name):
            return self._globals.get(node.id)
        return None

    def attr_lock_id(self, attr: str) -> Optional[str]:
        canonical = self._aliases.get(attr, attr)
        owner = self._attr_owner.get(canonical)
        if owner is not None:
            return f"{owner}.{canonical}"
        return None

    def is_lock_attr(self, attr: str) -> bool:
        return self.attr_lock_id(attr) is not None


class _FunctionWalker:
    """One pass over a function body collecting every summary fact."""

    def __init__(self, project: Project, decl: FunctionDecl, summary: FunctionSummary) -> None:
        self.project = project
        self.decl = decl
        self.summary = summary
        self.resolver = project.modules[decl.module].context.resolver
        self.env = _LockEnv(project, decl)

    def run(self) -> None:
        for stmt in self.decl.node.body:
            self._walk(stmt, frozenset(), deferred=False)

    # --------------------------------------------------------------- the walk
    def _walk(self, node: ast.AST, held: FrozenSet[str], deferred: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # indexed as its own function; runs later on an unknown thread
        if isinstance(node, ast.Lambda):
            self._walk(node.body, frozenset(), deferred=True)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = list(held)
            for item in node.items:
                self._walk(item.context_expr, held, deferred)
                lock = self.env.lock_id(item.context_expr)
                if lock is not None and lock not in acquired:
                    self.summary.acquires.append(
                        Acquire(lock, frozenset(acquired), item.context_expr.lineno)
                    )
                    acquired.append(lock)
            inner = frozenset(acquired)
            for child in node.body:
                self._walk(child, inner, deferred)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                self._record_write(target, held, deferred, isinstance(node, ast.AugAssign))
            if node.value is not None:
                self._walk(node.value, held, deferred)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._record_write(target, held, deferred)
            return
        if isinstance(node, ast.Call):
            self._record_call(node, held, deferred)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attr = _self_attr(node)
            if attr is not None and not self.env.is_lock_attr(attr):
                self.summary.reads.append(AttrWrite(attr, node.lineno, held, deferred))
        for child in ast.iter_child_nodes(node):
            self._walk(child, held, deferred)

    # ------------------------------------------------------------------ facts
    def _record_write(
        self, target: ast.AST, held: FrozenSet[str], deferred: bool, augmented: bool = False
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_write(element, held, deferred)
            return
        if isinstance(target, ast.Starred):
            self._record_write(target.value, held, deferred)
            return
        attr = _self_attr(target)
        if attr is None or self.env.is_lock_attr(attr):
            return
        self.summary.writes.append(AttrWrite(attr, target.lineno, held, deferred, augmented))

    def _record_call(self, node: ast.Call, held: FrozenSet[str], deferred: bool) -> None:
        func = node.func
        dotted = self.resolver.dotted_name(func)
        kind = "opaque"
        target: object = None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            kind, target = "self", func.attr
        elif isinstance(func, ast.Attribute):
            receiver_attr = _self_attr(func.value)
            if receiver_attr is not None:
                kind, target = "attr", (receiver_attr, func.attr)
                if func.attr in _MUTATORS and not self.env.is_lock_attr(receiver_attr):
                    self.summary.writes.append(AttrWrite(receiver_attr, node.lineno, held, deferred))
            elif dotted is not None:
                kind, target = "dotted", dotted
        elif isinstance(func, ast.Name):
            kind, target = "dotted", dotted if dotted is not None else func.id

        site = CallSite(kind, target, node.lineno, held, deferred)
        slots: List[Tuple[object, ast.expr]] = list(enumerate(node.args))
        slots += [(kw.arg, kw.value) for kw in node.keywords if kw.arg is not None]
        for slot, value in slots:
            ref = self._arg_ref(value)
            if ref is not None:
                site.arg_refs.append((slot, ref))
        self.summary.calls.append(site)

        if isinstance(func, ast.Attribute) and not deferred:
            self._check_blocking(node, func, held)

    def _arg_ref(self, value: ast.expr) -> Optional[Tuple[str, str]]:
        attr = _self_attr(value)
        if attr is not None and isinstance(value, ast.Attribute):
            return ("self", attr)
        if isinstance(value, ast.Name):
            # Resolve through the module's imports so a job body imported from
            # another module still resolves: ``submit(job_body, ...)`` with
            # ``from repro.serving.jobs import job_body`` must record the full
            # dotted path, not the local spelling.
            dotted = self.resolver.dotted_name(value)
            return ("name", dotted if dotted is not None else value.id)
        if isinstance(value, ast.Attribute):
            dotted = self.resolver.dotted_name(value)
            if dotted is not None:
                return ("dotted", dotted)
        return None

    def _check_blocking(self, node: ast.Call, func: ast.Attribute, held: FrozenSet[str]) -> None:
        dotted = self.resolver.dotted_name(func)
        desc: Optional[str] = None
        releases: Optional[str] = None
        if dotted == "time.sleep":
            desc = "time.sleep"
        elif func.attr == "result":
            desc = "Future.result"
        elif func.attr == "join" and isinstance(func.value, (ast.Name, ast.Attribute)):
            desc = "join"
        elif func.attr == "get" and "queue" in _receiver_text(func.value).lower():
            desc = "Queue.get"
        elif func.attr == "wait":
            attr = _self_attr(func.value)
            if attr is not None:
                releases = self.env.attr_lock_id(attr)
            desc = "wait on a foreign object" if releases is None else "Condition.wait"
        if desc is not None:
            self.summary.blocking.append(BlockingOp(desc, node.lineno, held, releases))


def build_summaries(project: Project) -> Dict[str, FunctionSummary]:
    """One :class:`FunctionSummary` per indexed function, in one walk each."""
    summaries: Dict[str, FunctionSummary] = {}
    for qualname, decl in project.functions.items():
        path = project.modules[decl.module].context.path
        summary = FunctionSummary(decl, path)
        _FunctionWalker(project, decl, summary).run()
        summaries[qualname] = summary
    return summaries
