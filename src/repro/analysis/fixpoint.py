"""Call-graph resolution and the interprocedural fixpoint passes.

Built once per analysis run from the :class:`~repro.analysis.project.Project`
and the per-function summaries, this module answers the questions that cross
function boundaries:

* **call targets** — ``self.m()`` resolves through the class hierarchy;
  ``self.attr.m()`` through inferred attribute types; dotted names through
  imports and ``__init__.py`` re-exports; bare names through module bindings
  and nested-function scopes.  Two callable-argument flows close the loop on
  the serving tier's callback patterns: a constructor argument stored on
  ``self`` (``MicroBatchScheduler(dispatch=...)`` then ``self._dispatch(...)``)
  and a callable parameter invoked by name.
* **entry-held locks** — which locks are held at *every* call site of a
  private function (TOP-initialised intersection fixpoint; public functions
  and nested ``def``s get the empty set — external callers are unknowable,
  and deferred bodies run on unknown threads).
* **may-block** — whether calling a function can reach a blocking primitive,
  with a human-readable witness chain.
* **transitive acquisitions** — every lock a call into a function may take,
  for cross-module lock-order edges.

Functions handed to ``Thread(target=...)``, ``pool.submit(...)``,
``apply_async`` and friends are *job bodies*: they run on another thread, so
they hold no lock on entry whatever their name says.

Everything here is a fixpoint over the summaries — no AST is re-walked.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.project import Project
from repro.analysis.summaries import (
    CallSite,
    FunctionSummary,
    display_name,
    short_lock,
)

__all__ = ["CallGraph", "DISPATCH_METHODS"]

#: receiver methods that enqueue a callable for later, concurrent execution
DISPATCH_METHODS = {"submit", "apply_async", "map_async", "starmap_async", "add_done_callback"}

#: constructors whose ``target=`` runs on a new thread/process
_THREAD_CLASS_BASENAMES = {"Thread", "Process"}

_MAX_ROUNDS = 30


class CallGraph:
    """Resolved call edges plus every fixpoint fact the checkers consume."""

    def __init__(self, project: Project, summaries: Dict[str, FunctionSummary]) -> None:
        self.project = project
        self.summaries = summaries
        #: per function, per call site (aligned with summary.calls): target qualnames
        self.targets: Dict[str, List[List[str]]] = {}
        self._attr_callables: Dict[Tuple[str, str], Set[str]] = {}
        self._param_callables: Dict[Tuple[str, str], Set[str]] = {}
        self._resolve_all()
        self.dispatch_roots: Set[str] = self._find_dispatch_roots()
        self.entry_held: Dict[str, FrozenSet[str]] = self._fix_entry_held()
        self.may_block: Dict[str, str] = self._fix_may_block()
        self.trans_acquires: Dict[str, Dict[str, str]] = self._fix_acquires()

    # ------------------------------------------------------------- resolution
    def _resolve_all(self) -> None:
        for qual, summary in self.summaries.items():
            self.targets[qual] = [self._resolve_site(qual, site) for site in summary.calls]
        # Callable-argument flows need resolved constructor/call sites, so they
        # come second; then a single re-resolution pass picks them up.
        self._collect_attr_callables()
        self._collect_param_callables()
        for qual, summary in self.summaries.items():
            resolved = self.targets[qual]
            for index, site in enumerate(summary.calls):
                if not resolved[index]:
                    resolved[index] = self._resolve_site(qual, site, flows=True)

    def _resolve_site(self, caller: str, site: CallSite, flows: bool = False) -> List[str]:
        decl = self.summaries[caller].decl
        if site.kind == "self" and decl.cls is not None:
            method = self.project.resolve_method(decl.cls, str(site.target))
            if method is not None:
                return [method]
            if flows:
                return sorted(self._attr_callables.get((decl.cls, str(site.target)), ()))
            return []
        if site.kind == "attr" and decl.cls is not None:
            attr, method = site.target  # type: ignore[misc]
            model = self.project.classes.get(decl.cls)
            found: List[str] = []
            if model is not None:
                for type_qual in sorted(model.attr_types.get(attr, ())):
                    resolved = self.project.resolve_method(type_qual, method)
                    if resolved is not None:
                        found.append(resolved)
            return found
        if site.kind == "dotted":
            return self._resolve_dotted(caller, decl, str(site.target), flows)
        return []

    def _resolve_dotted(self, caller: str, decl, dotted: str, flows: bool) -> List[str]:
        if "." not in dotted:
            nested = f"{caller}.<locals>.{dotted}"
            if nested in self.project.functions:
                return [nested]
            local = f"{decl.module}.{dotted}"
            if local in self.project.functions:
                return [local]
            if flows and dotted in decl.params:
                return sorted(self._param_callables.get((caller, dotted), ()))
        canonical = self.project.canonicalize(dotted)
        if canonical in self.project.functions:
            return [canonical]
        if canonical in self.project.classes:
            init = f"{canonical}.__init__"
            if init in self.project.functions:
                return [init]
        return []

    def _resolve_ref(self, caller: str, ref: Tuple[str, str]) -> List[str]:
        """A bare callable *reference* (not a call) -> function qualnames."""
        kind, payload = ref
        decl = self.summaries[caller].decl
        if kind == "self" and decl.cls is not None:
            method = self.project.resolve_method(decl.cls, payload)
            return [method] if method is not None else []
        if kind in ("name", "dotted"):
            return self._resolve_dotted(caller, decl, payload, flows=False)
        return []

    def _collect_attr_callables(self) -> None:
        """``C(dispatch=self._cb)`` + ``self._dispatch = dispatch`` => flow."""
        interesting = {
            f"{qual}.__init__": qual
            for qual, model in self.project.classes.items()
            if model.attr_from_param
        }
        if not interesting:
            return
        for caller, summary in self.summaries.items():
            for site, targets in zip(summary.calls, self.targets[caller]):
                for target in targets:
                    class_qual = interesting.get(target)
                    if class_qual is None:
                        continue
                    model = self.project.classes[class_qual]
                    init_params = self.project.functions[target].params  # incl. self
                    for attr, param in model.attr_from_param.items():
                        resolved = self._ctor_arg(caller, site, init_params, param)
                        if resolved:
                            self._attr_callables.setdefault((class_qual, attr), set()).update(resolved)

    def _ctor_arg(
        self, caller: str, site: CallSite, init_params: List[str], param: str
    ) -> List[str]:
        for slot, ref in site.arg_refs:
            if slot == param:
                return self._resolve_ref(caller, ref)
            if isinstance(slot, int):
                index = slot + 1  # positional args skip the bound self
                if index < len(init_params) and init_params[index] == param:
                    return self._resolve_ref(caller, ref)
        return []

    def _collect_param_callables(self) -> None:
        """``f(cb)`` where ``f`` later calls ``cb(...)`` by parameter name."""
        for caller, summary in self.summaries.items():
            for site, targets in zip(summary.calls, self.targets[caller]):
                if not site.arg_refs:
                    continue
                for target in targets:
                    target_decl = self.project.functions.get(target)
                    if target_decl is None:
                        continue
                    params = target_decl.params
                    offset = 1 if target_decl.cls is not None else 0
                    for slot, ref in site.arg_refs:
                        if isinstance(slot, int):
                            index = slot + offset
                            name = params[index] if index < len(params) else None
                        else:
                            name = slot if slot in params else None
                        if name is None:
                            continue
                        resolved = self._resolve_ref(caller, ref)
                        if resolved:
                            self._param_callables.setdefault((target, name), set()).update(resolved)

    # -------------------------------------------------------------- dispatches
    def _find_dispatch_roots(self) -> Set[str]:
        """Every function handed off as a job body at some dispatch site."""
        roots: Set[str] = set()
        for caller, summary in self.summaries.items():
            for site in summary.calls:
                slot = self._dispatch_callable_slot(site)
                if slot is None:
                    continue
                for ref_slot, ref in site.arg_refs:
                    if ref_slot == slot:
                        roots.update(self._resolve_ref(caller, ref))
        return roots

    @staticmethod
    def _dispatch_callable_slot(site: CallSite) -> Optional[object]:
        """The arg slot carrying the job body, if this call dispatches one."""
        if site.kind == "attr":
            _, method = site.target  # type: ignore[misc]
            if method in DISPATCH_METHODS:
                return 0
            if method in _THREAD_CLASS_BASENAMES:
                return "target"
        elif site.kind == "self":
            if site.target in DISPATCH_METHODS:
                return 0
        elif site.kind == "dotted":
            basename = str(site.target).rsplit(".", 1)[-1]
            if basename in DISPATCH_METHODS:
                return 0
            if basename in _THREAD_CLASS_BASENAMES:
                return "target"
        return None

    # --------------------------------------------------------------- fixpoints
    def _edges(self):
        """(caller, site, targets) triples, summaries aligned with targets."""
        for caller, summary in self.summaries.items():
            for site, targets in zip(summary.calls, self.targets[caller]):
                if targets:
                    yield caller, site, targets

    def _inherits_locks(self, qual: str) -> bool:
        """A private function no dispatch hands off: only its call sites enter it."""
        decl = self.project.functions.get(qual)
        if decl is None or "<locals>" in qual or qual in self.dispatch_roots:
            return False
        return decl.name.startswith("_") and not decl.name.startswith("__")

    def _fix_entry_held(self) -> Dict[str, FrozenSet[str]]:
        empty: FrozenSet[str] = frozenset()
        # TOP is modelled as None: optimistic "called from everywhere locked",
        # narrowed by intersection over actual call sites.
        entry: Dict[str, Optional[FrozenSet[str]]] = {}
        for qual in self.summaries:
            if self._inherits_locks(qual):
                entry[qual] = None
            else:
                entry[qual] = empty
        for _ in range(_MAX_ROUNDS):
            incoming: Dict[str, FrozenSet[str]] = {}
            for caller, site, targets in self._edges():
                if site.deferred:
                    contribution: Optional[FrozenSet[str]] = empty
                else:
                    caller_entry = entry.get(caller, empty)
                    if caller_entry is None:
                        continue  # TOP caller: no constraint yet
                    contribution = site.held | caller_entry
                for target in targets:
                    if target in incoming:
                        incoming[target] = incoming[target] & contribution
                    else:
                        incoming[target] = contribution
            changed = False
            for target, combined in incoming.items():
                if entry.get(target) != combined and self._inherits_locks(target):
                    entry[target] = combined
                    changed = True
            if not changed:
                break
        return {qual: value if value is not None else empty for qual, value in entry.items()}

    def _fix_may_block(self) -> Dict[str, str]:
        witness: Dict[str, str] = {}
        for qual, summary in self.summaries.items():
            for op in summary.blocking:
                if op.releases is None:
                    witness[qual] = f"{op.desc} at line {op.line}"
                    break
        for _ in range(_MAX_ROUNDS):
            changed = False
            for caller, site, targets in self._edges():
                if site.deferred or caller in witness:
                    continue
                for target in targets:
                    if target in witness:
                        witness[caller] = (
                            f"calls {display_name(self.project, target)}, "
                            f"which may block: {witness[target]}"
                        )
                        changed = True
                        break
            if not changed:
                break
        return witness

    def _fix_acquires(self) -> Dict[str, Dict[str, str]]:
        acquires: Dict[str, Dict[str, str]] = {}
        for qual, summary in self.summaries.items():
            table: Dict[str, str] = {}
            for acq in summary.acquires:
                table.setdefault(
                    acq.lock,
                    f"{display_name(self.project, qual)} acquires {short_lock(acq.lock)}",
                )
            acquires[qual] = table
        for _ in range(_MAX_ROUNDS):
            changed = False
            for caller, site, targets in self._edges():
                if site.deferred:
                    continue
                table = acquires[caller]
                for target in targets:
                    for lock, how in acquires.get(target, {}).items():
                        if lock not in table:
                            table[lock] = how
                            changed = True
            if not changed:
                break
        return acquires
