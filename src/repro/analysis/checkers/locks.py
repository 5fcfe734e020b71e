"""Lock discipline: a summary-based static race detector for the whole tree.

The serving subsystem is a web of worker threads, a scheduler thread, a
collector thread and client threads, all touching per-object state guarded by
``with self._lock:`` scopes — and since PR 4 those scopes cross module
boundaries (service -> scheduler -> worker pool).  This checker runs entirely
on the whole-program engine (:mod:`repro.analysis.summaries` +
:mod:`repro.analysis.fixpoint`): per-function summaries record what each
function acquires, writes and calls; the fixpoint propagates held-lock sets
across the call graph, including through callback registrations like
``MicroBatchScheduler(dispatch=self._dispatch_cohort)``.

* ``lock-unlocked-write`` — a mutable ``self._x`` attribute written *inside*
  a lock scope somewhere and *outside* any lock scope somewhere else is a
  lost-update / torn-state candidate.  "Inside" includes locks held on entry:
  a private helper called only with the lock held counts as locked, whichever
  module the call comes from.  An attribute no locked scope writes but one
  reads (a counter bumped at one site and read by a locked ``stats()``)
  names its guard by that read: its unlocked read-modify-writes
  (``self.x += 1``) are flagged too.  Plain assignments are not — a
  lifecycle flag set by ``start``/``stop`` and read under the lock is one
  writer's store, not a lost update.
* ``lock-order-inversion`` — two locks acquired in opposite orders on two
  paths deadlock under contention.  Edges come from lexical nesting *and*
  from call sites: holding lock A while calling (transitively) into anything
  that acquires lock B adds an A -> B edge, across any number of modules.
* ``lock-blocking-call`` — a blocking primitive (``Queue.get``,
  ``Future.result``, ``sleep``, ``join``, foreign ``wait``) reached while a
  lock is held turns one slow consumer into a system-wide stall.  Reported at
  the blocking call when the function itself holds (or inherits) the lock,
  and at the *call site* when a lock holder calls into a function that may
  block (with the witness chain in the message).

Writes in ``__init__``/``__getstate__``-like methods are construction, not
contention, and are ignored; nested functions and lambdas run on unknown
threads later, so they inherit nothing.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.core import Checker, FileContext
from repro.analysis.findings import Finding
from repro.analysis.summaries import display_name, short_lock

__all__ = ["LockDisciplineChecker"]

#: methods whose writes are construction/serialisation, not shared-state races
_INIT_LIKE = {"__init__", "__new__", "__getstate__", "__setstate__", "__reduce__", "__copy__", "__deepcopy__"}


class LockDisciplineChecker(Checker):
    name = "lock-discipline"
    rules = {
        "lock-unlocked-write": "attribute written both inside and outside lock scopes",
        "lock-order-inversion": "two locks acquired in opposite orders on different paths",
        "lock-blocking-call": "blocking call (Queue.get/result/sleep/join/foreign wait) under a lock",
    }

    def __init__(self) -> None:
        self._project = None

    def begin_project(self, project) -> None:
        self._project = project

    def check(self, context: FileContext) -> List[Finding]:
        return []  # everything is whole-program: emitted from finalize()

    def finalize(self) -> List[Finding]:
        if self._project is None:
            return []
        project = self._project
        summaries = project.summaries()
        graph = project.graph()
        findings: List[Finding] = []
        findings.extend(self._check_writes(project, summaries, graph))
        findings.extend(self._check_blocking(project, summaries, graph))
        findings.extend(self._check_ordering(project, summaries, graph))
        seen = set()
        unique: List[Finding] = []
        for finding in findings:
            key = (finding.file, finding.line, finding.rule, finding.message)
            if key not in seen:
                seen.add(key)
                unique.append(finding)
        return unique

    # -------------------------------------------------------- unlocked writes
    def _check_writes(self, project, summaries, graph) -> List[Finding]:
        # (class qual, attr) -> [(access, effective held, function qual)]
        by_attr: Dict[Tuple[str, str], List[Tuple[object, frozenset, str]]] = {}
        locked_reads: Dict[Tuple[str, str], List[Tuple[object, frozenset, str]]] = {}
        for qual, summary in summaries.items():
            decl = summary.decl
            if decl.cls is None or decl.name in _INIT_LIKE:
                continue
            if not project.mro_lock_attrs(decl.cls):
                continue  # lock-free classes have no lock discipline to violate
            entry = graph.entry_held.get(qual, frozenset())
            for write in summary.writes:
                effective = write.held if write.deferred else write.held | entry
                by_attr.setdefault((decl.cls, write.attr), []).append((write, effective, qual))
            for read in summary.reads:
                effective = read.held if read.deferred else read.held | entry
                if effective:
                    locked_reads.setdefault((decl.cls, read.attr), []).append((read, effective, qual))
        findings: List[Finding] = []
        for (cls, attr), writes in by_attr.items():
            locked = [entry for entry in writes if entry[1]]
            unlocked = [entry for entry in writes if not entry[1]]
            if not locked:
                # No locked write: a locked read still says which lock guards
                # it, and an unlocked read-modify-write can lose updates.
                unlocked = [entry for entry in unlocked if entry[0].augmented]
            evidence = locked or locked_reads.get((cls, attr), [])
            if not evidence or not unlocked:
                continue
            guard = sorted({short_lock(lock) for _, held, _ in evidence for lock in held})
            witness, _, witness_qual = evidence[0]
            class_name = cls.rsplit(".", 1)[-1]
            witness_name = summaries[witness_qual].decl.name
            verb = "written" if locked else "read"
            for write, _, qual in unlocked:
                findings.append(
                    Finding(
                        summaries[qual].path,
                        write.line,
                        "lock-unlocked-write",
                        "error",
                        f"{class_name}.{attr} is {verb} under {guard} (e.g. "
                        f"{witness_name}:{witness.line}) but written without a lock in "
                        f"{summaries[qual].decl.name}; concurrent writers can lose updates",
                    )
                )
        return findings

    # --------------------------------------------------------- blocking calls
    def _check_blocking(self, project, summaries, graph) -> List[Finding]:
        findings: List[Finding] = []
        for qual, summary in summaries.items():
            entry = graph.entry_held.get(qual, frozenset())
            where = display_name(project, qual)
            for op in summary.blocking:
                effective = op.held | entry
                if not effective:
                    continue
                if op.releases is not None and op.releases in effective:
                    continue  # waiting on the held condition releases it
                findings.append(
                    Finding(
                        summary.path,
                        op.line,
                        "lock-blocking-call",
                        "warning",
                        f"{op.desc} called in {where} while holding "
                        f"{sorted(short_lock(lock) for lock in effective)}; a blocked "
                        "holder stalls every other thread contending for the lock",
                    )
                )
            # Interprocedural: holding a lock while calling into something that
            # may block.  Skip callees that inherit the lock on entry — their
            # own blocking ops are already reported above, at the deeper site.
            for site, targets in zip(summary.calls, graph.targets[qual]):
                if site.deferred:
                    continue
                effective = site.held | entry
                if not effective:
                    continue
                for target in targets:
                    witness = graph.may_block.get(target)
                    if witness is None or graph.entry_held.get(target, frozenset()):
                        continue
                    findings.append(
                        Finding(
                            summary.path,
                            site.line,
                            "lock-blocking-call",
                            "warning",
                            f"{where} calls {display_name(project, target)} "
                            f"(may block: {witness}) while holding "
                            f"{sorted(short_lock(lock) for lock in effective)}; a blocked "
                            "holder stalls every other thread contending for the lock",
                        )
                    )
        return findings

    # ----------------------------------------------------------- lock ordering
    def _check_ordering(self, project, summaries, graph) -> List[Finding]:
        # edges: (outer lock, inner lock) -> representative (file, line, text)
        edges: Dict[Tuple[str, str], Tuple[str, int, str]] = {}

        def add_edge(outer: str, inner: str, file: str, line: int, text: str) -> None:
            if outer != inner:
                edges.setdefault((outer, inner), (file, line, text))

        for qual, summary in summaries.items():
            entry = graph.entry_held.get(qual, frozenset())
            name = display_name(project, qual)
            for acq in summary.acquires:
                for outer in acq.held | entry:
                    add_edge(
                        outer,
                        acq.lock,
                        summary.path,
                        acq.line,
                        f"{name} acquires {short_lock(acq.lock)} while holding {short_lock(outer)}",
                    )
            for site, targets in zip(summary.calls, graph.targets[qual]):
                if site.deferred:
                    continue
                held = site.held | entry
                if not held:
                    continue
                for target in targets:
                    for inner, how in graph.trans_acquires.get(target, {}).items():
                        for outer in held:
                            add_edge(
                                outer,
                                inner,
                                summary.path,
                                site.line,
                                f"{name} calls {display_name(project, target)} "
                                f"({how}) while holding {short_lock(outer)}",
                            )

        findings: List[Finding] = []
        for cycle_edges in _cycles(edges):
            chain = " ; ".join(edges[edge][2] for edge in cycle_edges)
            file, line, _ = edges[cycle_edges[0]]
            findings.append(
                Finding(
                    file,
                    line,
                    "lock-order-inversion",
                    "error",
                    f"lock-order inversion: {chain} — opposite acquisition orders deadlock "
                    "under contention",
                )
            )
        return findings


def _cycles(edges: Dict[Tuple[str, str], object]) -> List[List[Tuple[str, str]]]:
    """Edge groups that participate in a cycle (one group per SCC, sorted)."""
    graph: Dict[str, List[str]] = {}
    for outer, inner in edges:
        graph.setdefault(outer, []).append(inner)
        graph.setdefault(inner, [])
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work = [(root, iter(graph[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, neighbours = work[-1]
            advanced = False
            for neighbour in neighbours:
                if neighbour not in index:
                    index[neighbour] = low[neighbour] = counter[0]
                    counter[0] += 1
                    stack.append(neighbour)
                    on_stack.add(neighbour)
                    work.append((neighbour, iter(graph[neighbour])))
                    advanced = True
                    break
                if neighbour in on_stack:
                    low[node] = min(low[node], index[neighbour])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)

    groups: List[List[Tuple[str, str]]] = []
    for component in sccs:
        members = set(component)
        group = sorted(
            (outer, inner) for outer, inner in edges if outer in members and inner in members
        )
        if group:
            groups.append(group)
    return groups
