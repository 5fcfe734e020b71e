"""Shared visitor core of the invariant linter.

The framework has two tiers.  Per-file: a :class:`Checker` receives one
parsed :class:`FileContext` at a time and returns :class:`Finding` objects.
Whole-program: before any per-file pass runs, the driver parses *every* file
exactly once, builds one :class:`repro.analysis.project.Project` (module
graph, re-export resolution, class hierarchy, per-function summaries and the
call-graph fixpoint), and hands it to each checker via
:meth:`Checker.begin_project`; checkers that reason across module boundaries
(held locks, RNG stream ownership, future resolution) read everything they
need from that shared model instead of re-walking ASTs.  Cross-file findings
are emitted from :meth:`Checker.finalize`, which runs once after every file
has been visited.

:class:`ImportResolver` is the shared semantic bedrock: it maps AST
name/attribute chains back to the dotted module path they were imported from
(``np.random.default_rng`` -> ``numpy.random.default_rng``,
``from repro.common.rng import RandomState`` -> ``repro.common.rng.RandomState``),
so checkers match *what a name means*, not what it is spelled as.  It is
module-aware: given the module's dotted name it resolves relative imports
(``from ..common.rng import RandomState`` inside ``repro.serving.workers``),
and module-level re-bindings shadow earlier imports in lexical order.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding

__all__ = [
    "Checker",
    "FileContext",
    "ImportResolver",
    "discover_files",
    "module_name_for",
    "parse_contexts",
    "run_analysis",
]


def module_name_for(path: str, root: Optional[str] = None) -> str:
    """Dotted module name of ``path``, anchored at ``root`` when given.

    ``src/`` prefixes are stripped (the repo's layout), ``__init__.py`` maps
    to its package, and a file outside any recognisable package root falls
    back to its stem — good enough for flat test fixtures.
    """
    norm = path.replace(os.sep, "/")
    if root:
        root_norm = root.replace(os.sep, "/").rstrip("/")
        if norm.startswith(root_norm + "/"):
            norm = norm[len(root_norm) + 1 :]
        elif norm == root_norm:
            norm = os.path.basename(norm)
    parts = [part for part in norm.split("/") if part not in ("", ".")]
    if parts and parts[0] == "src":
        parts = parts[1:]
    # Anchor at the innermost package root we recognise ("repro" in-tree,
    # or the path the caller rooted the run at for fixtures).
    if "repro" in parts:
        parts = parts[parts.index("repro") :]
    if not parts:
        return ""
    last = parts[-1]
    if last.endswith(".py"):
        last = last[: -len(".py")]
    if last == "__init__":
        parts = parts[:-1]
    else:
        parts = parts[:-1] + [last]
    return ".".join(parts)


class FileContext:
    """One parsed source file, shared by every checker."""

    def __init__(
        self, path: str, source: str, tree: ast.Module, module: Optional[str] = None
    ) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        #: normalised path with forward slashes, for portable scope matching
        self.norm_path = path.replace(os.sep, "/")
        self.is_package = os.path.basename(path) == "__init__.py"
        self.module = module if module is not None else module_name_for(path)
        #: one resolver per file, shared by every checker (parse-once contract)
        self.resolver = ImportResolver(tree, module=self.module, is_package=self.is_package)

    def in_scope(self, *fragments: str) -> bool:
        """True if the file path contains any of the given fragments."""
        return any(fragment in self.norm_path for fragment in fragments)

    def in_test_scope(self) -> bool:
        """True for test/benchmark files (looser RNG-construction policy)."""
        name = os.path.basename(self.norm_path)
        return (
            "tests/" in self.norm_path
            or "benchmarks/" in self.norm_path
            or name.startswith("test_")
            or name == "conftest.py"
        )


class ImportResolver:
    """Resolve local names to the dotted import paths they are bound to.

    Statements are processed in lexical order, so a later module-level
    binding (``def random(): ...`` after ``import random``) shadows the
    import — :meth:`dotted_name` then refuses to claim the shadowed name
    still means the module.  Relative imports are resolved against the
    module's own dotted name when one is known.
    """

    def __init__(
        self,
        tree: ast.Module,
        module: Optional[str] = None,
        is_package: bool = False,
    ) -> None:
        self.module = module
        if module and not is_package:
            self.package = module.rsplit(".", 1)[0] if "." in module else ""
        else:
            self.package = module or ""
        self.aliases: Dict[str, str] = {}
        self._process(tree.body, module_level=True)

    # ------------------------------------------------------------- processing
    def _process(self, stmts: Sequence[ast.stmt], module_level: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Import):
                self._bind_import(stmt)
            elif isinstance(stmt, ast.ImportFrom):
                self._bind_import_from(stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if module_level:
                    self.aliases.pop(stmt.name, None)
                self._process(stmt.body, module_level=False)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                if module_level:
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    for target in targets:
                        if isinstance(target, ast.Name):
                            self.aliases.pop(target.id, None)
            else:
                for child_body in ("body", "orelse", "finalbody"):
                    children = getattr(stmt, child_body, None)
                    if children:
                        self._process(children, module_level=module_level)
                for handler in getattr(stmt, "handlers", ()) or ():
                    self._process(handler.body, module_level=module_level)

    def _bind_import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.aliases[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self.aliases[root] = root

    def _resolve_relative_base(self, level: int) -> Optional[str]:
        """Anchor package of a level-``level`` relative import, if known."""
        if not self.package and level > 1:
            return None
        parts = self.package.split(".") if self.package else []
        if level - 1 > len(parts):
            return None
        kept = parts[: len(parts) - (level - 1)]
        return ".".join(kept)

    def _bind_import_from(self, node: ast.ImportFrom) -> None:
        if node.level:
            if self.module is None:
                return  # no anchor: keep the pre-module-aware behaviour
            base = self._resolve_relative_base(node.level)
            if base is None:
                return
            module = f"{base}.{node.module}" if node.module else base
            module = module.strip(".")
        else:
            if node.module is None:
                return
            module = node.module
        for alias in node.names:
            if alias.name == "*":
                continue
            target = f"{module}.{alias.name}" if module else alias.name
            self.aliases[alias.asname or alias.name] = target

    # -------------------------------------------------------------- resolution
    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """The fully-resolved dotted path of a Name/Attribute chain, if any."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


class Checker:
    """Base class of one invariant checker (a family of related rules)."""

    #: checker name, used in ``--list-rules`` grouping
    name: str = "checker"
    #: rule id -> one-line description (the ``--list-rules`` output)
    rules: Dict[str, str] = {}

    def relevant(self, path: str) -> bool:
        """Whether this checker wants to visit ``path`` at all."""
        return path.endswith(".py")

    def begin_project(self, project) -> None:
        """Receive the shared whole-program model before any file pass runs."""

    def check(self, context: FileContext) -> List[Finding]:
        """Per-file pass; return this file's findings."""
        raise NotImplementedError

    def finalize(self) -> List[Finding]:
        """Cross-file pass, run once after every file was visited."""
        return []


def discover_files(paths: Sequence[str]) -> List[Tuple[str, str]]:
    """Expand files/directories into sorted, de-duplicated (path, root) pairs.

    ``root`` is the analysis root the file was found under — the anchor for
    deriving its dotted module name.
    """
    found: Dict[str, str] = {}
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if not d.startswith(".") and d != "__pycache__")
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        found.setdefault(os.path.join(dirpath, filename), path)
        elif path.endswith(".py"):
            found.setdefault(path, os.path.dirname(path))
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return sorted(found.items())


def parse_contexts(
    paths: Sequence[str],
) -> Tuple[List[FileContext], List[Finding]]:
    """Parse every discovered file exactly once.

    Returns the parsed contexts plus ``syntax-error`` findings for files that
    could not be read or parsed — a file the linter cannot parse cannot be
    certified either, so those fail the gate rather than crash the run.
    """
    contexts: List[FileContext] = []
    errors: List[Finding] = []
    for path, root in discover_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except (OSError, SyntaxError, ValueError) as error:
            line = getattr(error, "lineno", 1) or 1
            errors.append(
                Finding(path, int(line), "syntax-error", "error", f"cannot analyse file: {error}")
            )
            continue
        contexts.append(FileContext(path, source, tree, module=module_name_for(path, root)))
    return contexts, errors


def run_analysis(paths: Sequence[str], checkers: Iterable[Checker]) -> List[Finding]:
    """Run every checker over every discovered file; return ordered findings.

    Files are parsed once and the resulting ASTs (plus the whole-program
    :class:`~repro.analysis.project.Project` built from them) are shared by
    every checker — the fixpoint engine must not multiply parse cost.
    """
    from repro.analysis.project import Project  # local: core must stay import-light

    checkers = list(checkers)
    contexts, findings = parse_contexts(paths)
    project = Project(contexts)
    for checker in checkers:
        checker.begin_project(project)
    for context in contexts:
        for checker in checkers:
            if not checker.relevant(context.path):
                continue
            findings.extend(checker.check(context))
    for checker in checkers:
        findings.extend(checker.finalize())
    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.message))
    return findings
