"""Tests for the whole-program model under repro.analysis.

Covers the semantic bedrock the interprocedural checkers stand on:
ImportResolver corner cases (relative imports, ``import a.b as c`` chains,
re-exports through ``__init__.py``, lexical shadowing), Project resolution
(canonicalize, method dispatch through the class hierarchy), and the two
engine-level contracts — every file is parsed exactly once, and a whole-repo
run fits the CI time budget (a wall-clock gate, marked ``timing``).
"""

import ast
import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis.core import (
    FileContext,
    ImportResolver,
    module_name_for,
    parse_contexts,
    run_analysis,
)
from repro.analysis.checkers import all_checkers
from repro.analysis.project import Project

REPO_ROOT = Path(__file__).resolve().parents[1]


def resolver_for(source, module=None, is_package=False):
    tree = ast.parse(textwrap.dedent(source))
    return ImportResolver(tree, module=module, is_package=is_package)


def dotted(resolver, expr):
    return resolver.dotted_name(ast.parse(expr, mode="eval").body)


def build_project(tmp_path, files):
    for rel_path, source in files.items():
        path = tmp_path / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    contexts, errors = parse_contexts([str(tmp_path)])
    assert not errors, [e.message for e in errors]
    return Project(contexts)


# ----------------------------------------------------------- import resolver
class TestImportResolver:
    def test_import_as_chain(self):
        resolver = resolver_for("import numpy.random as npr\n")
        assert dotted(resolver, "npr.default_rng") == "numpy.random.default_rng"

    def test_plain_dotted_import_binds_the_root(self):
        resolver = resolver_for("import concurrent.futures\n")
        assert (
            dotted(resolver, "concurrent.futures.Future")
            == "concurrent.futures.Future"
        )

    def test_from_import_with_alias(self):
        resolver = resolver_for("from repro.common.rng import RandomState as RS\n")
        assert dotted(resolver, "RS") == "repro.common.rng.RandomState"

    def test_relative_import_anchors_at_the_package(self):
        resolver = resolver_for(
            "from ..common.rng import RandomState\n",
            module="repro.serving.workers",
        )
        assert dotted(resolver, "RandomState") == "repro.common.rng.RandomState"

    def test_relative_import_inside_a_package_init(self):
        resolver = resolver_for(
            "from .workers import CohortWorkerPool\n",
            module="repro.serving",
            is_package=True,
        )
        assert (
            dotted(resolver, "CohortWorkerPool")
            == "repro.serving.workers.CohortWorkerPool"
        )

    def test_single_dot_import_from_sibling_module(self):
        resolver = resolver_for(
            "from .rng import get_rng\n",
            module="repro.common.other",
        )
        assert dotted(resolver, "get_rng") == "repro.common.rng.get_rng"

    def test_relative_import_beyond_the_root_is_dropped(self):
        resolver = resolver_for(
            "from ....nowhere import thing\n",
            module="repro.serving",
        )
        assert dotted(resolver, "thing") == "thing"

    def test_later_def_shadows_the_import(self):
        resolver = resolver_for(
            """
            import random

            def random():
                return 4
            """
        )
        assert dotted(resolver, "random.randint") == "random.randint"
        assert "random" not in resolver.aliases

    def test_later_assignment_shadows_the_import(self):
        resolver = resolver_for(
            """
            from repro.common.rng import get_rng
            get_rng = object()
            """
        )
        assert dotted(resolver, "get_rng") == "get_rng"

    def test_shadowing_is_lexical_not_just_presence(self):
        # The def comes *before* the import: the import wins.
        resolver = resolver_for(
            """
            def helper():
                return 1

            from repro.serving.jobs import helper
            """
        )
        assert dotted(resolver, "helper") == "repro.serving.jobs.helper"

    def test_function_local_imports_are_visible(self):
        # Lazily-imported names (the repo's circular-import pattern) still
        # resolve; function scoping is approximated as file scope.
        resolver = resolver_for(
            """
            def run():
                from repro.serving.procpool import ProcessCohortPool
                return ProcessCohortPool
            """
        )
        assert (
            dotted(resolver, "ProcessCohortPool")
            == "repro.serving.procpool.ProcessCohortPool"
        )


# ------------------------------------------------------------- module naming
class TestModuleNaming:
    def test_src_prefix_is_stripped(self):
        assert module_name_for("src/repro/serving/service.py") == "repro.serving.service"

    def test_init_maps_to_its_package(self):
        assert module_name_for("src/repro/serving/__init__.py") == "repro.serving"

    def test_rooted_fixture_tree(self, tmp_path):
        path = str(tmp_path / "repro" / "ppl" / "mod.py")
        assert module_name_for(path, str(tmp_path)) == "repro.ppl.mod"


# ------------------------------------------------------------------- project
class TestProject:
    def test_reexport_through_init_canonicalizes(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "repro/serving/__init__.py": """
                from repro.serving.workers import CohortWorkerPool
                """,
                "repro/serving/workers.py": """
                class CohortWorkerPool:
                    def submit_cohort(self):
                        pass
                """,
            },
        )
        assert (
            project.canonicalize("repro.serving.CohortWorkerPool")
            == "repro.serving.workers.CohortWorkerPool"
        )

    def test_chained_reexports_follow_to_the_definition(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "repro/__init__.py": """
                from repro.serving import Pool
                """,
                "repro/serving/__init__.py": """
                from repro.serving.workers import Pool
                """,
                "repro/serving/workers.py": """
                class Pool:
                    pass
                """,
            },
        )
        assert project.canonicalize("repro.Pool") == "repro.serving.workers.Pool"

    def test_unknown_names_pass_through_unchanged(self, tmp_path):
        project = build_project(tmp_path, {"repro/mod.py": "x = 1\n"})
        assert project.canonicalize("numpy.random.default_rng") == "numpy.random.default_rng"

    def test_method_resolution_walks_base_classes(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "repro/serving/base.py": """
                class Base:
                    def start(self):
                        pass
                """,
                "repro/serving/impl.py": """
                from repro.serving.base import Base

                class Impl(Base):
                    def stop(self):
                        pass
                """,
            },
        )
        impl = "repro.serving.impl.Impl"
        assert project.resolve_method(impl, "stop") == f"{impl}.stop"
        assert project.resolve_method(impl, "start") == "repro.serving.base.Base.start"
        assert project.resolve_method(impl, "missing") is None


# ---------------------------------------------------------- engine contracts
class TestEngineContracts:
    def test_every_file_is_parsed_exactly_once(self, tmp_path, monkeypatch):
        files = {
            "repro/serving/a.py": "import threading\nx = 1\n",
            "repro/serving/b.py": "from repro.serving.a import x\n",
            "repro/ppl/c.py": "y = 2\n",
        }
        for rel_path, source in files.items():
            path = tmp_path / rel_path
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        real_parse = ast.parse
        calls = []

        def counting_parse(source, *args, **kwargs):
            calls.append(kwargs.get("filename") or (args[0] if args else "<unknown>"))
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        run_analysis([str(tmp_path)], all_checkers())
        parsed = [name for name in calls if str(name).endswith(".py")]
        assert len(parsed) == len(files), parsed

    @pytest.mark.timing
    def test_whole_repo_run_fits_the_ci_budget(self):
        paths = [str(REPO_ROOT / name) for name in ("src", "tests", "benchmarks")]
        start = time.monotonic()
        run_analysis(paths, all_checkers())
        elapsed = time.monotonic() - start
        assert elapsed < 15.0, f"analysis took {elapsed:.1f}s, budget is 15s"
