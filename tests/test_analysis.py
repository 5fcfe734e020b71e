"""Tests for repro.analysis: one positive and one negative case per rule,
the stable JSON schema, and the CLI gate over the real tree."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Finding, SCHEMA_KEYS, all_checkers, run_analysis
from repro.analysis.__main__ import _github_line, main

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint(tmp_path, rel_path, source):
    """Write ``source`` at ``rel_path`` under tmp_path and lint the tree."""
    path = tmp_path / rel_path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_analysis([str(tmp_path)], all_checkers())


def lint_files(tmp_path, files):
    """Write several ``rel_path -> source`` files and lint the whole tree.

    The multi-file variant of :func:`lint`, for the interprocedural rules:
    violations here deliberately span module boundaries.
    """
    for rel_path, source in files.items():
        path = tmp_path / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_analysis([str(tmp_path)], all_checkers())


def rules_of(findings):
    return {finding.rule for finding in findings}


# --------------------------------------------------------------------------- rng
class TestRngDiscipline:
    def test_module_call_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/ppl/mod.py",
            """
            import numpy as np
            x = np.random.rand(3)
            """,
        )
        assert "rng-module-call" in rules_of(findings)

    def test_sanctioned_file_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/common/rng.py",
            """
            import numpy as np
            x = np.random.rand(3)
            gen = np.random.default_rng(0)
            """,
        )
        assert rules_of(findings) == set()

    def test_direct_construction_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/data/mod.py",
            """
            import numpy as np
            gen = np.random.default_rng(1234)
            """,
        )
        assert "rng-direct-construction" in rules_of(findings)

    def test_repro_random_state_at_module_scope_allowed(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/data/mod.py",
            """
            from repro.common.rng import RandomState
            rng = RandomState(7)
            """,
        )
        assert rules_of(findings) == set()

    def test_stdlib_random_flagged(self, tmp_path):
        findings = lint(tmp_path, "repro/ppl/mod.py", "import random\n")
        assert "rng-stdlib-random" in rules_of(findings)

    def test_numpy_import_not_confused_with_stdlib_random(self, tmp_path):
        findings = lint(tmp_path, "repro/ppl/mod.py", "import numpy.random\n")
        assert "rng-stdlib-random" not in rules_of(findings)

    def test_time_entropy_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/ppl/mod.py",
            """
            import time
            from repro.common.rng import RandomState
            rng = RandomState(int(time.time()))
            """,
        )
        assert "rng-time-entropy" in rules_of(findings)

    def test_constant_seed_has_no_time_entropy(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/ppl/mod.py",
            """
            from repro.common.rng import RandomState
            rng = RandomState(42)
            """,
        )
        assert "rng-time-entropy" not in rules_of(findings)


# ------------------------------------------------------------------------- locks
class TestLockDiscipline:
    def test_unlocked_write_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import threading
            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0
                def locked(self):
                    with self._lock:
                        self.count += 1
                def unlocked(self):
                    self.count += 1
            """,
        )
        assert "lock-unlocked-write" in rules_of(findings)

    def test_consistently_locked_writes_pass(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import threading
            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0
                def locked(self):
                    with self._lock:
                        self.count += 1
                def also_locked(self):
                    with self._lock:
                        self.count = 0
            """,
        )
        assert rules_of(findings) == set()

    def test_private_helper_inherits_callers_lock(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import threading
            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0
                def public(self):
                    with self._lock:
                        self._bump()
                def other(self):
                    with self._lock:
                        self.count = 0
                def _bump(self):
                    self.count += 1
            """,
        )
        assert rules_of(findings) == set()

    def test_counter_read_under_lock_is_guarded_by_it(self, tmp_path):
        # No locked write at all: the locked read in stats() names the guard,
        # so the one unlocked bump is a lost-update candidate.
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import threading
            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0
                def run(self):
                    self.count += 1
                def stats(self):
                    with self._lock:
                        return {"count": self.count}
            """,
        )
        assert "lock-unlocked-write" in rules_of(findings)

    def test_flag_assigned_outside_lock_and_read_under_it_passes(self, tmp_path):
        # A plain store is one writer's store, not a read-modify-write.
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import threading
            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.running = False
                def start(self):
                    self.running = True
                def submit(self):
                    with self._lock:
                        return self.running
            """,
        )
        assert rules_of(findings) == set()

    def test_mutating_container_call_counts_as_write(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import threading
            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []
                def locked(self, item):
                    with self._lock:
                        self.items.append(item)
                def unlocked(self):
                    self.items.clear()
            """,
        )
        assert "lock-unlocked-write" in rules_of(findings)

    def test_order_inversion_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import threading
            class Pair:
                def __init__(self):
                    self._one = threading.Lock()
                    self._two = threading.Lock()
                def forward(self):
                    with self._one:
                        with self._two:
                            pass
                def backward(self):
                    with self._two:
                        with self._one:
                            pass
            """,
        )
        assert "lock-order-inversion" in rules_of(findings)

    def test_consistent_order_passes(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import threading
            class Pair:
                def __init__(self):
                    self._one = threading.Lock()
                    self._two = threading.Lock()
                def forward(self):
                    with self._one:
                        with self._two:
                            pass
                def also_forward(self):
                    with self._one:
                        with self._two:
                            pass
            """,
        )
        assert "lock-order-inversion" not in rules_of(findings)

    def test_blocking_call_under_lock_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import threading
            import time
            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                def bad(self):
                    with self._lock:
                        time.sleep(1.0)
            """,
        )
        assert "lock-blocking-call" in rules_of(findings)

    def test_condition_wait_on_held_lock_allowed(self, tmp_path):
        # Condition(self._lock) aliases the lock it wraps; waiting on the held
        # condition releases it, so it is not a blocking call under the lock.
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import threading
            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._idle = threading.Condition(self._lock)
                def drain(self):
                    with self._idle:
                        self._idle.wait(timeout=1.0)
            """,
        )
        assert "lock-blocking-call" not in rules_of(findings)


# ------------------------------------------------------------------------ shapes
class TestShapeContracts:
    def test_extra_required_param_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/distributions/mod.py",
            """
            class BatchedThing:
                def sample_rows(self, rngs, extra):
                    return None
            """,
        )
        assert "shape-impl-signature" in rules_of(findings)

    def test_contract_signature_passes(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/distributions/mod.py",
            """
            class BatchedThing:
                def sample_rows(self, rngs=None):
                    return None
                def log_prob_rows(self, values):
                    return None
            """,
        )
        assert "shape-impl-signature" not in rules_of(findings)


# ----------------------------------------------------------------------- pickle
class TestPickleSafety:
    def test_lambda_payload_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import pickle
            def dispatch():
                return pickle.dumps(lambda x: x)
            """,
        )
        assert "pickle-lambda" in rules_of(findings)

    def test_plain_data_payload_passes(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import pickle
            def dispatch(payload):
                return pickle.dumps([payload, 1, 2])
            """,
        )
        assert rules_of(findings) == set()

    def test_generator_into_mp_queue_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import multiprocessing
            def dispatch(task_queue, items):
                task_queue.put((item for item in items))
            """,
        )
        assert "pickle-generator" in rules_of(findings)

    def test_thread_queue_put_is_not_a_pickle_boundary(self, tmp_path):
        # Without multiprocessing in the module, queue.Queue.put stays in
        # process and may carry anything.
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import queue
            def dispatch(task_queue, items):
                task_queue.put(lambda: items)
            """,
        )
        assert rules_of(findings) == set()

    def test_lambda_sent_on_a_pipe_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import multiprocessing
            def dispatch(worker, items):
                worker.connection.send((0, lambda: items))
            """,
        )
        assert "pickle-lambda" in rules_of(findings)

    def test_send_without_multiprocessing_is_not_a_pickle_boundary(self, tmp_path):
        # A socket-like connection's send in a module that never touches
        # multiprocessing moves bytes, not pickles.
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import socket
            def dispatch(connection, items):
                connection.send(lambda: items)
            """,
        )
        assert rules_of(findings) == set()

    def test_local_function_payload_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import pickle
            def dispatch():
                def inner():
                    return 1
                return pickle.dumps(inner)
            """,
        )
        assert "pickle-local-function" in rules_of(findings)

    def test_open_handle_payload_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import pickle
            def dispatch(path):
                handle = open(path)
                return pickle.dumps(handle)
            """,
        )
        assert "pickle-open-handle" in rules_of(findings)

    def test_read_content_not_handle_passes(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import pickle
            def dispatch(path):
                data = open(path).read()
                return pickle.dumps(data)
            """,
        )
        assert "pickle-open-handle" not in rules_of(findings)


# ----------------------------------------------------------------- JSON schema
class TestSchema:
    def test_to_dict_is_exactly_the_stable_schema(self):
        finding = Finding("src/a.py", 3, "rng-module-call", "error", "msg")
        payload = finding.to_dict()
        assert tuple(payload.keys()) == SCHEMA_KEYS == (
            "file", "line", "rule", "severity", "message",
        )
        assert Finding.from_dict(payload) == finding

    def test_rule_names_are_unique_across_checkers(self):
        seen = {}
        for checker in all_checkers():
            for rule in checker.rules:
                assert rule not in seen, f"{rule} claimed by {seen.get(rule)} and {checker.name}"
                seen[rule] = checker.name


# ------------------------------------------------------------------------- CLI
class TestCommandLine:
    def _run(self, *args, cwd=None):
        env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            cwd=cwd or str(REPO_ROOT),
            env=env,
        )

    def test_repo_tree_is_clean(self):
        result = self._run("src")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_seeded_violation_fails_naming_the_rule(self, tmp_path):
        bad = tmp_path / "repro" / "ppl" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
        result = self._run(str(tmp_path))
        assert result.returncode == 1
        assert "rng-module-call" in result.stdout

    def test_json_output_carries_the_schema(self, tmp_path):
        bad = tmp_path / "repro" / "ppl" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
        result = self._run(str(tmp_path), "--format", "json")
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["findings"], report
        assert tuple(report["findings"][0].keys()) == ("file", "line", "rule", "severity", "message")

    def test_list_rules_covers_every_checker(self):
        result = self._run("--list-rules")
        assert result.returncode == 0
        for checker in all_checkers():
            assert checker.name in result.stdout
            for rule in checker.rules:
                assert rule in result.stdout

    def test_syntax_error_fails_the_gate(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        result = self._run(str(tmp_path))
        assert result.returncode == 1
        assert "syntax-error" in result.stdout


# ------------------------------------------------------------ the gate itself
class TestGate:
    """The gate has one way to pass: no finding at or above ``--severity``.

    There is no baseline file, no suppression comment and no changed-files
    scope; these run :func:`main` in-process.
    """

    ERROR_TREE = {"repro/ppl/mod.py": "import numpy as np\nx = np.random.rand(3)\n"}
    WARNING_TREE = {
        "repro/serving/mod.py": """
        import threading
        import time

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()

            def slow(self):
                with self._lock:
                    time.sleep(1.0)
        """
    }

    def _tree(self, tmp_path, files):
        for rel_path, source in files.items():
            path = tmp_path / rel_path
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        return str(tmp_path)

    @pytest.mark.parametrize(
        "comment_lines",
        [
            ["x = np.random.rand(3)  # repro-lint: disable=rng-module-call"],
            ["# repro-lint: disable=rng-module-call", "x = np.random.rand(3)"],
            ["x = np.random.rand(3)  # repro-lint: disable=all"],
        ],
        ids=["same-line", "line-above", "disable-all"],
    )
    def test_a_repro_lint_comment_hides_nothing(self, tmp_path, capsys, comment_lines):
        source = "\n".join(["import numpy as np", *comment_lines]) + "\n"
        root = self._tree(tmp_path, {"repro/ppl/mod.py": source})
        assert main([root]) == 1
        assert "rng-module-call" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag",
        [
            ["--baseline", "analysis_baseline.json"],
            ["--no-baseline"],
            ["--write-baseline"],
            ["--output", "json"],
            ["--changed-only"],
            ["--changed-base", "main"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_a_removed_flag_is_a_usage_error(self, tmp_path, capsys, flag):
        root = self._tree(tmp_path, {"repro/ppl/clean.py": "x = 1\n"})
        with pytest.raises(SystemExit) as exit_info:
            main([root, *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_a_clean_tree_passes_with_an_empty_report(self, tmp_path, capsys):
        root = self._tree(tmp_path, {"repro/ppl/clean.py": "x = 1\n"})
        report_path = tmp_path / "report.json"
        assert main([root, "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report == {"findings": [], "severity_gate": "error", "gating": []}
        assert "0 finding(s), 0 at/above --severity error" in capsys.readouterr().err

    def test_report_separates_findings_from_the_gating_ones(self, tmp_path, capsys):
        root = self._tree(tmp_path, {**self.ERROR_TREE, **self.WARNING_TREE})
        report_path = tmp_path / "report.json"
        assert main([root, "--report", str(report_path)]) == 1
        report = json.loads(report_path.read_text())
        assert rules_of(Finding(**f) for f in report["findings"]) == {
            "rng-module-call",
            "lock-blocking-call",
        }
        assert [f["rule"] for f in report["gating"]] == ["rng-module-call"]
        assert "2 finding(s), 1 at/above --severity error" in capsys.readouterr().err

    def test_json_format_prints_the_report_file_verbatim(self, tmp_path, capsys):
        root = self._tree(tmp_path, self.WARNING_TREE)
        report_path = tmp_path / "report.json"
        assert main([root, "--format", "json", "--severity", "warning", "--report", str(report_path)]) == 1
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(report_path.read_text())
        assert printed["severity_gate"] == "warning"
        assert printed["gating"] == printed["findings"] != []

    def test_github_format_marks_warnings_as_warnings(self, tmp_path, capsys):
        root = self._tree(tmp_path, self.WARNING_TREE)
        assert main([root, "--format", "github"]) == 0
        annotations = capsys.readouterr().out.splitlines()
        assert annotations and all(line.startswith("::warning ") for line in annotations)
        assert all("title=lock-blocking-call::" in line for line in annotations)

    def test_github_annotation_escapes_its_message(self):
        finding = Finding("a.py", 3, "rng-module-call", "error", "100% wrong\nsecond\rline")
        assert _github_line(finding) == (
            "::error file=a.py,line=3,title=rng-module-call::100%25 wrong%0Asecond%0Dline"
        )

    def test_a_missing_path_is_a_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "no-such-dir")]) == 2
        assert "error:" in capsys.readouterr().err


# ------------------------------------------------- interprocedural lock rules
class TestInterproceduralLocks:
    def test_blocking_callee_in_another_module_flagged_at_the_call_site(self, tmp_path):
        findings = lint_files(
            tmp_path,
            {
                "repro/serving/svc.py": """
                import threading
                from repro.serving.helper import finish_request

                class Service:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def bump(self):
                        with self._lock:
                            finish_request(self)
                """,
                "repro/serving/helper.py": """
                import time

                def finish_request(svc):
                    time.sleep(0.1)
                """,
            },
        )
        blocking = [f for f in findings if f.rule == "lock-blocking-call"]
        assert len(blocking) == 1
        assert "svc.py" in blocking[0].file
        assert "finish_request" in blocking[0].message
        assert "time.sleep" in blocking[0].message  # the witness chain

    def test_private_helper_in_another_module_inherits_the_callers_lock(self, tmp_path):
        # _apply writes without a lexical lock scope, but its only call site
        # (in a different module) holds the lock -> no unlocked-write.
        findings = lint_files(
            tmp_path,
            {
                "repro/serving/svc.py": """
                import threading
                from repro.serving.state import Counter

                class Service:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.counter = Counter()

                    def bump(self, counter):
                        with self._lock:
                            counter._apply(1)
                """,
                "repro/serving/state.py": """
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._value = 0

                    def bump(self):
                        with self._lock:
                            self._apply(1)

                    def _apply(self, delta):
                        self._value += delta
                """,
            },
        )
        assert "lock-unlocked-write" not in rules_of(findings)

    def test_callback_registered_through_a_constructor_is_traced(self, tmp_path):
        # Sched calls self._cb() under its lock; the callback is Service's
        # bound method, injected via Sched(cb=...) in another module, and it
        # blocks -> blocking-under-lock at the scheduler's call site.
        findings = lint_files(
            tmp_path,
            {
                "repro/serving/sched.py": """
                import threading

                class Sched:
                    def __init__(self, cb):
                        self._lock = threading.Lock()
                        self._cb = cb

                    def run(self):
                        with self._lock:
                            self._cb()
                """,
                "repro/serving/svc.py": """
                import queue
                from repro.serving.sched import Sched

                class Service:
                    def __init__(self):
                        self._queue = queue.Queue()
                        self._sched = Sched(cb=self._wait_for_work)

                    def _wait_for_work(self):
                        return self._queue.get()
                """,
            },
        )
        blocking = [f for f in findings if f.rule == "lock-blocking-call"]
        assert blocking, rules_of(findings)
        # The callback inherits the scheduler's lock on entry, so the finding
        # lands at the deepest site — the blocking call itself — naming the
        # foreign lock that is held there.
        assert any(
            "svc.py" in f.file and "Sched._lock" in f.message for f in blocking
        ), [f.message for f in blocking]

    def test_lock_order_inversion_across_modules(self, tmp_path):
        # a.forward holds a._LOCK and calls into b (which takes b._LOCK);
        # b.backward holds b._LOCK and calls into a (which takes a._LOCK).
        # Neither file alone shows a nesting — only the cross-module
        # transitive-acquisition edges close the cycle.
        findings = lint_files(
            tmp_path,
            {
                "repro/serving/a.py": """
                import threading
                from repro.serving import b

                _LOCK = threading.Lock()

                def forward():
                    with _LOCK:
                        b.take()

                def take():
                    with _LOCK:
                        pass
                """,
                "repro/serving/b.py": """
                import threading
                from repro.serving import a

                _LOCK = threading.Lock()

                def backward():
                    with _LOCK:
                        a.take()

                def take():
                    with _LOCK:
                        pass
                """,
            },
        )
        inversions = [f for f in findings if f.rule == "lock-order-inversion"]
        assert inversions, rules_of(findings)

    def test_consistent_cross_module_order_passes(self, tmp_path):
        # Same shape as the inversion fixture, but every path agrees on the
        # a-before-b order, so the transitive edges stay acyclic.
        findings = lint_files(
            tmp_path,
            {
                "repro/serving/a.py": """
                import threading
                from repro.serving import b

                _LOCK = threading.Lock()

                def forward():
                    with _LOCK:
                        b.take()

                def also_forward():
                    with _LOCK:
                        b.take()
                """,
                "repro/serving/b.py": """
                import threading

                _LOCK = threading.Lock()

                def take():
                    with _LOCK:
                        pass

                def backward():
                    with _LOCK:
                        pass
                """,
            },
        )
        assert "lock-order-inversion" not in rules_of(findings)

    def test_the_services_pool_attribute_has_both_pool_types(self):
        # The lock checker follows ``self.workers.submit/refresh/stop`` into
        # whichever pool the service built, so the attribute must carry both.
        from repro.analysis.core import parse_contexts
        from repro.analysis.project import Project

        contexts, errors = parse_contexts([str(SRC_ROOT)])
        assert not errors
        service = Project(contexts).classes["repro.serving.service.PosteriorService"]
        assert service.attr_types["workers"] == {
            "repro.serving.workers.CohortWorkerPool",
            "repro.serving.procpool.ProcessCohortPool",
        }


# ----------------------------------------------------- deterministic iteration
class TestDeterministicIteration:
    def test_for_loop_over_a_set_on_a_hot_path_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/svc.py",
            """
            def drain(items):
                pending = set(items)
                for item in pending:
                    print(item)
            """,
        )
        assert "det-set-iteration" in rules_of(findings)

    def test_set_attribute_seen_from_another_method(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/svc.py",
            """
            class Service:
                def __init__(self):
                    self._pending = set()

                def snapshot(self):
                    return list(self._pending)
            """,
        )
        assert "det-set-iteration" in rules_of(findings)

    def test_sorted_iteration_passes(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/svc.py",
            """
            def drain(items):
                pending = set(items)
                for item in sorted(pending):
                    print(item)
                return len(pending)
            """,
        )
        assert "det-set-iteration" not in rules_of(findings)

    def test_cold_path_is_out_of_scope(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/analysis/mod.py",
            """
            def drain(items):
                pending = set(items)
                for item in pending:
                    print(item)
            """,
        )
        assert "det-set-iteration" not in rules_of(findings)

    def test_arbitrary_set_pop_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/svc.py",
            """
            def steal(ready):
                work = set(ready)
                return work.pop()
            """,
        )
        assert "det-set-iteration" in rules_of(findings)


# --------------------------------------------------------- plan immutability
class TestPlanImmutability:
    def test_leased_plan_attribute_write_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/ppl/inference/engine.py",
            """
            def run(cache, network):
                plan, scratch = cache.lease(network, 8)
                plan.bucket_size = 16
            """,
        )
        assert "plan-attribute-write" in rules_of(findings)

    def test_compile_plan_binding_tracked(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/svc.py",
            """
            from repro.ppl.inference.plans import compile_plan

            def warm(network, trace_type, exemplar, flags):
                compiled = compile_plan(network, trace_type, exemplar, flags, 8)
                compiled.network_version = 0
            """,
        )
        assert "plan-attribute-write" in rules_of(findings)

    def test_setattr_bypass_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/ppl/inference/engine.py",
            """
            def patch(plan):
                object.__setattr__(plan, "steps", ())
            """,
        )
        assert "plan-setattr-bypass" in rules_of(findings)

    def test_plan_step_iteration_variable_tracked(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/ppl/inference/engine.py",
            """
            def mutate(plan):
                for step in plan.steps:
                    step.kind = "fallback"
            """,
        )
        assert "plan-attribute-write" in rules_of(findings)

    def test_owning_module_is_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/ppl/inference/plans.py",
            """
            def fill(plan):
                object.__setattr__(plan, "steps", ())
                plan.bucket_size = 4
            """,
        )
        assert "plan-attribute-write" not in rules_of(findings)
        assert "plan-setattr-bypass" not in rules_of(findings)

    def test_scratch_writes_and_plan_reads_pass(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/ppl/inference/engine.py",
            """
            def run(cache, network, rows):
                plan, scratch = cache.lease(network, 8)
                scratch.cursor = 0
                scratch.lstm_input[:4] = rows
                return plan.bucket_size
            """,
        )
        assert "plan-attribute-write" not in rules_of(findings)


# ----------------------------------------------------------- CLI satellites
class TestCliSatellites:
    WARNING_ONLY_TREE = """
    import threading
    import time

    class Pool:
        def __init__(self):
            self._lock = threading.Lock()

        def slow(self):
            with self._lock:
                time.sleep(1.0)
    """

    def _run(self, *args, cwd=None):
        env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            cwd=cwd or str(REPO_ROOT),
            env=env,
        )

    def _write(self, tmp_path, rel_path, source):
        path = tmp_path / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))

    def test_warnings_are_reported_but_do_not_fail_the_default_gate(self, tmp_path):
        self._write(tmp_path, "repro/serving/mod.py", self.WARNING_ONLY_TREE)
        result = self._run(str(tmp_path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "lock-blocking-call" in result.stdout  # reported anyway

    def test_severity_warning_gates_on_warnings(self, tmp_path):
        self._write(tmp_path, "repro/serving/mod.py", self.WARNING_ONLY_TREE)
        result = self._run(str(tmp_path), "--severity", "warning")
        assert result.returncode == 1, result.stdout + result.stderr

    def test_errors_fail_the_default_gate(self, tmp_path):
        self._write(
            tmp_path,
            "repro/ppl/mod.py",
            "import numpy as np\nx = np.random.rand(3)\n",
        )
        result = self._run(str(tmp_path))
        assert result.returncode == 1

    def test_github_format_emits_workflow_annotations(self, tmp_path):
        self._write(
            tmp_path,
            "repro/ppl/mod.py",
            "import numpy as np\nx = np.random.rand(3)\n",
        )
        result = self._run(str(tmp_path), "--format", "github")
        assert result.returncode == 1
        line = [l for l in result.stdout.splitlines() if l.startswith("::error ")][0]
        assert "file=" in line and ",line=" in line and "rng-module-call" in line


# ------------------------------------------------------------ real-site score
SRC_ROOT = REPO_ROOT / "src"

#: The routine send of a shard to a process-pool worker, a pickle boundary.
_SHARD_SEND = "worker.connection.send((shard_id, self._shards[shard_id].jobs))"
#: The top of ``start_piped_child``, where a local or a handle can be added.
_PIPE_START = "    with _PIPE_START_LOCK:\n        connection, remote = context.Pipe()\n"
#: ``start_piped_child``'s child payload.
_CHILD_ARGS = "args=(remote, [connection, *parent_ends], *args)"
#: ``MicroBatchScheduler._run`` calls the shed hook after releasing ``_cond``.
_SHED_OUTSIDE_COND = (
    "                cohort, shed = self._build_cohort(now)\n"
    "            for request in shed:\n"
    "                self.num_shed_requests += 1\n"
    "                if self._on_shed is not None:\n"
    "                    self._on_shed(request)"
)
#: ``PosteriorService._shed``'s first line.
_SHED_DOC = "        \"\"\"Scheduler shed hook: the request's deadline passed while queued.\"\"\"\n"


def _indented(text, spaces=4):
    """``text`` with every line after the first indented ``spaces`` deeper."""
    first, *rest = text.split("\n")
    return "\n".join([first] + [" " * spaces + line for line in rest])


#: One real site per kind each kept rule covers, seeded with the construct the
#: rule names: ``(rule, ((path under src/, old text, new text), ...))``.  A
#: rule earns its place only while it flags such a mutation, so each row must
#: keep drawing a finding of its rule and the unmutated files none.
REAL_SITE_MUTATIONS = {
    "rng-module-call:Normal.sample": ("rng-module-call", (
        ("repro/distributions/normal.py",
         "return self._rng(rng).normal(self.loc, self.scale, size=size)",
         "return np.random.normal(self.loc, self.scale, size=size)"),)),
    "rng-module-call:epoch-shuffle": ("rng-module-call", (
        ("repro/data/sampler.py", "rng.generator.shuffle(order)", "np.random.shuffle(order)"),)),
    "rng-module-call:packed-epoch-order": ("rng-module-call", (
        ("repro/data/packing.py", "rng.generator.permutation(len(self.batches))",
         "np.random.permutation(len(self.batches))"),)),
    "rng-module-call:rmh-accept": ("rng-module-call", (
        ("repro/ppl/inference/random_walk_metropolis.py",
         "math.log(self._rng.uniform(0.0, 1.0) + 1e-300)",
         "math.log(np.random.uniform(0.0, 1.0) + 1e-300)"),)),
    "rng-module-call:request_key": ("rng-module-call", (
        ("repro/ppl/inference/batched.py",
         "rng.child_key((int(rng.generator.integers(0, 2**31 - 1)),))",
         "rng.child_key((int(np.random.randint(0, 2**31 - 1)),))"),)),
    "rng-direct-construction:epoch-shuffle": ("rng-direct-construction", (
        ("repro/data/sampler.py",
         "rng = RandomState(self.seed).spawn(self.epoch)\n        rng.generator.shuffle(order)",
         "np.random.default_rng([self.seed, self.epoch]).shuffle(order)"),)),
    "rng-direct-construction:Distribution._rng": ("rng-direct-construction", (
        ("repro/distributions/distribution.py", "return (rng or get_rng()).generator",
         "return rng.generator if rng is not None else np.random.default_rng()"),)),
    "rng-stdlib-random:epoch-shuffle": ("rng-stdlib-random", (
        ("repro/data/sampler.py", "import numpy as np\n", "import random\n\nimport numpy as np\n"),
        ("repro/data/sampler.py", "rng.generator.shuffle(order)", "random.shuffle(order)"))),
    "rng-stdlib-random:rmh-accept": ("rng-stdlib-random", (
        ("repro/ppl/inference/random_walk_metropolis.py", "import math\n", "import math\nimport random\n"),
        ("repro/ppl/inference/random_walk_metropolis.py",
         "math.log(self._rng.uniform(0.0, 1.0) + 1e-300)", "math.log(random.random() + 1e-300)"))),
    "rng-stdlib-random:packed-epoch-order": ("rng-stdlib-random", (
        ("repro/data/packing.py", "from dataclasses import dataclass\n",
         "import random\nfrom dataclasses import dataclass\n"),
        ("repro/data/packing.py", "rng.generator.permutation(len(self.batches))",
         "random.sample(range(len(self.batches)), len(self.batches))"))),
    "rng-time-entropy:PosteriorService": ("rng-time-entropy", (
        ("repro/serving/service.py", "self._rng = rng or get_rng()",
         "self._rng = rng or RandomState(time.time_ns())"),)),
    "lock-unlocked-write:ProcessCohortPool.stop": ("lock-unlocked-write", (
        ("repro/serving/procpool.py",
         "        with self._lock:\n            self._closing = True  # submit refuses from here on",
         "        self._closing = True  # submit refuses from here on"),)),
    "lock-unlocked-write:CohortWorkerPool.shards_executed": ("lock-unlocked-write", (
        ("repro/serving/workers.py",
         "                with self._stats_lock:\n                    self.shards_executed += 1\n",
         "                self.shards_executed += 1\n"),)),
    "lock-order-inversion:shed-hook": ("lock-order-inversion", (
        ("repro/serving/scheduler.py", _SHED_OUTSIDE_COND, _indented(_SHED_OUTSIDE_COND)),
        ("repro/serving/service.py", _SHED_DOC,
         _SHED_DOC + "        with self._admission_lock:\n"
         "            self._inflight.pop(request.request_id, None)\n"))),
    "lock-blocking-call:ProcessCohortPool._lost": ("lock-blocking-call", (
        ("repro/serving/procpool.py",
         "        worker.process.join(timeout=1.0)\n        with self._lock:\n",
         "        with self._lock:\n            worker.process.join(timeout=1.0)\n"),)),
    "shape-impl-signature:BatchedCategorical.log_prob_rows": ("shape-impl-signature", (
        ("repro/distributions/batched.py",
         "    def log_prob_rows(self, values) -> np.ndarray:\n"
         "        idx = np.asarray(values, dtype=np.int64).reshape(-1)",
         "    def log_prob_rows(self, value) -> np.ndarray:\n"
         "        idx = np.asarray(value, dtype=np.int64).reshape(-1)"),)),
    "pickle-lambda:shard-send": ("pickle-lambda", (
        ("repro/serving/procpool.py", _SHARD_SEND,
         "worker.connection.send((shard_id, self._shards[shard_id].jobs, lambda: None))"),)),
    "pickle-lambda:rank-send": ("pickle-lambda", (
        ("repro/distributed/trainer.py", "self.connection.send(assignments)",
         "self.connection.send((assignments, lambda: None))"),)),
    "pickle-lambda:process-target": ("pickle-lambda", (
        ("repro/common/utils.py", "target=target, args=", "target=lambda *call: target(*call), args="),)),
    "pickle-generator:shard-send": ("pickle-generator", (
        ("repro/serving/procpool.py", _SHARD_SEND,
         "worker.connection.send((shard_id, (job for job in self._shards[shard_id].jobs)))"),)),
    "pickle-generator:process-args": ("pickle-generator", (
        ("repro/common/utils.py", _CHILD_ARGS,
         "args=(remote, (end for end in (connection, *parent_ends)), *args)"),)),
    "pickle-local-function:shard-send": ("pickle-local-function", (
        ("repro/serving/procpool.py", "        shard_id = worker.shard\n        try:\n",
         "        shard_id = worker.shard\n\n        def on_reply(reply):\n"
         "            return reply\n\n        try:\n"),
        ("repro/serving/procpool.py", _SHARD_SEND,
         "worker.connection.send((shard_id, self._shards[shard_id].jobs, on_reply))"))),
    "pickle-local-function:process-target": ("pickle-local-function", (
        ("repro/common/utils.py", _PIPE_START,
         "    def child(*call):\n        return target(*call)\n\n" + _PIPE_START),
        ("repro/common/utils.py", "target=target, args=", "target=child, args="))),
    "pickle-open-handle:shard-send": ("pickle-open-handle", (
        ("repro/serving/procpool.py", "        shard_id = worker.shard\n        try:\n",
         "        shard_id = worker.shard\n        log = open(os.devnull, \"w\")\n        try:\n"),
        ("repro/serving/procpool.py", _SHARD_SEND,
         "worker.connection.send((shard_id, self._shards[shard_id].jobs, log))"))),
    "pickle-open-handle:process-args": ("pickle-open-handle", (
        ("repro/common/utils.py", _PIPE_START, "    log = open(os.devnull, \"w\")\n" + _PIPE_START),
        ("repro/common/utils.py", _CHILD_ARGS, "args=(remote, [connection, *parent_ends, log], *args)"))),
    "det-set-iteration:BatchedProposalSession.proposals": ("det-set-iteration", (
        ("repro/ppl/nn/inference_network.py",
         "        for address, members in groups.items():\n            if address not in layers:",
         "        for address in set(groups):\n            members = groups[address]\n"
         "            if address not in layers:"),)),
}


class TestKeptRulesSeeTheirRealSites:
    """Each kept rule still flags a violation seeded at a real site of ``src/``.

    Only the files a row edits are copied and linted, under their paths in
    the package, so path-scoped rules (hot paths, sanctioned files) apply.
    """

    @pytest.mark.parametrize("row", sorted(REAL_SITE_MUTATIONS))
    def test_seeded_violation_is_flagged_and_the_real_file_is_not(self, tmp_path, row):
        rule, edits = REAL_SITE_MUTATIONS[row]
        sources = {path: (SRC_ROOT / path).read_text() for path, _, _ in edits}
        for path, text in sources.items():
            (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / path).write_text(text)
        assert rule not in rules_of(run_analysis([str(tmp_path)], all_checkers()))

        mutated = dict(sources)
        for path, old, new in edits:
            assert mutated[path].count(old) == 1, f"{row}: the scored site in {path} moved"
            mutated[path] = mutated[path].replace(old, new)
        for path, text in mutated.items():
            (tmp_path / path).write_text(text)
        assert rule in rules_of(run_analysis([str(tmp_path)], all_checkers()))
