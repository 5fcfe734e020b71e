"""Tests for repro.analysis: one positive and one negative case per rule,
suppressions, the baseline round-trip, the stable JSON schema, and the CLI
gate over the real tree."""

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    SCHEMA_KEYS,
    all_checkers,
    diff_against_baseline,
    load_baseline,
    run_analysis,
    save_baseline,
)
from repro.analysis.suppressions import is_suppressed, parse_suppressions

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

    def test_construction_in_loop_flagged_in_hot_path(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            from repro.common.rng import RandomState
            def per_item(n):
                return [RandomState(i) for i in range(n)]
            """,
        )
        assert "rng-construction-in-loop" in rules_of(findings)

    def test_construction_in_loop_ignored_off_hot_path(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/utils/mod.py",
            """
            from repro.common.rng import RandomState
            def per_item(n):
                return [RandomState(i) for i in range(n)]
            """,
        )
        assert "rng-construction-in-loop" not in rules_of(findings)

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

    def test_missing_abstract_method_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/distributions/mod.py",
            """
            class BatchedDistribution:
                pass
            class BatchedHalf(BatchedDistribution):
                def sample_rows(self, rngs=None):
                    return None
            """,
        )
        assert "shape-impl-missing" in rules_of(findings)

    def test_complete_subclass_passes(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/distributions/mod.py",
            """
            class BatchedDistribution:
                pass
            class BatchedFull(BatchedDistribution):
                def sample_rows(self, rngs=None):
                    return None
                def log_prob_rows(self, values):
                    return None
                def row_distribution(self, index):
                    return None
            """,
        )
        assert "shape-impl-missing" not in rules_of(findings)

    def test_callsite_missing_required_arg_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/ppl/mod.py",
            """
            def score(batched):
                return batched.log_prob_rows()
            """,
        )
        assert "shape-callsite-arity" in rules_of(findings)

    def test_callsite_matching_contract_passes(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/ppl/mod.py",
            """
            def score(batched, values, rngs):
                batched.sample_rows(rngs)
                return batched.log_prob_rows(values)
            """,
        )
        assert "shape-callsite-arity" not in rules_of(findings)

    def test_callsite_unknown_keyword_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/ppl/mod.py",
            """
            def draw(batched):
                return batched.sample_rows(generator=None)
            """,
        )
        assert "shape-callsite-arity" in rules_of(findings)


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

    def test_captured_lock_attribute_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/mod.py",
            """
            import pickle
            import threading
            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                def dispatch(self):
                    return pickle.dumps(self._lock)
            """,
        )
        assert "pickle-lock" in rules_of(findings)


# ----------------------------------------------------------------- suppressions
class TestSuppressions:
    def test_same_line_disable(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/ppl/mod.py",
            """
            import numpy as np
            x = np.random.rand(3)  # repro-lint: disable=rng-module-call
            """,
        )
        assert "rng-module-call" not in rules_of(findings)

    def test_line_above_disable(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/ppl/mod.py",
            """
            import numpy as np
            # repro-lint: disable=rng-module-call
            x = np.random.rand(3)
            """,
        )
        assert "rng-module-call" not in rules_of(findings)

    def test_disable_all(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/ppl/mod.py",
            """
            import numpy as np
            x = np.random.rand(3)  # repro-lint: disable=all
            """,
        )
        assert rules_of(findings) == set()

    def test_unrelated_rule_stays(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/ppl/mod.py",
            """
            import numpy as np
            x = np.random.rand(3)  # repro-lint: disable=rng-stdlib-random
            """,
        )
        assert "rng-module-call" in rules_of(findings)

    def test_comment_inside_string_is_inert(self):
        suppressions = parse_suppressions(
            'text = "# repro-lint: disable=rng-module-call"\n'
        )
        assert suppressions == {}

    def test_is_suppressed_window(self):
        suppressions = {10: {"rng-module-call"}}
        assert is_suppressed(suppressions, 10, "rng-module-call")
        assert is_suppressed(suppressions, 11, "rng-module-call")
        assert not is_suppressed(suppressions, 12, "rng-module-call")


# --------------------------------------------------------------------- baseline
class TestBaseline:
    def _findings(self):
        return [
            Finding("src/a.py", 3, "rng-module-call", "error", "msg one"),
            Finding("src/a.py", 9, "rng-module-call", "error", "msg one"),
            Finding("src/b.py", 5, "lock-unlocked-write", "error", "msg two"),
        ]

    def test_round_trip_is_clean(self, tmp_path):
        path = tmp_path / "baseline.json"
        findings = self._findings()
        save_baseline(str(path), findings)
        new, stale = diff_against_baseline(findings, load_baseline(str(path)))
        assert new == []
        assert stale == []

    def test_line_shift_stays_covered(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(str(path), self._findings())
        shifted = [
            Finding(f.file, f.line + 40, f.rule, f.severity, f.message)
            for f in self._findings()
        ]
        new, stale = diff_against_baseline(shifted, load_baseline(str(path)))
        assert new == []
        assert stale == []

    def test_new_finding_reported(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(str(path), self._findings())
        extra = Finding("src/c.py", 1, "pickle-lambda", "error", "fresh")
        new, _ = diff_against_baseline(self._findings() + [extra], load_baseline(str(path)))
        assert new == [extra]

    def test_multiplicity_counts(self, tmp_path):
        # Two identical findings need two baseline entries; dropping one
        # baseline entry exposes the extra occurrence as new.
        path = tmp_path / "baseline.json"
        save_baseline(str(path), self._findings()[:1])
        new, _ = diff_against_baseline(self._findings()[:2], load_baseline(str(path)))
        assert len(new) == 1

    def test_fixed_finding_reported_stale(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(str(path), self._findings())
        new, stale = diff_against_baseline(self._findings()[:2], load_baseline(str(path)))
        assert new == []
        assert stale == [("src/b.py", "lock-unlocked-write", "msg two")]


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

    def test_repo_tree_is_clean_against_committed_baseline(self):
        result = self._run("src")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_seeded_violation_fails_naming_the_rule(self, tmp_path):
        bad = tmp_path / "repro" / "ppl" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
        result = self._run(str(tmp_path), "--no-baseline")
        assert result.returncode == 1
        assert "rng-module-call" in result.stdout

    def test_json_output_carries_the_schema(self, tmp_path):
        bad = tmp_path / "repro" / "ppl" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
        result = self._run(str(tmp_path), "--no-baseline", "--output", "json")
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["new"], report
        assert tuple(report["new"][0].keys()) == ("file", "line", "rule", "severity", "message")

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
        result = self._run(str(tmp_path), "--no-baseline")
        assert result.returncode == 1
        assert "syntax-error" in result.stdout


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


# ------------------------------------------------------- rng stream ownership
class TestRngOwnership:
    def test_construction_below_a_dispatched_job_body_flagged(self, tmp_path):
        # The construction hides one call below the dispatched callable, in
        # another module: only the call-graph fixpoint can see it.
        findings = lint_files(
            tmp_path,
            {
                "repro/serving/pooluser.py": """
                from repro.serving.jobs import job_body

                def launch(pool):
                    for index in range(4):
                        pool.submit(job_body, index)
                """,
                "repro/serving/jobs.py": """
                from repro.ppl.draws import draw_some

                def job_body(index):
                    return draw_some(index)
                """,
                "repro/ppl/draws.py": """
                from repro.common.rng import RandomState

                def draw_some(index):
                    rng = RandomState(index)
                    return rng
                """,
            },
        )
        constructions = [f for f in findings if f.rule == "rng-job-construction"]
        assert constructions, rules_of(findings)
        assert any("draws.py" in f.file for f in constructions)
        assert "dispatched" in constructions[0].message

    def test_parent_derived_spawn_per_job_passes(self, tmp_path):
        findings = lint_files(
            tmp_path,
            {
                "repro/serving/pooluser.py": """
                from repro.common.rng import get_rng
                from repro.serving.jobs import job_body

                def launch(pool, base):
                    for index in range(4):
                        child = base.spawn((7, index))
                        pool.submit(job_body, child)
                """,
                "repro/serving/jobs.py": """
                def job_body(rng):
                    return rng.generator.normal()
                """,
            },
        )
        assert "rng-job-construction" not in rules_of(findings)
        assert "rng-shared-stream" not in rules_of(findings)

    def test_a_job_building_its_stream_from_a_shipped_key_passes(self, tmp_path):
        # What trace jobs do: the parent derives a key per job, the job body
        # builds its generator from it — a pure function of the key, not a
        # construction the rule forbids.
        findings = lint_files(
            tmp_path,
            {
                "repro/serving/pooluser.py": """
                from repro.serving.jobs import job_body

                def launch(pool, base):
                    for index in range(4):
                        key = base.child_key((7, index))
                        pool.submit(job_body, key)
                """,
                "repro/serving/jobs.py": """
                from repro.common.rng import RandomState

                def job_body(key):
                    return RandomState.from_key(key).generator.normal()
                """,
            },
        )
        assert "rng-job-construction" not in rules_of(findings)
        assert "rng-shared-stream" not in rules_of(findings)

    def test_one_stream_dispatched_from_a_loop_flagged(self, tmp_path):
        findings = lint_files(
            tmp_path,
            {
                "repro/serving/pooluser.py": """
                from repro.common.rng import get_rng
                from repro.serving.jobs import job_body

                def launch(pool):
                    rng = get_rng()
                    for index in range(4):
                        pool.submit(job_body, rng)
                """,
                "repro/serving/jobs.py": """
                def job_body(rng):
                    return rng.generator.normal()
                """,
            },
        )
        shared = [f for f in findings if f.rule == "rng-shared-stream"]
        assert shared, rules_of(findings)
        assert "loop" in shared[0].message

    def test_one_stream_reaching_two_dispatch_sites_flagged(self, tmp_path):
        findings = lint_files(
            tmp_path,
            {
                "repro/serving/pooluser.py": """
                from repro.common.rng import get_rng
                from repro.serving.jobs import job_body, other_body

                def launch(pool):
                    rng = get_rng()
                    pool.submit(job_body, rng)
                    pool.submit(other_body, rng)
                """,
                "repro/serving/jobs.py": """
                def job_body(rng):
                    return rng.generator.normal()

                def other_body(rng):
                    return rng.generator.normal()
                """,
            },
        )
        shared = [f for f in findings if f.rule == "rng-shared-stream"]
        assert shared, rules_of(findings)
        assert "concurrent consumers" in shared[0].message


# ---------------------------------------------------------- future resolution
class TestFutureResolution:
    def test_branch_that_skips_resolution_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/svc.py",
            """
            from concurrent.futures import Future

            def handle(ready):
                fut = Future()
                if ready:
                    fut.set_result(1)
                return None
            """,
        )
        leaks = [f for f in findings if f.rule == "future-unresolved"]
        assert leaks, rules_of(findings)
        assert "some paths" in leaks[0].message

    def test_resolution_on_every_branch_passes(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/svc.py",
            """
            from concurrent.futures import Future

            def handle(ready):
                fut = Future()
                if ready:
                    fut.set_result(1)
                else:
                    fut.set_exception(ValueError("not ready"))
                return None
            """,
        )
        assert "future-unresolved" not in rules_of(findings)

    def test_try_except_resolution_passes(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/svc.py",
            """
            from concurrent.futures import Future

            def handle(work):
                fut = Future()
                try:
                    value = work()
                except Exception as error:
                    fut.set_exception(error)
                else:
                    fut.set_result(value)
                return None
            """,
        )
        assert "future-unresolved" not in rules_of(findings)

    def test_returned_future_is_a_handoff_not_a_leak(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/svc.py",
            """
            from concurrent.futures import Future

            def admit():
                fut = Future()
                return fut
            """,
        )
        assert "future-unresolved" not in rules_of(findings)

    def test_stored_future_is_a_handoff_not_a_leak(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/serving/svc.py",
            """
            from concurrent.futures import Future

            class Service:
                def admit(self, key):
                    fut = Future()
                    self._inflight[key] = fut
            """,
        )
        assert "future-unresolved" not in rules_of(findings)

    def test_helper_in_another_module_that_resolves_counts(self, tmp_path):
        findings = lint_files(
            tmp_path,
            {
                "repro/serving/svc.py": """
                from concurrent.futures import Future
                from repro.serving.helper import finish

                def handle(value):
                    fut = Future()
                    finish(fut, value)
                """,
                "repro/serving/helper.py": """
                def finish(future, value):
                    future.set_result(value)
                """,
            },
        )
        assert "future-unresolved" not in rules_of(findings)

    def test_helper_that_resolves_on_some_paths_only_flagged(self, tmp_path):
        findings = lint_files(
            tmp_path,
            {
                "repro/serving/svc.py": """
                from concurrent.futures import Future
                from repro.serving.helper import finish

                def handle(value):
                    fut = Future()
                    finish(fut, value)
                """,
                "repro/serving/helper.py": """
                def finish(future, value):
                    if value is not None:
                        future.set_result(value)
                """,
            },
        )
        assert "future-unresolved" in rules_of(findings)


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
        result = self._run(str(tmp_path), "--no-baseline")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "lock-blocking-call" in result.stdout  # reported anyway

    def test_severity_warning_gates_on_warnings(self, tmp_path):
        self._write(tmp_path, "repro/serving/mod.py", self.WARNING_ONLY_TREE)
        result = self._run(str(tmp_path), "--no-baseline", "--severity", "warning")
        assert result.returncode == 1, result.stdout + result.stderr

    def test_errors_fail_the_default_gate(self, tmp_path):
        self._write(
            tmp_path,
            "repro/ppl/mod.py",
            "import numpy as np\nx = np.random.rand(3)\n",
        )
        result = self._run(str(tmp_path), "--no-baseline")
        assert result.returncode == 1

    def test_github_format_emits_workflow_annotations(self, tmp_path):
        self._write(
            tmp_path,
            "repro/ppl/mod.py",
            "import numpy as np\nx = np.random.rand(3)\n",
        )
        result = self._run(str(tmp_path), "--no-baseline", "--format", "github")
        assert result.returncode == 1
        line = [l for l in result.stdout.splitlines() if l.startswith("::error ")][0]
        assert "file=" in line and ",line=" in line and "rng-module-call" in line

    def test_format_and_output_must_agree(self, tmp_path):
        result = self._run("--format", "github", "--output", "json")
        assert result.returncode == 2

    def _git(self, cwd, *args):
        return subprocess.run(
            [
                "git", "-c", "user.email=ci@example.com", "-c", "user.name=ci",
                *args,
            ],
            capture_output=True,
            text=True,
            cwd=str(cwd),
            check=True,
        )

    def test_changed_only_reports_findings_in_new_files(self, tmp_path):
        if shutil.which("git") is None:
            pytest.skip("git not available")
        self._git(tmp_path, "init", "-q")
        self._write(tmp_path, "repro/ppl/clean.py", "x = 1\n")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-qm", "clean tree")
        self._write(
            tmp_path, "repro/ppl/mod.py", "import numpy as np\nx = np.random.rand(3)\n"
        )
        result = self._run("repro", "--no-baseline", "--changed-only", cwd=tmp_path)
        assert result.returncode == 1, result.stdout + result.stderr
        assert "rng-module-call" in result.stdout

    def test_changed_only_filters_out_preexisting_findings(self, tmp_path):
        if shutil.which("git") is None:
            pytest.skip("git not available")
        self._git(tmp_path, "init", "-q")
        self._write(
            tmp_path, "repro/ppl/mod.py", "import numpy as np\nx = np.random.rand(3)\n"
        )
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-qm", "tree with pre-existing debt")
        self._write(tmp_path, "repro/ppl/unrelated.py", "y = 2\n")
        # The whole-program run still sees the old finding...
        full = self._run("repro", "--no-baseline", cwd=tmp_path)
        assert full.returncode == 1
        # ...but the changed-only gate only charges the files this change touched.
        scoped = self._run("repro", "--no-baseline", "--changed-only", cwd=tmp_path)
        assert scoped.returncode == 0, scoped.stdout + scoped.stderr
