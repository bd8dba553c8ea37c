"""The invariant linter's own contract: each rule fires exactly where advertised.

Three layers:

* per-rule (snippet, expected findings) tables — the positive *and*
  negative space of every REP rule, including the scoping exemptions;
* the waiver machinery — justified ``noqa``, suppression hygiene
  (REP000), and the committed-baseline round trip;
* the meta-gate — the linter run over the real tree (``src benchmarks
  examples``) against the committed baseline must exit 0, and the exact
  raw-``argpartition`` pattern behind the PR 5 tie-break bug must be
  caught if anyone re-introduces it.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Severity,
    fingerprint,
    load_baseline,
    run_analysis,
    write_baseline,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.baseline import BaselineError, TODO_JUSTIFICATION
from repro.analysis.engine import META_RULE, PARSE_RULE
from repro.analysis.registry import all_rules
from repro.analysis.suppress import scan_suppressions

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippet(tmp_path, relpath, code, **kwargs):
    """Write *code* at *relpath* under a scratch tree and lint that file."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code), encoding="utf-8")
    return run_analysis([str(target)], **kwargs)


def codes_of(result):
    """The rule codes of the active findings, in report order."""
    return [f.rule for f in result.findings]


# ----------------------------------------------------------------------
# Per-rule tables: (test id, path shape, snippet, expected codes)
# ----------------------------------------------------------------------

RULE_CASES = [
    # --- REP001: no module-level / unseeded RNG --------------------------
    (
        "rep001-np-random-module-fn",
        "src/repro/core/mod.py",
        """
        import numpy as np
        noise = np.random.rand(3)
        """,
        ["REP001"],
    ),
    (
        "rep001-unseeded-default-rng",
        "src/repro/core/mod.py",
        """
        import numpy as np
        rng = np.random.default_rng()
        """,
        ["REP001"],
    ),
    (
        "rep001-seeded-default-rng-ok",
        "src/repro/core/mod.py",
        """
        import numpy as np
        rng = np.random.default_rng(0)
        """,
        [],
    ),
    (
        "rep001-stdlib-random-import",
        "src/repro/core/mod.py",
        """
        import random
        """,
        ["REP001"],
    ),
    (
        "rep001-utils-rng-exempt",
        "src/repro/utils/rng.py",
        """
        import random
        import numpy as np
        rng = np.random.default_rng()
        """,
        [],
    ),
    (
        "rep001-generator-class-ok",
        "src/repro/core/mod.py",
        """
        from numpy.random import Generator, PCG64
        def make(seed):
            return Generator(PCG64(seed))
        """,
        [],
    ),
    # --- REP002: one top-k total order ----------------------------------
    (
        "rep002-argsort-on-scores",
        "src/repro/core/mod.py",
        """
        import numpy as np
        def rank(scores):
            return np.argsort(-scores)
        """,
        ["REP002"],
    ),
    (
        "rep002-method-sort-on-scores",
        "src/repro/core/mod.py",
        """
        def rank(scores):
            scores.sort()
            return scores
        """,
        ["REP002"],
    ),
    (
        "rep002-sorted-builtin-on-scores",
        "src/repro/core/mod.py",
        """
        def best(candidates):
            return sorted(candidates, key=lambda c: c.score)
        """,
        ["REP002"],
    ),
    (
        "rep002-core-topk-exempt",
        "src/repro/core/topk.py",
        """
        import numpy as np
        def top_k_rows(scores, k):
            return np.argpartition(-scores, k - 1)[:, :k]
        """,
        [],
    ),
    (
        "rep002-non-score-sort-ok",
        "src/repro/core/mod.py",
        """
        import numpy as np
        def histogram(counts, anchors):
            order = np.argsort(anchors)
            return np.sort(counts)[order]
        """,
        [],
    ),
    # --- REP003: monotonic clocks ---------------------------------------
    (
        "rep003-time-time-in-benchmarks",
        "benchmarks/bench_mod.py",
        """
        import time
        def measure(fn):
            start = time.time()
            fn()
            return time.time() - start
        """,
        ["REP003", "REP003"],
    ),
    (
        "rep003-from-time-import-time",
        "src/repro/serving/mod.py",
        """
        from time import time
        """,
        ["REP003"],
    ),
    (
        "rep003-perf-counter-ok",
        "benchmarks/bench_mod.py",
        """
        import time
        def measure(fn):
            start = time.perf_counter()
            fn()
            return time.perf_counter() - start
        """,
        [],
    ),
    (
        "rep003-out-of-scope-tree-ok",
        "src/repro/data/mod.py",
        """
        import time
        stamp = time.time()
        """,
        [],
    ),
    # --- REP004: lock discipline ----------------------------------------
    (
        "rep004-asymmetric-guard",
        "src/repro/serving/mod.py",
        """
        import threading

        class Stats:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def bump(self):
                with self._lock:
                    self.count += 1

            def reset(self):
                self.count = 0
        """,
        ["REP004"],
    ),
    (
        "rep004-all-writes-guarded-ok",
        "src/repro/serving/mod.py",
        """
        import threading

        class Stats:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def bump(self):
                with self._lock:
                    self.count += 1

            def reset(self):
                with self._lock:
                    self.count = 0
        """,
        [],
    ),
    (
        "rep004-unguarded-everywhere-ok",
        "src/repro/serving/mod.py",
        """
        class Plain:
            def set(self, value):
                self.value = value

            def clear(self):
                self.value = None
        """,
        [],
    ),
    (
        "rep004-out-of-scope-tree-ok",
        "src/repro/core/mod.py",
        """
        import threading

        class Stats:
            def bump(self):
                with self._lock:
                    self.count += 1

            def reset(self):
                self.count = 0
        """,
        [],
    ),
    # --- REP005: shared-memory lifecycle --------------------------------
    (
        "rep005-create-without-teardown",
        "src/repro/serving/mod.py",
        """
        from multiprocessing.shared_memory import SharedMemory

        def publish(size):
            shm = SharedMemory(create=True, size=size)
            return shm.name
        """,
        ["REP005"],
    ),
    (
        "rep005-create-with-finally-ok",
        "src/repro/serving/mod.py",
        """
        from multiprocessing.shared_memory import SharedMemory

        def publish_once(size):
            shm = SharedMemory(create=True, size=size)
            try:
                return bytes(shm.buf[:1])
            finally:
                shm.close()
                shm.unlink()
        """,
        [],
    ),
    (
        "rep005-create-with-release-method-ok",
        "src/repro/serving/mod.py",
        """
        from multiprocessing.shared_memory import SharedMemory

        class Segment:
            def __init__(self, size):
                self._shm = SharedMemory(create=True, size=size)

            def release(self):
                self._shm.close()
                self._shm.unlink()
        """,
        [],
    ),
    (
        "rep005-attach-without-close",
        "src/repro/serving/mod.py",
        """
        from multiprocessing.shared_memory import SharedMemory

        def read(name):
            shm = SharedMemory(name=name)
            return bytes(shm.buf[:1])
        """,
        ["REP005"],
    ),
    (
        "rep005-attach-with-finally-close-ok",
        "src/repro/serving/mod.py",
        """
        from multiprocessing.shared_memory import SharedMemory

        def read(name):
            shm = SharedMemory(name=name)
            try:
                return bytes(shm.buf[:1])
            finally:
                shm.close()
        """,
        [],
    ),
    # --- REP007: no print() in library code ------------------------------
    (
        "rep007-print-in-library",
        "src/repro/train/mod.py",
        """
        def run(verbose):
            if verbose:
                print("epoch done")
        """,
        ["REP007"],
    ),
    (
        "rep007-cli-exempt",
        "src/repro/cli.py",
        """
        def cmd(args):
            print("served 100 users")
            return 0
        """,
        [],
    ),
    (
        "rep007-main-exempt",
        "src/repro/analysis/__main__.py",
        """
        def main(argv):
            print("2 findings")
            return 1
        """,
        [],
    ),
    (
        "rep007-reporters-exempt",
        "src/repro/analysis/reporters.py",
        """
        def report(findings):
            for finding in findings:
                print(finding)
        """,
        [],
    ),
    (
        "rep007-examples-exempt",
        "examples/repro/quickstart.py",
        """
        print("hello")
        """,
        [],
    ),
    (
        "rep007-logger-ok",
        "src/repro/train/mod.py",
        """
        from repro.utils.logging import get_logger

        logger = get_logger(__name__)

        def run():
            logger.info("epoch done")
        """,
        [],
    ),
    # --- REP008: no blocking calls in the gateway ------------------------
    (
        "rep008-time-sleep",
        "src/repro/gateway/server.py",
        """
        import time

        async def backoff():
            time.sleep(0.1)
        """,
        ["REP008"],
    ),
    (
        "rep008-sleep-alias",
        "src/repro/gateway/loadgen.py",
        """
        from time import sleep as pause

        async def backoff():
            pause(0.1)
        """,
        ["REP008", "REP008"],
    ),
    (
        "rep008-sync-socket",
        "src/repro/gateway/wire.py",
        """
        import socket

        def connect(host, port):
            return socket.create_connection((host, port))
        """,
        ["REP008"],
    ),
    (
        "rep008-untimed-queue-get",
        "src/repro/gateway/batching.py",
        """
        import queue

        work = queue.Queue()

        async def drain():
            return work.get()
        """,
        ["REP008"],
    ),
    (
        "rep008-queue-get-with-timeout-ok",
        "src/repro/gateway/batching.py",
        """
        import queue

        work = queue.Queue()

        def drain():
            return work.get(timeout=0.1)
        """,
        [],
    ),
    (
        "rep008-asyncio-sleep-ok",
        "src/repro/gateway/server.py",
        """
        import asyncio

        async def backoff():
            await asyncio.sleep(0.1)
        """,
        [],
    ),
    (
        "rep008-out-of-scope",
        "src/repro/streaming/runner.py",
        """
        import time

        def wait():
            time.sleep(0.1)
        """,
        [],
    ),
]


@pytest.mark.parametrize(
    "relpath, code, expected",
    [case[1:] for case in RULE_CASES],
    ids=[case[0] for case in RULE_CASES],
)
def test_rule_table(tmp_path, relpath, code, expected):
    """Each rule fires on its positive cases and stays quiet on the rest."""
    result = lint_snippet(tmp_path, relpath, code)
    assert codes_of(result) == expected


def test_pr5_bug_pattern_is_caught(tmp_path):
    """Re-introducing the PR 5 tie-break bug fails the lint.

    The bug: a raw ``argpartition`` top-k outside ``core/topk.py`` picks
    an arbitrary subset of boundary-tied scores, so a sharded merge and
    the single-process path disagree.  REP002 must flag both the
    partition and the follow-up argsort.
    """
    result = lint_snippet(
        tmp_path,
        "src/repro/serving/router.py",
        """
        import numpy as np

        def merge_topk(scores, k):
            top = np.argpartition(-scores, k - 1)[:k]
            return top[np.argsort(-scores[top], kind="stable")]
        """,
    )
    assert codes_of(result) == ["REP002", "REP002"]
    assert result.exit_code() == 1
    assert all(f.severity is Severity.ERROR for f in result.findings)


# ----------------------------------------------------------------------
# Engine plumbing: scoping, test-tree skip, parse errors
# ----------------------------------------------------------------------


def test_test_files_are_skipped_by_default(tmp_path):
    result = lint_snippet(
        tmp_path,
        "src/repro/core/test_mod.py",
        "import random\n",
    )
    assert result.files_scanned == 0 and not result.findings

    result = lint_snippet(
        tmp_path,
        "src/repro/core/test_mod.py",
        "import random\n",
        include_tests=True,
    )
    assert codes_of(result) == ["REP001"]


def test_syntax_error_becomes_rep999(tmp_path):
    result = lint_snippet(tmp_path, "src/repro/core/mod.py", "def broken(:\n")
    assert codes_of(result) == [PARSE_RULE]
    assert result.exit_code() == 1


def test_select_and_ignore_scope_the_rules(tmp_path):
    code = """
    import random
    import numpy as np
    def rank(scores):
        return np.argsort(-scores)
    """
    only_rng = lint_snippet(tmp_path, "src/repro/core/mod.py", code, select=["REP001"])
    assert codes_of(only_rng) == ["REP001"]
    no_rng = lint_snippet(tmp_path, "src/repro/core/mod.py", code, ignore=["REP001"])
    assert codes_of(no_rng) == ["REP002"]
    with pytest.raises(ValueError):
        lint_snippet(tmp_path, "src/repro/core/mod.py", code, select=["NOPE"])


def test_severity_override_downgrades_exit_code(tmp_path):
    result = lint_snippet(
        tmp_path,
        "benchmarks/bench_mod.py",
        "import time\nstart = time.time()\n",
        severities={"REP003": "warning"},
    )
    assert codes_of(result) == ["REP003"]
    assert result.exit_code() == 0
    assert result.exit_code(strict=True) == 1


# ----------------------------------------------------------------------
# Suppressions: justified noqa, REP000 hygiene
# ----------------------------------------------------------------------


def test_justified_noqa_suppresses(tmp_path):
    result = lint_snippet(
        tmp_path,
        "src/repro/core/mod.py",
        """
        import time
        import numpy as np
        def rank(scores):
            return np.argsort(scores)  # repro: noqa[REP002] -- ascending worst-first order for the pruning diagnostic, not a ranking
        """,
    )
    assert not result.findings
    assert [f.rule for f, _ in result.suppressed] == ["REP002"]
    assert result.exit_code() == 0


def test_unjustified_noqa_is_rep000_error(tmp_path):
    result = lint_snippet(
        tmp_path,
        "src/repro/core/mod.py",
        """
        import numpy as np
        def rank(scores):
            return np.argsort(scores)  # repro: noqa[REP002]
        """,
    )
    # The naked noqa suppresses nothing: the REP002 stays active and the
    # suppression itself is flagged.
    assert codes_of(result) == [META_RULE, "REP002"]
    assert result.exit_code() == 1


def test_unused_noqa_is_rep000_warning(tmp_path):
    result = lint_snippet(
        tmp_path,
        "src/repro/core/mod.py",
        "x = 1  # repro: noqa[REP002] -- nothing here actually sorts\n",
    )
    assert codes_of(result) == [META_RULE]
    assert result.findings[0].severity is Severity.WARNING
    assert result.exit_code() == 0
    assert result.exit_code(strict=True) == 1


def test_noqa_lives_in_comments_not_strings():
    suppressions = scan_suppressions(
        'doc = "example: # repro: noqa[REP001] -- not a comment"\n'
        "y = 2  # repro: noqa[REP001, REP002] -- a real waiver\n"
    )
    assert len(suppressions) == 1
    assert suppressions[0].line == 2
    assert suppressions[0].codes == {"REP001", "REP002"}


# ----------------------------------------------------------------------
# Baseline: skeleton, justification gate, fingerprint matching
# ----------------------------------------------------------------------


def test_baseline_roundtrip_grandfathers_findings(tmp_path):
    source = tmp_path / "src" / "repro" / "core" / "mod.py"
    source.parent.mkdir(parents=True)
    source.write_text("import random\n", encoding="utf-8")
    baseline_path = tmp_path / "analysis-baseline.json"

    first = run_analysis([str(source)])
    assert codes_of(first) == ["REP001"]
    write_baseline(first.findings, baseline_path)

    # The skeleton's placeholder justification must not load.
    raw = json.loads(baseline_path.read_text())
    assert raw["entries"][0]["justification"] == TODO_JUSTIFICATION
    with pytest.raises(BaselineError):
        load_baseline(baseline_path)

    raw["entries"][0]["justification"] = "grandfathered pending the seeded rewrite"
    baseline_path.write_text(json.dumps(raw), encoding="utf-8")

    second = run_analysis([str(source)], baseline=load_baseline(baseline_path))
    assert not second.findings
    assert [f.rule for f, _ in second.baselined] == ["REP001"]
    assert not second.unused_baseline
    assert second.exit_code() == 0


def test_baseline_survives_line_drift_but_not_edits(tmp_path):
    source = tmp_path / "src" / "repro" / "core" / "mod.py"
    source.parent.mkdir(parents=True)
    source.write_text("import random\n", encoding="utf-8")
    baseline_path = tmp_path / "analysis-baseline.json"
    write_baseline(run_analysis([str(source)]).findings, baseline_path)
    raw = json.loads(baseline_path.read_text())
    raw["entries"][0]["justification"] = "grandfathered"
    baseline_path.write_text(json.dumps(raw), encoding="utf-8")

    # Pushing the finding to another line keeps the fingerprint match...
    source.write_text("'''docstring'''\n\n\nimport random\n", encoding="utf-8")
    moved = run_analysis([str(source)], baseline=load_baseline(baseline_path))
    assert not moved.findings and len(moved.baselined) == 1

    # ...but editing the flagged line itself invalidates the entry.
    source.write_text("import random as _rnd\n", encoding="utf-8")
    edited = run_analysis([str(source)], baseline=load_baseline(baseline_path))
    assert codes_of(edited) == ["REP001"]
    assert [e.rule for e in edited.unused_baseline] == ["REP001"]


def test_fingerprint_ignores_surrounding_whitespace(tmp_path):
    plain = lint_snippet(tmp_path, "src/repro/core/a.py", "import random\n")
    indented = lint_snippet(
        tmp_path,
        "src/repro/core/a.py",
        "if True:\n    import random\n",
    )
    assert fingerprint(plain.findings[0]) == fingerprint(indented.findings[0])


# ----------------------------------------------------------------------
# CLI: exit codes, JSON report, rule listing
# ----------------------------------------------------------------------


def test_cli_json_report(tmp_path, capsys):
    source = tmp_path / "src" / "repro" / "core" / "mod.py"
    source.parent.mkdir(parents=True)
    source.write_text("import random\n", encoding="utf-8")

    status = analysis_main([str(source), "--format", "json", "--no-baseline"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 1
    assert payload["summary"]["errors"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["REP001"]
    assert all("fingerprint" in f for f in payload["findings"])


def test_cli_list_rules_covers_all_seven(capsys):
    assert analysis_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("REP001", "REP002", "REP003", "REP004", "REP005",
                 "REP007", "REP008"):
        assert code in out
    assert sorted(r.code for r in all_rules()) == [
        "REP001", "REP002", "REP003", "REP004", "REP005", "REP007",
        "REP008",
    ]


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    assert analysis_main([str(tmp_path / "nope")]) == 2


def test_repro_lint_subcommand_dispatches(capsys):
    from repro.cli import main as cli_main

    assert cli_main(["lint", "--list-rules"]) == 0
    assert "REP002" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The meta-gate: the real tree is clean against the committed baseline
# ----------------------------------------------------------------------


def test_tree_is_clean_against_committed_baseline(monkeypatch, capsys):
    """`python -m repro.analysis src benchmarks examples` exits 0 at HEAD.

    This is the same invocation CI's lint-invariants job runs: every
    finding in the tree is either fixed, waived by a justified inline
    noqa, or grandfathered in the committed analysis-baseline.json.
    """
    monkeypatch.chdir(REPO_ROOT)
    status = analysis_main(["src", "benchmarks", "examples"])
    out = capsys.readouterr().out
    assert status == 0, f"invariant linter found new violations:\n{out}"


def test_committed_baseline_is_small_and_justified(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    baseline = load_baseline("analysis-baseline.json")
    entries = baseline.entries
    assert len(entries) <= 5
    for entry in entries:
        assert len(entry.justification) > 20
        assert entry.justification != TODO_JUSTIFICATION
