"""Per-rule fixture tests for the ``repro lint`` checkers.

Every shipped ``RPR0xx`` rule gets a seeded violation (which must be
flagged) and a compliant twin (which must stay silent), per the acceptance
criteria of the analysis subsystem.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import run_lint


def lint_source(tmp_path: Path, relpath: str, source: str) -> list:
    """Write one fixture module and return its findings."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([tmp_path]).findings


def codes(findings: list) -> set[str]:
    return {finding.code for finding in findings}


# --------------------------------------------------------------------- #
# RPR000 parse errors
# --------------------------------------------------------------------- #
class TestParseError:
    def test_unparsable_file_is_reported(self, tmp_path):
        findings = lint_source(tmp_path, "broken.py", "def f(:\n")
        assert codes(findings) == {"RPR000"}

    def test_parse_errors_ignore_select_and_baseline(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = run_lint([tmp_path], select={"RPR040"})
        assert codes(report.findings) == {"RPR000"}


# --------------------------------------------------------------------- #
# RPR001 serve-side reader modules vs writer-locked APIs
# --------------------------------------------------------------------- #
class TestServeReaderLocks:
    def test_flags_writer_api_import(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "serve/reader.py",
            """
            from ..core.session import _open_locked

            def refresh(directory):
                return _open_locked(directory, {}, None)
            """,
        )
        assert "RPR001" in codes(findings)

    def test_flags_fcntl_and_session_open(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "serve/locker.py",
            """
            import fcntl
            from ..core.session import MaintenanceSession

            def grab(directory):
                return MaintenanceSession.open(directory)
            """,
        )
        flagged = [f for f in findings if f.code == "RPR001"]
        assert len(flagged) == 2  # the fcntl import and the .open() call

    def test_lock_free_reader_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "serve/reader.py",
            """
            from ..core.session import MaintenanceSession, read_session_state

            def refresh(directory):
                peeked = MaintenanceSession.peek(directory)
                return read_session_state(directory), peeked
            """,
        )
        assert not findings

    def test_writer_module_outside_serve_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "core/locks.py",
            """
            import fcntl

            def lock(handle):
                fcntl.flock(handle, fcntl.LOCK_EX)
            """,
        )
        assert "RPR001" not in codes(findings)


# --------------------------------------------------------------------- #
# RPR002 module-level mutable state written from functions
# --------------------------------------------------------------------- #
class TestModuleStateWrites:
    def test_flags_global_rebinding(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "state.py",
            """
            _cache = None

            def warm():
                global _cache
                _cache = 42
            """,
        )
        assert "RPR002" in codes(findings)

    def test_flags_container_mutation(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "registry.py",
            """
            _REGISTRY = {}

            def register(name, value):
                _REGISTRY[name] = value

            def forget(name):
                _REGISTRY.pop(name)
            """,
        )
        flagged = [f for f in findings if f.code == "RPR002"]
        assert len(flagged) == 2

    def test_module_level_and_shadowed_writes_are_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "clean_state.py",
            """
            _REGISTRY = {}
            _REGISTRY["builtin"] = object()

            def build():
                _REGISTRY = {}
                _REGISTRY["local"] = 1
                return _REGISTRY

            class Holder:
                def __init__(self):
                    self.items = []

                def add(self, value):
                    self.items.append(value)
            """,
        )
        assert not findings

    def test_suppression_comment_silences_the_global(self, tmp_path):
        target = tmp_path / "memo.py"
        target.write_text(
            "_ok = None\n"
            "def probe():\n"
            "    global _ok  # repro: ignore[RPR002]\n"
            "    _ok = True\n"
        )
        report = run_lint([tmp_path])
        assert not report.findings
        assert report.suppressed == 1


# --------------------------------------------------------------------- #
# RPR003 blocking calls inside coroutines
# --------------------------------------------------------------------- #
class TestBlockingInCoroutine:
    def test_flags_sleep_open_and_subprocess(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "serve/async_server.py",
            """
            import subprocess
            import time

            async def handler():
                time.sleep(0.1)
                data = open("/tmp/f").read()
                subprocess.run(["true"])
                return data
            """,
        )
        flagged = [f for f in findings if f.code == "RPR003"]
        assert len(flagged) == 3

    def test_resolves_import_aliases(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "aliased.py",
            """
            from time import sleep

            async def handler():
                sleep(1)
            """,
        )
        assert "RPR003" in codes(findings)

    def test_async_sleep_and_sync_functions_are_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "clean_async.py",
            """
            import asyncio
            import time

            async def handler(store):
                await asyncio.sleep(0.1)
                return store.open()

            def sync_helper():
                time.sleep(0.1)
                return open("/tmp/f")
            """,
        )
        assert not findings


# --------------------------------------------------------------------- #
# RPR010 / RPR011 renames and fsyncs outside the audited helpers
# --------------------------------------------------------------------- #
class TestDurabilityHelpers:
    def test_flags_adhoc_rename_and_fsync(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "writer.py",
            """
            import os

            def save(tmp, final):
                os.replace(tmp, final)
                os.fsync(0)
            """,
        )
        assert {"RPR010", "RPR011"} <= codes(findings)

    def test_audited_session_helpers_are_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "core/session.py",
            """
            import os

            def _fsync_file(handle):
                os.fsync(handle.fileno())

            def _fsync_directory(path):
                os.fsync(os.open(path, os.O_RDONLY))

            def _atomic_replace(temporary, final):
                os.replace(temporary, final)

            class _Journal:
                def append(self, handle):
                    os.fsync(handle.fileno())
            """,
        )
        assert not findings

    def test_rename_outside_the_helper_even_in_session_py(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "core/session.py",
            """
            import os

            def checkpoint(tmp, final):
                os.rename(tmp, final)
            """,
        )
        assert "RPR010" in codes(findings)


# --------------------------------------------------------------------- #
# RPR012 unstaged durable writes in MaintenanceSession
# --------------------------------------------------------------------- #
class TestCheckpointStaging:
    def test_flags_unstaged_writes(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "core/session.py",
            """
            def write_snapshot(db, path):
                pass

            class MaintenanceSession:
                def _write_checkpoint(self, db, path, manifest):
                    write_snapshot(db, path)
                    manifest.write_text("data")
                    handle = path.open("r+b")
                    return handle
            """,
        )
        flagged = [f for f in findings if f.code == "RPR012"]
        assert len(flagged) == 3

    def test_staged_writes_are_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "core/session.py",
            """
            def write_snapshot(db, path):
                pass

            class MaintenanceSession:
                def _write_checkpoint(self, db, snapshot_tmp, manifest_tmp):
                    write_snapshot(db, snapshot_tmp)
                    manifest_tmp.write_text("data")
                    handle = manifest_tmp.open("rb")
                    return handle
            """,
        )
        assert not findings

    def test_other_classes_may_write(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "db/exporter.py",
            """
            class Exporter:
                def dump(self, path):
                    path.write_text("data")
            """,
        )
        assert "RPR012" not in codes(findings)


class TestLedgerStaging:
    """RPR012 also audits the intake ledger — it is a durable writer too."""

    def test_flags_unstaged_ledger_writes(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "ingest/ledger.py",
            """
            class IntakeLedger:
                def compact(self, path):
                    path.write_text("data")
                    handle = path.open("wb")
                    return handle
            """,
        )
        flagged = [f for f in findings if f.code == "RPR012"]
        assert len(flagged) == 2
        assert all("IntakeLedger" in f.message for f in flagged)

    def test_staged_ledger_writes_are_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "ingest/ledger.py",
            """
            class IntakeLedger:
                def compact(self, ledger_tmp):
                    ledger_tmp.write_text("data")
                    handle = ledger_tmp.open("rb")
                    return handle
            """,
        )
        assert "RPR012" not in codes(findings)


# --------------------------------------------------------------------- #
# RPR030 / RPR031 binary layout geometry
# --------------------------------------------------------------------- #
class TestBinaryLayout:
    def test_flags_undersized_header_and_bad_format(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "db/store.py",
            """
            import struct

            _V2_HEADER = struct.Struct("<8sII8Q")
            _V2_HEADER_SIZE = 64
            _BROKEN = struct.calcsize("<8sQ!")
            """,
        )
        flagged = [f for f in findings if f.code == "RPR030"]
        assert len(flagged) == 2  # undersized constant + invalid format

    def test_flags_misalignment(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "db/layout.py",
            """
            import struct

            _V2_HEADER = struct.Struct("<8sII8Q")
            _V2_HEADER_SIZE = 96
            _V2_ALIGN = 64
            _BAD_ALIGN = 24
            """,
        )
        messages = [f.message for f in findings if f.code == "RPR031"]
        assert any("not a multiple" in message for message in messages)
        assert any("power of two" in message for message in messages)

    def test_committed_geometry_shape_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "db/store.py",
            """
            import struct

            _V2_HEADER = struct.Struct("<8sII8Q")
            _V2_HEADER_SIZE = 128
            _V2_ALIGN = 64
            _RECORD = struct.Struct("<I")
            """,
        )
        assert not findings


# --------------------------------------------------------------------- #
# RPR040–RPR042 exception hygiene
# --------------------------------------------------------------------- #
class TestExceptionHygiene:
    def test_flags_bare_except(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "bare.py",
            """
            def risky():
                try:
                    return 1
                except:
                    return None
            """,
        )
        assert "RPR040" in codes(findings)

    def test_flags_unrecorded_broad_except(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "broad.py",
            """
            def risky():
                try:
                    return work()
                except Exception:
                    return None
            """,
        )
        assert "RPR041" in codes(findings)

    def test_logged_or_reraised_broad_except_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "handled.py",
            """
            import logging

            _log = logging.getLogger(__name__)

            def logged():
                try:
                    return work()
                except Exception:
                    _log.exception("work failed")
                    return None

            def reraised():
                try:
                    return work()
                except BaseException:
                    cleanup()
                    raise
            """,
        )
        assert not findings

    def test_flags_pass_inside_loop(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "loop.py",
            """
            def feed():
                while True:
                    try:
                        tick()
                    except ValueError:
                        pass
            """,
        )
        assert "RPR042" in codes(findings)

    def test_pass_outside_loop_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "once.py",
            """
            def close(handle):
                try:
                    handle.close()
                except OSError:
                    pass
            """,
        )
        assert not findings


# --------------------------------------------------------------------- #
# RPR043 CLI exit taxonomy
# --------------------------------------------------------------------- #
class TestExitTaxonomy:
    def test_flags_exit_outside_main_guard(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "library.py",
            """
            import sys

            def fail(message):
                sys.exit(message)

            def abort():
                raise SystemExit(2)
            """,
        )
        flagged = [f for f in findings if f.code == "RPR043"]
        assert len(flagged) == 2

    def test_flags_out_of_taxonomy_return(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "cli.py",
            """
            def _cmd_frob(args):
                if args:
                    return 3
                return 0
            """,
        )
        assert "RPR043" in codes(findings)

    def test_main_guard_and_taxonomy_returns_are_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "cli.py",
            """
            import sys

            def _cmd_frob(args):
                if args is None:
                    return 2
                if not args:
                    return 1
                return 0

            def main(argv=None):
                return _cmd_frob(argv)

            if __name__ == "__main__":
                sys.exit(main())
            """,
        )
        assert not findings


# --------------------------------------------------------------------- #
# RPR050 policy purity
# --------------------------------------------------------------------- #
class TestPolicyPurity:
    def test_flags_filesystem_writes_in_the_policy_module(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "core/policy.py",
            """
            import os
            import json

            class SlidingWindowPolicy:
                def plan(self, batch, database):
                    with open("/tmp/policy.log", "w") as handle:
                        handle.write("planned")
                    os.fsync(3)
                    return batch

                def persist(self, path):
                    path.write_text(json.dumps(self.params()))
            """,
        )
        flagged = [f for f in findings if f.code == "RPR050"]
        assert len(flagged) == 3  # open(), os.fsync(), .write_text()

    def test_flags_durability_layer_imports(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "core/policy.py",
            """
            from .session import MaintenanceSession
            from ..ingest import ledger

            class TopKPolicy:
                pass
            """,
        )
        flagged = [f for f in findings if f.code == "RPR050"]
        assert len(flagged) == 2

    def test_pure_planner_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "core/policy.py",
            """
            import math
            from collections import Counter

            class SlidingWindowPolicy:
                def __init__(self, window):
                    self.window = window

                def plan(self, batch, database):
                    overflow = len(database) + len(batch.insertions) - self.window
                    return max(0, overflow)

                def params(self):
                    return {"window": self.window}
            """,
        )
        assert "RPR050" not in codes(findings)

    def test_other_modules_may_do_durability_work(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "core/session.py",
            """
            import os

            def checkpoint(path, payload):
                with open(path, "w") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
            """,
        )
        assert "RPR050" not in codes(findings)
