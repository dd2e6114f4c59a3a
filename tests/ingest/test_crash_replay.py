"""The fault-injection tier: die at every named crash point, replay, converge.

Every durability claim the ingest layer makes gets killed here:

* ``after-journal-before-ledger`` — the batch is journaled and applied but
  its keys never reach the ledger; recovery must reconcile them from the
  journal or a producer replay double-counts.
* ``after-ledger-before-checkpoint`` — the ledger committed but the due
  checkpoint never ran; recovery replays the journal tail.
* ``mid-ledger-fsync`` — the process dies inside the ledger append, leaving
  a torn (half-written, unterminated) ledger line behind.
* torn final JSONL line — the *producer* dies mid-write, so the input
  stream itself ends in a torn record.

The convergence oracle is the acceptance criterion verbatim: after the
crash, recovery plus a **full producer replay** yields a rule lattice
byte-identical (the serialized itemset state) to a single clean ingest of
the same stream — on both counting backends.  Crashes come in two
flavours: an in-process raise (fast; exercises every backend × point) and
a real ``SIGKILL`` of a ``repro ingest`` subprocess (no ``finally`` blocks
run — the only honest power-loss simulation).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro.faults as faults
from repro.core.session import MaintenanceSession, save_state
from repro.faults import CRASH_POINT_ENV, InjectedCrash
from repro.ingest import LEDGER_NAME, MicroBatcher, open_event_stream, run_ingest

from .conftest import make_events, make_session, write_jsonl

CRASH_POINTS = (
    "after-journal-before-ledger",
    "after-ledger-before-checkpoint",
    "mid-ledger-fsync",
)
BACKENDS = ("horizontal", "vertical")

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


@dataclass(frozen=True)
class CrashPoint:
    """One named point, armable for an in-process raise or a subprocess kill."""

    name: str

    def env(self, action: str, skip: int = 0) -> dict[str, str]:
        return {CRASH_POINT_ENV: f"{self.name}:{action}:{skip}"}


@pytest.fixture(params=CRASH_POINTS)
def crash_point(request, monkeypatch):
    # Fresh traversal counters per test: the skip count must count *this*
    # test's traversals, not every armed run of the process.
    monkeypatch.setattr(faults, "_HITS", {})
    return CrashPoint(request.param)


def _stream_with_duplicates(path: Path):
    """18 events, the middle six delivered twice (producer redelivery)."""
    events = make_events(18)
    return write_jsonl(path, events[:12] + events[6:12] + events[12:])


def _lattice_bytes(directory: Path, dump: Path) -> bytes:
    with MaintenanceSession.open(directory) as session:
        save_state(session.result, dump)
    state = json.loads(dump.read_text())
    # ``algorithm`` records which code path produced the last apply ("fup",
    # "noop", "restored") — provenance, not lattice state.  Everything else
    # (itemsets, counts, database size, support) must match to the byte.
    state.pop("algorithm", None)
    return json.dumps(state, sort_keys=True).encode()


def _clean_reference(tmp_path: Path, stream: Path, backend: str) -> bytes:
    ref_dir = tmp_path / f"ref-{backend}"
    with make_session(ref_dir, backend=backend, checkpoint_interval=2) as session:
        with open_event_stream(stream) as reader:
            run_ingest(session, reader, MicroBatcher(max_events=4))
    return _lattice_bytes(ref_dir, tmp_path / "ref-lattice.json")


def _ingest_cli(session_dir: Path, stream: Path, *, extra_env: dict[str, str] | None = None):
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "ingest",
            str(session_dir),
            "--source",
            str(stream),
            "--batch-size",
            "4",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestRaiseAndReplay:
    """In-process flavour: InjectedCrash at the point, then recover + replay."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_converges_to_the_clean_run(self, crash_point, backend, tmp_path, monkeypatch):
        stream = _stream_with_duplicates(tmp_path / "events.jsonl")
        reference = _clean_reference(tmp_path, stream, backend)

        crash_dir = tmp_path / "crash"
        session = make_session(crash_dir, backend=backend, checkpoint_interval=2)
        # Let one traversal pass so the crash lands mid-stream, with batches
        # already applied and a checkpoint already due.
        monkeypatch.setenv(CRASH_POINT_ENV, f"{crash_point.name}:raise:1")
        with open_event_stream(stream) as reader:
            with pytest.raises(InjectedCrash):
                run_ingest(session, reader, MicroBatcher(max_events=4))
        # close() is write-free, so the on-disk state equals a process kill.
        session.close()
        monkeypatch.delenv(CRASH_POINT_ENV)

        # Recovery + the producer's full replay.
        with MaintenanceSession.open(crash_dir) as session:
            with open_event_stream(stream) as reader:
                summary = run_ingest(session, reader, MicroBatcher(max_events=4))
        assert summary.events == 24  # the whole stream was re-offered
        assert _lattice_bytes(crash_dir, tmp_path / "crash-lattice.json") == reference


class TestSigkillAndReplay:
    """Subprocess flavour: a real SIGKILL of `repro ingest`, then replay."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_converges_to_the_clean_run(self, crash_point, backend, tmp_path):
        stream = _stream_with_duplicates(tmp_path / "events.jsonl")
        reference = _clean_reference(tmp_path, stream, backend)

        crash_dir = tmp_path / "crash"
        make_session(crash_dir, backend=backend, checkpoint_interval=2).close()

        killed = _ingest_cli(
            crash_dir, stream, extra_env=crash_point.env("kill", skip=1)
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr

        replayed = _ingest_cli(crash_dir, stream)
        assert replayed.returncode == 0, replayed.stderr
        assert "ingested 24 event(s)" in replayed.stdout
        assert _lattice_bytes(crash_dir, tmp_path / "crash-lattice.json") == reference


class TestMidLedgerFsyncTearsTheLedger:
    def test_torn_ledger_line_is_left_then_recovered(self, tmp_path, monkeypatch):
        monkeypatch.setattr(faults, "_HITS", {})
        stream = _stream_with_duplicates(tmp_path / "events.jsonl")
        crash_dir = tmp_path / "crash"
        session = make_session(crash_dir, checkpoint_interval=100)
        monkeypatch.setenv(CRASH_POINT_ENV, "mid-ledger-fsync:raise:1")
        with open_event_stream(stream) as reader:
            with pytest.raises(InjectedCrash):
                run_ingest(session, reader, MicroBatcher(max_events=4))
        session.close()
        monkeypatch.delenv(CRASH_POINT_ENV)

        # The crash really left an unterminated ledger line behind.
        raw = (crash_dir / LEDGER_NAME).read_bytes()
        assert raw and not raw.endswith(b"\n")

        with MaintenanceSession.open(crash_dir) as session:
            with open_event_stream(stream) as reader:
                summary = run_ingest(session, reader, MicroBatcher(max_events=4))
            # The journal-side reconcile re-committed the applied-but-lost keys.
            assert summary.recovered_keys == 4
            assert summary.applied + summary.duplicates == 24
        reference = _clean_reference(tmp_path, stream, "horizontal")
        assert _lattice_bytes(crash_dir, tmp_path / "crash-lattice.json") == reference


class TestTornFinalStreamLine:
    """The fourth named point: the *producer* dies mid-write."""

    def test_partial_stream_then_full_replay_converges(self, tmp_path):
        events = make_events(18)
        full = write_jsonl(tmp_path / "full.jsonl", events)
        reference = _clean_reference(tmp_path, full, "horizontal")

        # The producer got through 10 events and half of the 11th.
        torn = tmp_path / "torn.jsonl"
        complete_lines = full.read_text().splitlines(keepends=True)
        torn.write_text("".join(complete_lines[:10]) + complete_lines[10][:13])

        crash_dir = tmp_path / "crash"
        session = make_session(crash_dir, checkpoint_interval=2)
        with open_event_stream(torn) as reader:
            summary = run_ingest(session, reader, MicroBatcher(max_events=4))
            assert summary.applied == 10
            assert summary.torn_tail > 0  # tolerated, never parsed
        session.close()

        # The restarted producer replays the whole stream into a fresh file.
        with MaintenanceSession.open(crash_dir) as session:
            with open_event_stream(full) as reader:
                summary = run_ingest(session, reader, MicroBatcher(max_events=4))
            assert summary.applied == 8
            assert summary.duplicates == 10
        assert _lattice_bytes(crash_dir, tmp_path / "crash-lattice.json") == reference
