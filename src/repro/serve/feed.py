"""Feeding a :class:`~repro.serve.store.RuleStore` from a session directory.

``repro serve --session`` serves rules maintained by *other processes*: a
writer applies batches through ``repro session apply`` while the server keeps
answering queries.  :class:`SessionFeed` bridges the two without ever taking
the session's writer lock — it polls the on-disk state with the read-only
:meth:`~repro.core.session.MaintenanceSession.peek` (manifest + journal line
count, cheap) and, when the applied sequence has advanced past the served
snapshot's version, rebuilds the state with
:func:`~repro.core.session.read_session_state` and publishes it.

Because the refresh is lock-free it can race a writer's checkpoint sweep;
when that happens the rebuild fails cleanly, the previously published
snapshot keeps serving, and the next tick retries — readers never see a
half-state and the writer is never blocked by the server.

When writer and server live in *one* process — ``repro pipeline``, which
ingests an event stream and serves from the same session — no feed is
needed: the store attaches directly to the session's maintainer
(``store.attach(session.maintainer)``) and every applied batch republishes
synchronously, with no polling latency and no rebuild cost.
"""

from __future__ import annotations

import logging
import threading
from pathlib import Path

from ..core.session import JOURNAL_NAME, MaintenanceSession, read_session_state
from ..errors import ReproError
from .store import RuleStore

__all__ = ["SessionFeed"]

_log = logging.getLogger(__name__)

#: Default seconds between on-disk freshness checks.
DEFAULT_REFRESH_SECONDS = 1.0


class SessionFeed:
    """Keeps a store's snapshot in sync with an on-disk maintenance session."""

    def __init__(
        self,
        store: RuleStore,
        directory: str | Path,
        interval: float = DEFAULT_REFRESH_SECONDS,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"refresh interval must be positive, got {interval}")
        self.store = store
        self.directory = Path(directory)
        self.interval = float(interval)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        # Identity of the on-disk state behind the last publication.  Keying
        # freshness on the sequence number alone would miss the rare race
        # where a replayed journal record is scrubbed by the writer (a
        # refused batch) and a *different* batch later takes the same
        # sequence number; the journal file's (size, mtime) closes that
        # window, and checkpoints only force a harmless redundant rebuild.
        self._published_marker: tuple | None = None

    def _disk_marker(self, status) -> tuple:
        try:
            stat = (self.directory / JOURNAL_NAME).stat()
            journal_id = (stat.st_size, stat.st_mtime_ns)
        except OSError:
            journal_id = None
        return (status.checkpoint_seq, status.applied_seq, journal_id)

    def refresh(self, strict: bool = False) -> bool:
        """One freshness check; returns True when a new snapshot was published.

        By default never raises for session-level races (a writer holding the
        directory mid-checkpoint, a swept snapshot, a mid-write journal): the
        store simply keeps serving the previous snapshot and the next call
        retries.  With ``strict=True`` the underlying error propagates
        instead — the initial publication wants the real diagnosis (missing
        directory, corrupt session), not a silent False.
        """
        try:
            status = MaintenanceSession.peek(self.directory)
        except (ReproError, OSError):
            if strict:
                raise
            return False
        marker = self._disk_marker(status)
        if self.store.has_snapshot and marker == self._published_marker:
            return False
        try:
            maintainer = read_session_state(self.directory)
        except (ReproError, OSError):
            # Raced a live writer (checkpoint sweep, torn journal tail):
            # keep the published snapshot, retry next tick.
            if strict:
                raise
            return False
        self.store.publish_from(maintainer)
        # Recording the marker probed *before* the rebuild errs on the safe
        # side: a batch landing mid-rebuild makes the next tick rebuild once
        # more rather than ever serving stale state as fresh.
        self._published_marker = marker
        return True

    # ------------------------------------------------------------------ #
    # Background polling
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the background refresh thread (idempotent)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-session-feed", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        # Refresh at loop entry (not after a first full interval) so start()
        # alone brings an empty store live promptly.
        while True:
            try:
                self.refresh()
            except Exception:
                # refresh() already absorbs the session-level races; anything
                # else (a store listener raising) must not kill the feed thread — a server
                # serving one stale tick and retrying beats one frozen at
                # whatever version the crash left behind.  But the error must
                # leave a trace, or a permanently failing refresh looks like
                # a quiet database.
                _log.exception("session feed refresh failed; retrying next tick")
            if self._stop.wait(self.interval):
                return

    def stop(self) -> None:
        """Stop the background thread and wait for it to exit."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join()
        self._thread = None

    def __enter__(self) -> "SessionFeed":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
