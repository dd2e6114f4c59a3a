"""Tests for the lock-free session feed behind ``repro serve --session``."""

from __future__ import annotations

import pytest

from repro import (
    MaintenanceSession,
    RuleStore,
    SessionFeed,
    UpdateBatch,
    read_session_state,
)


@pytest.fixture
def session_dir(tmp_path, small_database):
    directory = tmp_path / "session"
    with MaintenanceSession.create(
        directory, small_database, min_support=0.3, min_confidence=0.5
    ) as session:
        session.add_transactions([[1, 4], [1, 2, 4], [2, 4]], label="seed")
    return directory


class TestReadSessionState:
    def test_matches_open(self, session_dir):
        maintainer = read_session_state(session_dir)
        with MaintenanceSession.open(session_dir) as session:
            assert maintainer.sequence == session.applied_seq
            assert maintainer.rules == session.rules
            assert (
                maintainer.result.lattice.supports()
                == session.result.lattice.supports()
            )

    def test_does_not_take_the_writer_lock(self, session_dir):
        """The serving path must read while a live writer holds the session."""
        with MaintenanceSession.open(session_dir) as session:
            session.add_transactions([[3, 4]], label="held")
            maintainer = read_session_state(session_dir)
            assert maintainer.sequence == session.applied_seq
            assert maintainer.rules == session.rules

    def test_leaves_the_journal_untouched(self, session_dir):
        journal = (session_dir / "journal.jsonl").read_bytes()
        read_session_state(session_dir)
        assert (session_dir / "journal.jsonl").read_bytes() == journal


class TestSessionFeed:
    def test_initial_refresh_publishes(self, session_dir):
        store = RuleStore()
        feed = SessionFeed(store, session_dir, interval=0.05)
        assert feed.refresh() is True
        assert store.version == 1

    def test_no_change_is_a_cheap_noop(self, session_dir):
        store = RuleStore()
        feed = SessionFeed(store, session_dir, interval=0.05)
        feed.refresh()
        published = store.publications
        assert feed.refresh() is False
        assert store.publications == published

    def test_new_batches_advance_the_snapshot(self, session_dir):
        store = RuleStore()
        feed = SessionFeed(store, session_dir, interval=0.05)
        feed.refresh()
        with MaintenanceSession.open(session_dir) as session:
            session.remove_transactions([[1, 2, 3]], label="later")
            expected_rules = tuple(session.rules)
            expected_size = len(session.database)
        assert feed.refresh() is True
        snapshot = store.snapshot()
        assert snapshot.version == 2
        assert snapshot.rules == expected_rules
        assert snapshot.database_size == expected_size

    def test_missing_session_keeps_previous_snapshot(self, session_dir, tmp_path):
        store = RuleStore()
        feed = SessionFeed(store, session_dir, interval=0.05)
        feed.refresh()
        broken = SessionFeed(store, tmp_path / "nope", interval=0.05)
        assert broken.refresh() is False
        assert store.version == 1  # previous snapshot still served

    def test_strict_refresh_raises_the_real_diagnosis(self, tmp_path):
        from repro.errors import StorageError

        broken = SessionFeed(RuleStore(), tmp_path / "nope", interval=0.05)
        with pytest.raises(StorageError):
            broken.refresh(strict=True)

    def test_unreadable_state_keeps_previous_snapshot(self, session_dir):
        """A raced checkpoint sweep surfaces as a clean skip, not a crash."""
        store = RuleStore()
        feed = SessionFeed(store, session_dir, interval=0.05)
        feed.refresh()
        with MaintenanceSession.open(session_dir) as session:
            session.add_transactions([[2, 3, 4]], label="new")
        # Simulate the mid-checkpoint race: the manifest still names a
        # snapshot pair that has just been swept away.
        for snapshot_file in session_dir.glob("snapshot-*.bin"):
            snapshot_file.unlink()
        assert feed.refresh() is False
        assert store.version == 1

    def test_background_thread_lifecycle(self, session_dir):
        import time

        store = RuleStore()
        # interval far beyond the wait deadline: only the loop-entry refresh
        # can publish, pinning that start() brings an empty store live
        # immediately rather than after the first full interval.
        with SessionFeed(store, session_dir, interval=60.0) as feed:
            assert feed._thread is not None
            deadline = time.monotonic() + 10.0
            while not store.has_snapshot and time.monotonic() < deadline:
                time.sleep(0.01)
        assert feed._thread is None
        assert store.version == 1  # the entry refresh published

    def test_interval_must_be_positive(self, session_dir):
        with pytest.raises(ValueError):
            SessionFeed(RuleStore(), session_dir, interval=0.0)

    def test_scrubbed_record_replaced_at_same_seq_is_republished(self, session_dir):
        """The seq number alone must not decide freshness.

        If the feed replays a journal record in the window before the writer
        scrubs it (a refused batch) and a different batch later takes the
        same sequence number, the on-disk journal identity changes even
        though applied_seq does not — the feed must rebuild, not keep
        serving the rolled-back state as that version.
        """
        store = RuleStore()
        feed = SessionFeed(store, session_dir, interval=0.05)
        journal = session_dir / "journal.jsonl"
        committed = journal.read_bytes()

        # The feed publishes a state containing a journaled batch...
        with MaintenanceSession.open(session_dir) as session:
            session.add_transactions([[1, 5], [1, 5], [1, 5]], label="doomed")
        assert feed.refresh() is True
        doomed_rules = store.snapshot().rules

        # ...which the writer then scrubs; a different batch takes seq 2.
        journal.write_bytes(committed)
        with MaintenanceSession.open(session_dir) as session:
            session.remove_transactions([[1, 2, 3]], label="real")
            expected_rules = tuple(session.rules)
            expected_size = len(session.database)

        assert feed.refresh() is True
        snapshot = store.snapshot()
        assert snapshot.version == 2
        assert snapshot.rules == expected_rules != doomed_rules
        assert snapshot.database_size == expected_size
