"""Unit tests for the durable maintenance session."""

from __future__ import annotations

import json

import pytest

from repro import (
    AprioriMiner,
    FupOptions,
    MaintenanceSession,
    TransactionDatabase,
    UpdateBatch,
)
from repro.core.session import JOURNAL_NAME, MANIFEST_NAME
from repro.errors import StaleStateError, StorageError
from repro.harness.runner import run_durable_session


@pytest.fixture
def session_dir(tmp_path):
    return tmp_path / "session"


@pytest.fixture
def session(session_dir, small_database):
    created = MaintenanceSession.create(
        session_dir,
        small_database,
        min_support=0.3,
        min_confidence=0.5,
        checkpoint_interval=3,
    )
    yield created
    created.close()


def _journal_lines(session_dir):
    return (session_dir / JOURNAL_NAME).read_text().splitlines()


def _crash(session):
    """Simulate the process dying: fds close, the flock drops, nothing else.

    ``close()`` is write-free (durability is established per journal append,
    never at close time), so from the disk's point of view a closed session
    is indistinguishable from a killed one — no checkpoint, no journal
    truncation, no flush happens here.
    """
    session.close()


class TestCreate:
    def test_initial_layout(self, session, session_dir):
        assert (session_dir / MANIFEST_NAME).exists()
        assert (session_dir / "snapshot-0.bin").exists()
        assert (session_dir / "state-0.json").exists()
        assert (session_dir / JOURNAL_NAME).read_text() == ""

    def test_initial_state_matches_direct_mine(self, session, small_database):
        direct = AprioriMiner(0.3).mine(small_database)
        assert session.result.lattice.supports() == direct.lattice.supports()

    def test_refuses_existing_session(self, session, session_dir, small_database):
        with pytest.raises(StorageError):
            MaintenanceSession.create(
                session_dir, small_database, min_support=0.3, min_confidence=0.5
            )

    def test_rejects_bad_checkpoint_interval(self, tmp_path, small_database):
        with pytest.raises(ValueError):
            MaintenanceSession.create(
                tmp_path / "s",
                small_database,
                min_support=0.3,
                min_confidence=0.5,
                checkpoint_interval=0,
            )


class TestApply:
    def test_apply_journals_before_state(self, session, session_dir):
        session.apply(UpdateBatch.from_iterables(insertions=[[1, 2]], label="b1"))
        lines = _journal_lines(session_dir)
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["seq"] == 1
        assert record["insertions"] == [[1, 2]]
        assert record["label"] == "b1"

    def test_refused_batch_is_scrubbed_from_journal(self, session, session_dir):
        with pytest.raises(StaleStateError):
            session.apply(UpdateBatch.from_iterables(deletions=[[98, 99]]))
        assert _journal_lines(session_dir) == []
        assert session.applied_seq == 0

    def test_auto_checkpoint_compacts_journal(self, session, session_dir):
        for index in range(3):
            session.apply(UpdateBatch.from_iterables(insertions=[[1, index + 10]]))
        assert session.checkpoint_seq == 3
        assert _journal_lines(session_dir) == []
        assert (session_dir / "snapshot-3.bin").exists()
        assert not (session_dir / "snapshot-0.bin").exists()

    def test_empty_batch_is_never_journaled(self, session, session_dir):
        """No-op batches leave no journal record and burn no sequence number."""
        before = _journal_lines(session_dir)
        report = session.apply(UpdateBatch(label="nothing"))
        assert report.algorithm == "noop"
        assert session.applied_seq == 0
        assert session.pending_batches == 0
        assert _journal_lines(session_dir) == before
        # A real batch afterwards takes the next contiguous sequence number.
        session.add_transactions([[1, 4]], label="real")
        assert session.applied_seq == 1
        assert json.loads(_journal_lines(session_dir)[-1])["seq"] == 1

    def test_maintainer_sequence_tracks_applied_seq(self, session):
        assert session.maintainer.sequence == session.applied_seq == 0
        session.add_transactions([[1, 4], [2, 4]], label="a")
        assert session.maintainer.sequence == session.applied_seq == 1
        session.remove_transactions([[1, 2, 3]], label="b")
        assert session.maintainer.sequence == session.applied_seq == 2

    def test_sequence_survives_reopen_and_checkpoint(self, session, session_dir):
        session.add_transactions([[1, 4], [2, 4]], label="a")
        session.checkpoint()
        session.add_transactions([[2, 5]], label="b")
        _crash(session)
        with MaintenanceSession.open(session_dir) as reopened:
            assert reopened.maintainer.sequence == reopened.applied_seq == 2

    def test_failing_publication_subscriber_does_not_desync_the_journal(
        self, session, session_dir, small_database
    ):
        """A post-commit subscriber error must not scrub the journal record.

        The state change has already committed when subscribers run; treating
        their exception like a refused batch would truncate a journal record
        whose batch IS in the in-memory database — the silent-desync class
        the journal exists to prevent.  The error still propagates, but
        journal, applied_seq and maintainer state all stay in step, and a
        recovery reproduces exactly the live state.
        """

        armed = {"on": False}

        def explode(maintainer):
            if armed["on"]:
                raise RuntimeError("metrics sink offline")

        session.maintainer.subscribe(explode)  # fires once immediately, unarmed
        armed["on"] = True
        with pytest.raises(RuntimeError):
            session.add_transactions([[1, 4], [2, 4]], label="committed")
        assert session.applied_seq == 1
        assert session.maintainer.sequence == 1
        assert len(session.database) == len(small_database) + 2
        assert json.loads(_journal_lines(session_dir)[-1])["seq"] == 1
        live_supports = session.result.lattice.supports()
        _crash(session)
        with MaintenanceSession.open(session_dir) as recovered:
            assert recovered.applied_seq == 1
            assert recovered.result.lattice.supports() == live_supports

    def test_refused_batch_is_still_scrubbed_with_a_subscriber_attached(
        self, session, session_dir
    ):
        """Pre-commit failures keep the scrub semantics even with subscribers."""
        session.maintainer.subscribe(lambda maintainer: None)
        with pytest.raises(StaleStateError):
            session.remove_transactions([[7, 8, 9]], label="phantom")
        assert session.applied_seq == 0
        assert all(
            json.loads(line)["label"] != "phantom"
            for line in _journal_lines(session_dir)
        )

    def test_apply_after_close_is_refused(self, session):
        session.close()
        with pytest.raises(StorageError):
            session.apply(UpdateBatch.from_iterables(insertions=[[1]]))

    def test_convenience_wrappers(self, session, small_database):
        session.add_transactions([[1, 2]], label="add")
        session.remove_transactions([list(small_database[0])], label="del")
        assert session.applied_seq == 2


class TestRecovery:
    def test_reopen_without_close_recovers_everything(self, session, session_dir, small_database):
        session.apply(UpdateBatch.from_iterables(insertions=[[2, 3], [1, 4]]))
        session.apply(UpdateBatch.from_iterables(deletions=[list(small_database[0])]))
        # Simulated crash before any checkpoint — reopen from disk.
        _crash(session)
        recovered = MaintenanceSession.open(session_dir)
        assert recovered.applied_seq == 2
        assert list(recovered.database) == list(session.database)
        assert recovered.result.lattice.supports() == session.result.lattice.supports()
        assert [str(r) for r in recovered.rules] == [str(r) for r in session.rules]
        recovered.close()

    def test_journaled_but_unapplied_batch_is_replayed(self, session, session_dir):
        # Crash between the journal append and the in-memory apply: write the
        # record by hand, then recover.  The batch must be applied exactly once.
        _crash(session)
        with (session_dir / JOURNAL_NAME).open("a") as handle:
            handle.write(json.dumps({"seq": 1, "label": "wal", "insertions": [[1, 5]], "deletions": []}) + "\n")
        recovered = MaintenanceSession.open(session_dir)
        assert recovered.applied_seq == 1
        assert recovered.database.transactions()[-1] == (1, 5)
        remined = AprioriMiner(0.3).mine(recovered.database)
        assert recovered.result.lattice.supports() == remined.lattice.supports()
        recovered.close()

    def test_torn_journal_tail_is_discarded(self, session, session_dir):
        session.apply(UpdateBatch.from_iterables(insertions=[[2, 4]]))
        _crash(session)
        with (session_dir / JOURNAL_NAME).open("a") as handle:
            handle.write('{"seq": 2, "label": "torn", "insertio')
        recovered = MaintenanceSession.open(session_dir)
        assert recovered.applied_seq == 1
        # The torn bytes are gone, so the next apply lands cleanly.
        recovered.apply(UpdateBatch.from_iterables(insertions=[[3, 4]]))
        assert recovered.applied_seq == 2
        for line in _journal_lines(session_dir):
            json.loads(line)
        recovered.close()

    def test_corrupted_middle_record_is_refused(self, session, session_dir):
        _crash(session)
        with (session_dir / JOURNAL_NAME).open("a") as handle:
            handle.write("not json\n")
            handle.write(json.dumps({"seq": 2, "insertions": [[1]], "deletions": []}) + "\n")
        with pytest.raises(StorageError):
            MaintenanceSession.open(session_dir)

    def test_non_contiguous_journal_is_refused(self, session, session_dir):
        _crash(session)
        with (session_dir / JOURNAL_NAME).open("a") as handle:
            handle.write(json.dumps({"seq": 5, "insertions": [[1]], "deletions": []}) + "\n")
        with pytest.raises(StorageError):
            MaintenanceSession.open(session_dir)

    def test_journal_against_wrong_snapshot_fails_loudly(self, session, session_dir):
        # A deletion that the snapshot database cannot satisfy must raise,
        # not silently "delete" a phantom row.
        _crash(session)
        with (session_dir / JOURNAL_NAME).open("a") as handle:
            handle.write(json.dumps({"seq": 1, "deletions": [[77, 88]], "insertions": []}) + "\n")
        with pytest.raises(StaleStateError):
            MaintenanceSession.open(session_dir)

    def test_concurrent_open_is_refused_while_session_is_live(self, session, session_dir):
        # Two live writers would interleave journal seqs and sweep each
        # other's snapshots; the directory lock refuses the second open.
        with pytest.raises(StorageError, match="already in use"):
            MaintenanceSession.open(session_dir)
        # Releasing the lock (crash or close) makes the session reopenable.
        _crash(session)
        MaintenanceSession.open(session_dir).close()

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(StorageError):
            MaintenanceSession.open(tmp_path / "nope")

    def test_open_sweeps_checkpoint_debris(self, session, session_dir):
        # A checkpoint that crashed mid-write leaves .tmp partials and an
        # unreferenced snapshot pair; recovery must clean them up.
        _crash(session)
        (session_dir / "snapshot-9.bin.tmp").write_bytes(b"partial")
        (session_dir / "snapshot-9.bin").write_bytes(b"orphan")
        (session_dir / "state-9.json").write_text("{}")
        recovered = MaintenanceSession.open(session_dir)
        recovered.close()
        names = sorted(p.name for p in session_dir.iterdir())
        assert names == [
            "journal.jsonl",
            "session.json",
            "session.lock",
            "snapshot-0.bin",
            "state-0.json",
        ]

    def test_open_rejects_foreign_manifest(self, tmp_path):
        directory = tmp_path / "bad"
        directory.mkdir()
        (directory / MANIFEST_NAME).write_text('{"format": "something-else"}')
        with pytest.raises(StorageError):
            MaintenanceSession.open(directory)

    def test_recovery_equivalent_to_uninterrupted_run(self, tmp_path, small_database):
        batches = [
            UpdateBatch.from_iterables(insertions=[[1, 4], [2, 3, 4]], label="a"),
            UpdateBatch.from_iterables(deletions=[list(small_database[1])], label="b"),
            UpdateBatch.from_iterables(insertions=[[1, 2, 4]], deletions=[[2, 4]], label="c"),
            UpdateBatch.from_iterables(insertions=[[3, 4]], label="d"),
        ]
        smooth = MaintenanceSession.create(
            tmp_path / "smooth", small_database, min_support=0.3, min_confidence=0.5
        )
        for batch in batches:
            smooth.apply(batch)

        bumpy = MaintenanceSession.create(
            tmp_path / "bumpy",
            small_database,
            min_support=0.3,
            min_confidence=0.5,
            checkpoint_interval=2,
        )
        for batch in batches[:2]:
            bumpy.apply(batch)
        _crash(bumpy)
        resumed = MaintenanceSession.open(tmp_path / "bumpy")
        for batch in batches[2:]:
            resumed.apply(batch)

        assert list(resumed.database) == list(smooth.database)
        assert resumed.result.lattice.supports() == smooth.result.lattice.supports()
        assert [str(r) for r in resumed.rules] == [str(r) for r in smooth.rules]
        smooth.close()
        resumed.close()


class TestCheckpointAndStatus:
    def test_manual_checkpoint(self, session, session_dir):
        session.apply(UpdateBatch.from_iterables(insertions=[[1, 5]]))
        assert session.pending_batches == 1
        seq = session.checkpoint()
        assert seq == 1
        assert session.pending_batches == 0
        assert (session_dir / "snapshot-1.bin").exists()
        assert _journal_lines(session_dir) == []

    def test_checkpoint_with_nothing_pending_is_a_noop(self, session, session_dir):
        before = (session_dir / MANIFEST_NAME).read_text()
        assert session.checkpoint() == 0
        assert (session_dir / MANIFEST_NAME).read_text() == before

    def test_status_and_peek_agree(self, session, session_dir):
        session.apply(UpdateBatch.from_iterables(insertions=[[4, 5]]))
        live = session.status()
        peeked = MaintenanceSession.peek(session_dir)
        assert live.applied_seq == peeked.applied_seq == 1
        assert live.checkpoint_seq == peeked.checkpoint_seq == 0
        assert live.pending_batches == peeked.pending_batches == 1
        # peek describes the checkpoint, not the journaled tail
        assert peeked.database_size == 9
        assert live.database_size == 10

    def test_peek_does_not_touch_files(self, session, session_dir):
        session.apply(UpdateBatch.from_iterables(insertions=[[4, 5]]))
        journal_before = (session_dir / JOURNAL_NAME).read_bytes()
        MaintenanceSession.peek(session_dir)
        assert (session_dir / JOURNAL_NAME).read_bytes() == journal_before

    def test_peek_reports_mid_journal_corruption(self, session, session_dir):
        # status must not show a healthy count for a journal open() refuses.
        session.apply(UpdateBatch.from_iterables(insertions=[[4, 5]]))
        _crash(session)
        with (session_dir / JOURNAL_NAME).open("a") as handle:
            handle.write("garbage\n")
            handle.write(json.dumps({"seq": 2, "insertions": [[1]], "deletions": []}) + "\n")
        with pytest.raises(StorageError):
            MaintenanceSession.peek(session_dir)

    def test_peek_tolerates_torn_final_line(self, session, session_dir):
        session.apply(UpdateBatch.from_iterables(insertions=[[4, 5]]))
        with (session_dir / JOURNAL_NAME).open("a") as handle:
            handle.write('{"seq": 2, "torn')
        assert MaintenanceSession.peek(session_dir).pending_batches == 1

    def test_recovery_preserves_the_database_name(self, tmp_path):
        directory = tmp_path / "named"
        database = TransactionDatabase([[1, 2], [1, 2], [2, 3]], name="retail")
        created = MaintenanceSession.create(
            directory, database, min_support=0.5, min_confidence=0.5
        )
        _crash(created)
        reopened = MaintenanceSession.open(directory)
        assert reopened.database.name == "retail"
        _crash(reopened)

    def test_recovery_keeps_an_unnamed_database_unnamed(self, tmp_path):
        # load_database's filename-stem fallback must not rename the
        # database to "snapshot-0" on recovery.
        directory = tmp_path / "unnamed"
        created = MaintenanceSession.create(
            directory,
            TransactionDatabase([[1, 2], [1, 2], [2, 3]]),
            min_support=0.5,
            min_confidence=0.5,
        )
        _crash(created)
        reopened = MaintenanceSession.open(directory)
        assert reopened.database.name == ""
        _crash(reopened)


class TestSkipCheckManifests:
    """Sessions whose manifest still records the retired skip pre-check.

    Earlier releases could run a DELI-style skip pre-check and persisted
    ``skip_check``/``skip_stats`` in ``session.json``.  A skipped round
    installed exactly the lattice full FUP computes, so such a session
    recovers by plain FUP to the same state as a twin that never skipped.
    """

    BATCHES = [
        [[1, 2], [1, 2, 3]],
        [[1, 2]],
        [[2, 4], [3, 4]],
        [[1, 3], [1, 2]],
        [[1, 2, 3]],
    ]
    LEGACY_KEYS = {
        "skip_check": True,
        "skip_stats": {
            "rounds_checked": 4,
            "rounds_skipped": 2,
            "rounds_forced": 2,
            "forced_by_gap": 0,
            "forced_by_border": 1,
            "forced_by_estimate": 1,
            "forced_by_certification": 0,
            "estimated_change": 1,
            "actual_change": 1,
        },
    }

    def _make(self, directory, database):
        with MaintenanceSession.create(
            directory,
            database,
            min_support=0.3,
            min_confidence=0.5,
            checkpoint_interval=3,
        ) as created:
            for number, rows in enumerate(self.BATCHES):
                created.add_transactions(rows, label=f"b{number}")
            # A checkpoint at batch 3 plus two journaled batches to replay.
            assert created.pending_batches == 2

    def _legacy_twin(self, tmp_path, database):
        clean, legacy = tmp_path / "clean", tmp_path / "legacy"
        self._make(clean, database)
        self._make(legacy, database)
        manifest_path = legacy / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest.update(self.LEGACY_KEYS)
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        return clean, legacy

    def test_recovers_byte_identical_to_a_clean_twin(self, tmp_path, small_database):
        clean, legacy = self._legacy_twin(tmp_path, small_database)
        for directory in (clean, legacy):
            with MaintenanceSession.open(directory) as reopened:
                assert reopened.applied_seq == len(self.BATCHES)
                reopened.checkpoint()
        seq = len(self.BATCHES)
        for name in (f"state-{seq}.json", f"snapshot-{seq}.bin", MANIFEST_NAME):
            assert (legacy / name).read_bytes() == (clean / name).read_bytes(), name
        with MaintenanceSession.open(clean) as a, MaintenanceSession.open(legacy) as b:
            assert [str(rule) for rule in b.rules] == [str(rule) for rule in a.rules]

    def test_status_and_health_no_longer_mention_skip(self, tmp_path, small_database, capsys):
        import http.client

        from repro import AsyncRuleServer, RuleStore, SessionFeed
        from repro.cli import main

        _, legacy = self._legacy_twin(tmp_path, small_database)
        assert main(["session", "status", str(legacy)]) == 0
        assert "skip" not in capsys.readouterr().out
        assert not any("skip" in key for key in MaintenanceSession.peek(legacy).as_dict())

        store = RuleStore()
        SessionFeed(store, legacy).refresh(strict=True)
        with AsyncRuleServer(store) as server:
            connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
            connection.request("GET", "/health")
            response = connection.getresponse()
            body = response.read().decode("utf-8")
            connection.close()
        assert response.status == 200
        assert json.loads(body)["version"] == len(self.BATCHES)
        assert "skip" not in body


class TestRetiredEngineManifests:
    """Sessions whose manifest still names the retired engine options.

    Earlier releases persisted ``shards``/``executor``/``workers``/``kernel``
    in ``session.json`` and could run the partitioned engine.  Every engine
    counts the same supports and the numpy kernel held the same bits as the
    big-int masks, so such a session opens on the vertical engine and, after
    its next checkpoint, is byte-identical to a twin created on it.
    """

    BATCHES = TestSkipCheckManifests.BATCHES
    PARENT_KEYS = {"shards": 4, "executor": "threads", "workers": None, "kernel": None}
    VARIANTS = {
        "engine-keys": {"backend": "vertical", **PARENT_KEYS},
        "kernel-numpy": {"backend": "vertical", **PARENT_KEYS, "kernel": "numpy"},
        "kernel-auto": {"backend": "vertical", **PARENT_KEYS, "kernel": "auto"},
        "partitioned": {
            "backend": "partitioned",
            "shards": 2,
            "executor": "processes",
            "workers": 2,
            "kernel": "numpy",
        },
    }

    def _make(self, directory, database):
        with MaintenanceSession.create(
            directory,
            database,
            min_support=0.3,
            min_confidence=0.5,
            fup_options=FupOptions(backend="vertical"),
            checkpoint_interval=3,
        ) as created:
            for number, rows in enumerate(self.BATCHES):
                created.add_transactions(rows, label=f"b{number}")
            assert created.pending_batches == 2

    def _legacy_twin(self, tmp_path, database, variant):
        clean, legacy = tmp_path / "clean", tmp_path / "legacy"
        self._make(clean, database)
        self._make(legacy, database)
        manifest_path = legacy / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest.update(self.VARIANTS[variant])
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        return clean, legacy

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_recovers_byte_identical_to_a_vertical_twin(self, tmp_path, small_database, variant):
        clean, legacy = self._legacy_twin(tmp_path, small_database, variant)
        for directory in (clean, legacy):
            with MaintenanceSession.open(directory) as reopened:
                assert reopened.applied_seq == len(self.BATCHES)
                assert reopened.maintainer.fup_options == FupOptions(backend="vertical")
                reopened.checkpoint()
        seq = len(self.BATCHES)
        for name in (f"state-{seq}.json", f"snapshot-{seq}.bin", MANIFEST_NAME):
            assert (legacy / name).read_bytes() == (clean / name).read_bytes(), name
        with MaintenanceSession.open(clean) as a, MaintenanceSession.open(legacy) as b:
            assert [str(rule) for rule in b.rules] == [str(rule) for rule in a.rules]

    def test_status_and_health_no_longer_mention_engine_options(
        self, tmp_path, small_database, capsys
    ):
        import http.client

        from repro import AsyncRuleServer, RuleStore, SessionFeed
        from repro.cli import main

        retired = ("shard", "executor", "workers", "kernel", "partitioned")
        _, legacy = self._legacy_twin(tmp_path, small_database, "partitioned")
        assert main(["session", "status", str(legacy)]) == 0
        status = capsys.readouterr().out
        assert "backend: vertical" in status
        assert not any(word in status for word in retired)
        peeked = MaintenanceSession.peek(legacy).as_dict()
        assert peeked["backend"] == "vertical"
        assert not any(word in key for key in peeked for word in retired)

        store = RuleStore()
        SessionFeed(store, legacy).refresh(strict=True)
        with AsyncRuleServer(store) as server:
            connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
            connection.request("GET", "/health")
            response = connection.getresponse()
            body = response.read().decode("utf-8")
            connection.close()
        assert response.status == 200
        assert json.loads(body)["version"] == len(self.BATCHES)
        assert not any(word in body for word in retired)


class TestHarnessRunner:
    def test_run_durable_session_creates_and_resumes(self, tmp_path, small_database):
        directory = tmp_path / "durable"
        first = run_durable_session(
            directory,
            [UpdateBatch.from_iterables(insertions=[[1, 4]], label="one")],
            database=small_database,
            min_support=0.3,
        )
        assert [record.seq for record in first] == [1]
        second = run_durable_session(
            directory,
            [UpdateBatch.from_iterables(insertions=[[2, 4]], label="two")],
        )
        assert [record.seq for record in second] == [2]
        assert second[0].database_size == 11
        assert set(second[0].as_dict()) >= {"seq", "label", "algorithm", "seconds"}

    def test_run_durable_session_requires_seed_for_new_directory(self, tmp_path):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            run_durable_session(tmp_path / "missing", [])

    def test_run_durable_session_surfaces_corruption(self, tmp_path, small_database):
        directory = tmp_path / "corrupt"
        directory.mkdir()
        (directory / MANIFEST_NAME).write_text("{not json")
        # A damaged session must raise its real diagnosis, not fall into the
        # create path and report "already holds a session".
        with pytest.raises(StorageError, match="not valid JSON"):
            run_durable_session(directory, [], database=small_database, min_support=0.3)
