"""Unit tests for snapshot format v2 (memory-mappable) and its v1 bridge."""

from __future__ import annotations

import struct

import pytest

from repro import TransactionDatabase, load_database, save_database
from repro.db.store import (
    _V2_HEADER,
    _V2_HEADER_SIZE,
    _V2_MAGIC,
    inspect_snapshot,
    migrate_snapshot,
    open_snapshot,
    write_snapshot,
)
from repro.db.transaction_db import build_vertical_index
from repro.errors import StorageError


@pytest.fixture
def sample_database() -> TransactionDatabase:
    return TransactionDatabase(
        [[1, 2, 3], [5], [], [10, 20, 30, 40], [2, 3, 5]], name="sample"
    )


class TestRoundTrip:
    def test_transactions_round_trip(self, tmp_path, sample_database):
        path = tmp_path / "snap.v2"
        written = write_snapshot(sample_database, path)
        assert written == len(sample_database)
        reopened = open_snapshot(path)
        assert reopened.transactions() == sample_database.transactions()
        assert len(reopened) == len(sample_database)

    def test_lane_section_round_trips(self, tmp_path, sample_database):
        sample_database.vertical()
        path = tmp_path / "snap.v2"
        write_snapshot(sample_database, path)
        reopened = open_snapshot(path)
        assert reopened.has_vertical_index
        assert dict(reopened.vertical()) == dict(sample_database.vertical())
        assert reopened.transactions() == sample_database.transactions()

    def test_include_lanes_defaults_to_index_presence(self, tmp_path, sample_database):
        bare = tmp_path / "bare.v2"
        write_snapshot(sample_database, bare)  # index never built
        assert not inspect_snapshot(bare).lanes_present

        sample_database.vertical()
        indexed = tmp_path / "indexed.v2"
        write_snapshot(sample_database, indexed)
        assert inspect_snapshot(indexed).lanes_present

    def test_include_lanes_true_forces_a_build(self, tmp_path, sample_database):
        path = tmp_path / "snap.v2"
        write_snapshot(sample_database, path, include_lanes=True)
        info = inspect_snapshot(path)
        assert info.lanes_present
        assert info.distinct_items == len(
            build_vertical_index(sample_database.transactions())
        )

    def test_empty_database(self, tmp_path):
        path = tmp_path / "empty.v2"
        write_snapshot(TransactionDatabase(), path, include_lanes=True)
        reopened = open_snapshot(path)
        assert len(reopened) == 0
        assert reopened.transactions() == []

    def test_name_defaults_to_file_stem(self, tmp_path, sample_database):
        path = tmp_path / "checkpoint.v2"
        write_snapshot(sample_database, path)
        assert open_snapshot(path).name == "checkpoint"
        assert open_snapshot(path, name="given").name == "given"


class TestLaziness:
    def test_open_defers_the_transaction_parse(self, tmp_path, sample_database):
        sample_database.vertical()
        path = tmp_path / "snap.v2"
        write_snapshot(sample_database, path)
        reopened = open_snapshot(path)
        assert not reopened.transactions_loaded
        # Size and vertical counting answer from the header and lanes alone.
        assert len(reopened) == len(sample_database)
        assert reopened.vertical().support((2, 3)) == 2
        assert not reopened.transactions_loaded
        # The first real row access materializes the transactions once.
        assert reopened.transactions() == sample_database.transactions()
        assert reopened.transactions_loaded


class TestFormatBridge:
    def test_load_database_sniffs_the_v2_magic(self, tmp_path, sample_database):
        path = tmp_path / "snap.v2"
        write_snapshot(sample_database, path)
        # Whatever the caller believes the format is, the magic wins.
        for binary in (False, True):
            loaded = load_database(path, binary=binary)
            assert loaded.transactions() == sample_database.transactions()

    def test_v1_snapshots_still_load_byte_exactly(self, tmp_path, sample_database):
        path = tmp_path / "snap.v1"
        save_database(sample_database, path, binary=True)
        before = path.read_bytes()
        loaded = load_database(path, binary=True)
        assert loaded.transactions() == sample_database.transactions()
        assert path.read_bytes() == before

    def test_load_database_sniffs_the_v1_binary_magic(self, tmp_path, sample_database):
        # A v1 binary file loads without the caller passing binary=True —
        # the CLI hands every database path to load_database unflagged.
        path = tmp_path / "snap.v1"
        save_database(sample_database, path, binary=True)
        loaded = load_database(path)
        assert loaded.transactions() == sample_database.transactions()

    def test_migrate_upgrades_v1_and_keeps_the_source(self, tmp_path, sample_database):
        v1 = tmp_path / "snap.v1"
        v2 = tmp_path / "snap.v2"
        save_database(sample_database, v1, binary=True)
        before = v1.read_bytes()
        info = migrate_snapshot(v1, v2)
        assert info.format_version == 2
        assert info.lanes_present  # the point of upgrading
        assert v1.read_bytes() == before
        assert open_snapshot(v2).transactions() == sample_database.transactions()

    def test_migrating_a_v2_snapshot_is_an_error(self, tmp_path, sample_database):
        v2 = tmp_path / "snap.v2"
        write_snapshot(sample_database, v2)
        with pytest.raises(StorageError, match="already snapshot format"):
            migrate_snapshot(v2, tmp_path / "other.v2")


class TestInspect:
    def test_inspect_v2_answers_from_the_header(self, tmp_path, sample_database):
        sample_database.vertical()
        path = tmp_path / "snap.v2"
        write_snapshot(sample_database, path)
        info = inspect_snapshot(path)
        assert info.format_version == 2
        assert info.transactions == len(sample_database)
        assert info.item_entries == sum(
            len(t) for t in sample_database.transactions()
        )
        assert info.distinct_items == len(dict(sample_database.vertical()))
        assert info.lane_words == 1
        assert info.byte_size == path.stat().st_size

    def test_inspect_v1_parses_the_stream(self, tmp_path, sample_database):
        path = tmp_path / "snap.v1"
        save_database(sample_database, path, binary=True)
        info = inspect_snapshot(path)
        assert info.format_version == 1
        assert info.transactions == len(sample_database)
        assert not info.lanes_present
        assert info.lane_words == 0

    def test_inspect_unknown_magic(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"not a snapshot at all")
        with pytest.raises(StorageError, match="unknown magic"):
            inspect_snapshot(path)

    def test_inspect_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            inspect_snapshot(tmp_path / "absent.v2")


class TestCorruption:
    def _valid_bytes(self, tmp_path, sample_database) -> bytes:
        path = tmp_path / "snap.v2"
        sample_database.vertical()
        write_snapshot(sample_database, path)
        return path.read_bytes()

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.v2"
        path.write_bytes(_V2_MAGIC + b"\0" * 8)
        with pytest.raises(StorageError):
            open_snapshot(path)

    def test_unsupported_version(self, tmp_path, sample_database):
        data = bytearray(self._valid_bytes(tmp_path, sample_database))
        struct.pack_into("<I", data, len(_V2_MAGIC), 99)
        path = tmp_path / "future.v2"
        path.write_bytes(data)
        with pytest.raises(StorageError, match="unsupported snapshot version"):
            open_snapshot(path)

    def test_section_past_end_of_file(self, tmp_path, sample_database):
        data = self._valid_bytes(tmp_path, sample_database)
        path = tmp_path / "cut.v2"
        path.write_bytes(data[: _V2_HEADER_SIZE + 8])  # header survives, body gone
        with pytest.raises(StorageError, match="corrupt"):
            open_snapshot(path)

    def test_lane_words_too_narrow_for_the_transactions(
        self, tmp_path, sample_database
    ):
        data = bytearray(self._valid_bytes(tmp_path, sample_database))
        fields = list(_V2_HEADER.unpack_from(data, 0))
        fields[6] = 0  # lane_words: 0 words cannot cover 5 transactions
        _V2_HEADER.pack_into(data, 0, *fields)
        path = tmp_path / "narrow.v2"
        path.write_bytes(data)
        with pytest.raises(StorageError, match="lane words"):
            open_snapshot(path)

    def test_item_id_beyond_32_bits_refuses_to_write(self, tmp_path):
        database = TransactionDatabase([[1, 2**32]])
        with pytest.raises(StorageError, match="32-bit"):
            write_snapshot(database, tmp_path / "wide.v2")
