"""Persistence for transaction databases.

Three interchangeable formats are provided:

* **Text** — one transaction per line, items as space-separated integers.
  This is the de-facto interchange format used by most frequent-itemset
  benchmark datasets (e.g. the FIMI repository), so databases written here
  can be consumed by other tools and vice versa.
* **Binary (snapshot v1)** — a compact little-endian encoding (transaction
  length followed by item ids, 4 bytes each).  Used when the synthetic
  workloads of the benchmark harness are cached on disk between runs, and
  by maintenance-session checkpoints before format v2 existed.
* **Snapshot v2** — a versioned, memory-mappable layout: a fixed 128-byte
  header, then 64-byte-aligned sections holding the transactions in CSR
  form (``uint64`` offsets + ``uint32`` item ids) and, optionally, the
  vertical index's bitmap lanes (row-major ``uint64``, one row per item —
  exactly :meth:`VerticalIndex.export_lanes`).  :func:`open_snapshot` maps
  the file and reconstructs the database in O(items): the vertical index's
  masks are read straight from the lane section (one ``int.from_bytes``
  per item) and the transaction rows materialize lazily on first real use,
  so a session or serving process starts without parsing the database.

All formats round-trip exactly through :class:`TransactionDatabase`;
:func:`load_database` sniffs the file magic, so v1 snapshots keep loading
byte-exactly, and :func:`migrate_snapshot` upgrades v1 → v2 explicitly.
"""

from __future__ import annotations

import mmap
import struct
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ..errors import StorageError
from .transaction_db import Transaction, TransactionDatabase
from .vertical_index import VerticalIndex

__all__ = [
    "SnapshotInfo",
    "write_transactions_text",
    "read_transactions_text",
    "write_transactions_binary",
    "read_transactions_binary",
    "write_snapshot",
    "open_snapshot",
    "inspect_snapshot",
    "migrate_snapshot",
    "save_database",
    "load_database",
]

_HEADER = b"REPROTDB"
_RECORD = struct.Struct("<I")


def write_transactions_text(path: str | Path, transactions: Iterable[Transaction]) -> int:
    """Write transactions to *path* in the one-line-per-transaction text format.

    Returns the number of transactions written.
    """
    path = Path(path)
    written = 0
    try:
        with path.open("w", encoding="ascii") as handle:
            for transaction in transactions:
                handle.write(" ".join(str(item) for item in transaction))
                handle.write("\n")
                written += 1
    except OSError as exc:
        raise StorageError(f"cannot write database to {path}: {exc}") from exc
    return written


def read_transactions_text(path: str | Path) -> Iterator[Transaction]:
    """Yield transactions from a text-format file (empty lines are empty transactions)."""
    path = Path(path)
    try:
        with path.open("r", encoding="ascii") as handle:
            for line_number, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped:
                    yield ()
                    continue
                try:
                    yield tuple(sorted({int(token) for token in stripped.split()}))
                except ValueError as exc:
                    raise StorageError(
                        f"{path}:{line_number}: non-integer item in {stripped!r}"
                    ) from exc
    except OSError as exc:
        raise StorageError(f"cannot read database from {path}: {exc}") from exc


def write_transactions_binary(path: str | Path, transactions: Iterable[Transaction]) -> int:
    """Write transactions to *path* in the compact binary format."""
    path = Path(path)
    written = 0
    try:
        with path.open("wb") as handle:
            handle.write(_HEADER)
            for transaction in transactions:
                handle.write(_RECORD.pack(len(transaction)))
                for item in transaction:
                    handle.write(_RECORD.pack(item))
                written += 1
    except OSError as exc:
        raise StorageError(f"cannot write database to {path}: {exc}") from exc
    return written


def read_transactions_binary(path: str | Path) -> Iterator[Transaction]:
    """Yield transactions from a binary-format file written by this module."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise StorageError(f"cannot read database from {path}: {exc}") from exc
    if not data.startswith(_HEADER):
        raise StorageError(f"{path} is not a repro binary transaction file")
    offset = len(_HEADER)
    total = len(data)
    while offset < total:
        if offset + _RECORD.size > total:
            raise StorageError(f"{path} is truncated at byte {offset}")
        (length,) = _RECORD.unpack_from(data, offset)
        offset += _RECORD.size
        end = offset + length * _RECORD.size
        if end > total:
            raise StorageError(f"{path} is truncated at byte {offset}")
        items = struct.unpack_from(f"<{length}I", data, offset) if length else ()
        offset = end
        yield tuple(sorted(set(items)))


# --------------------------------------------------------------------- #
# Snapshot format v2 — memory-mappable, with the vertical index's lanes
# --------------------------------------------------------------------- #
_V2_MAGIC = b"REPROSN2"
_V2_VERSION = 2
#: Header: magic, version u32, flags u32, then n_tx / n_entries / n_items /
#: lane_words / 4 section offsets as u64 — padded to 128 bytes.
_V2_HEADER = struct.Struct("<8sII8Q")
_V2_HEADER_SIZE = 128
_V2_ALIGN = 64
_FLAG_LANES = 1
_MAX_ITEM_ID = (1 << 32) - 1


def _align(offset: int, alignment: int = _V2_ALIGN) -> int:
    return (offset + alignment - 1) & ~(alignment - 1)


def _le_array(typecode: str, values: Iterable[int]) -> bytes:
    """Values packed as little-endian machine words, whatever the host order."""
    packed = array(typecode, values)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts only
        packed.byteswap()
    return packed.tobytes()


def write_snapshot(
    database: TransactionDatabase,
    path: str | Path,
    include_lanes: bool | None = None,
) -> int:
    """Persist *database* to *path* in snapshot format v2; return its v1-equivalent count.

    *include_lanes* controls whether the vertical index's lane section is
    written: ``None`` (default) writes it when the index is already built
    (maintenance sessions keep it live, so checkpoints inherit it for free),
    ``True`` forces a build, ``False`` omits the section.  The write goes
    through an ordinary buffered file — atomicity is the caller's business,
    as it always was for v1.
    """
    transactions = database.transactions()
    n_tx = len(transactions)

    offsets: list[int] = [0]
    total = 0
    for transaction in transactions:
        total += len(transaction)
        offsets.append(total)

    if include_lanes is None:
        include_lanes = database.has_vertical_index
    if include_lanes:
        items, lane_words, lane_bytes = database.vertical().export_lanes()
    else:
        items, lane_words, lane_bytes = [], 0, b""
    flags = _FLAG_LANES if include_lanes else 0

    for item_source in (items if include_lanes else ()):
        if item_source > _MAX_ITEM_ID:
            raise StorageError(
                f"item id {item_source} does not fit the snapshot's 32-bit item encoding"
            )

    tx_offsets = _le_array("Q", offsets)
    try:
        tx_items = _le_array("I", (item for t in transactions for item in t))
    except OverflowError as exc:
        raise StorageError(
            "an item id does not fit the snapshot's 32-bit item encoding"
        ) from exc
    item_ids = _le_array("I", items)

    off = _V2_HEADER_SIZE
    section_offsets = []
    for section in (tx_offsets, tx_items, item_ids, lane_bytes):
        section_offsets.append(off)
        off = _align(off + len(section))

    header = _V2_HEADER.pack(
        _V2_MAGIC,
        _V2_VERSION,
        flags,
        n_tx,
        total,
        len(items),
        lane_words,
        *section_offsets,
    )
    path = Path(path)
    try:
        with path.open("wb") as handle:
            handle.write(header)
            handle.write(b"\0" * (_V2_HEADER_SIZE - len(header)))
            position = _V2_HEADER_SIZE
            for start, section in zip(
                section_offsets,
                (tx_offsets, tx_items, item_ids, lane_bytes),
                strict=True,
            ):
                handle.write(b"\0" * (start - position))
                handle.write(section)
                position = start + len(section)
    except OSError as exc:
        raise StorageError(f"cannot write snapshot to {path}: {exc}") from exc
    return n_tx


def _parse_v2_header(data: bytes | memoryview, path: Path, size: int) -> tuple:
    if size < _V2_HEADER_SIZE:
        raise StorageError(f"{path} is truncated: no room for a snapshot header")
    magic, version, flags, n_tx, n_entries, n_items, lane_words, *offsets = (
        _V2_HEADER.unpack_from(data, 0)
    )
    if version != _V2_VERSION:
        raise StorageError(f"{path}: unsupported snapshot version {version}")
    sections = (
        (offsets[0], (n_tx + 1) * 8),
        (offsets[1], n_entries * 4),
        (offsets[2], n_items * 4),
        (offsets[3], n_items * lane_words * 8 if flags & _FLAG_LANES else 0),
    )
    for start, length in sections:
        if start % 8 or start + length > size:
            raise StorageError(f"{path} is corrupt: section [{start}, {start + length}) "
                               f"does not fit the {size}-byte file")
    if flags & _FLAG_LANES and lane_words * 64 < n_tx:
        raise StorageError(
            f"{path} is corrupt: {lane_words} lane words cannot cover {n_tx} transactions"
        )
    return flags, n_tx, n_entries, n_items, lane_words, sections


def open_snapshot(path: str | Path, name: str = "") -> TransactionDatabase:
    """Memory-map a v2 snapshot and rebuild its database in O(items).

    The returned database carries the snapshot's vertical index (when the
    lane section is present) reconstructed straight from the mapping, and
    a lazy transaction loader: size queries and vertical counting never
    touch the transaction sections, while the first operation that really
    needs the rows (iteration, mutation) parses them once.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:
        raise StorageError(f"cannot read snapshot from {path}: {exc}") from exc
    if mapping[: len(_V2_MAGIC)] != _V2_MAGIC:
        mapping.close()
        raise StorageError(f"{path} is not a repro v2 snapshot")
    flags, n_tx, n_entries, n_items, lane_words, sections = _parse_v2_header(
        mapping, path, len(mapping)
    )
    (off_tx_offsets, _), (off_tx_items, _), (off_item_ids, _), (off_lanes, lane_len) = (
        sections
    )

    def load_transactions() -> list[Transaction]:
        bounds = struct.unpack_from(f"<{n_tx + 1}Q", mapping, off_tx_offsets)
        entries = struct.unpack_from(f"<{n_entries}I", mapping, off_tx_items)
        return [
            tuple(entries[bounds[tid] : bounds[tid + 1]]) for tid in range(n_tx)
        ]

    database = TransactionDatabase._lazy(
        load_transactions, n_tx, name=name or path.stem
    )
    if flags & _FLAG_LANES:
        item_ids = list(struct.unpack_from(f"<{n_items}I", mapping, off_item_ids))
        lanes = memoryview(mapping)[off_lanes : off_lanes + lane_len]
        database._vertical = VerticalIndex.from_lanes(item_ids, lanes, n_tx)
    return database


@dataclass(frozen=True)
class SnapshotInfo:
    """What ``repro snapshot inspect`` reports about one snapshot file."""

    path: str
    format_version: int
    byte_size: int
    transactions: int
    item_entries: int
    distinct_items: int
    lane_words: int
    lanes_present: bool

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "format_version": self.format_version,
            "byte_size": self.byte_size,
            "transactions": self.transactions,
            "item_entries": self.item_entries,
            "distinct_items": self.distinct_items,
            "lane_words": self.lane_words,
            "lanes_present": self.lanes_present,
        }


def inspect_snapshot(path: str | Path) -> SnapshotInfo:
    """Describe a v1 or v2 snapshot without loading it into a database.

    v2 answers straight from the header; v1 has no header beyond its magic,
    so its counts cost one parse of the record stream.  Unknown or corrupt
    files raise :class:`~repro.errors.StorageError`.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise StorageError(f"cannot read snapshot from {path}: {exc}") from exc
    if data.startswith(_V2_MAGIC):
        flags, n_tx, n_entries, n_items, lane_words, _ = _parse_v2_header(
            data, path, len(data)
        )
        return SnapshotInfo(
            path=str(path),
            format_version=_V2_VERSION,
            byte_size=len(data),
            transactions=n_tx,
            item_entries=n_entries,
            distinct_items=n_items,
            lane_words=lane_words,
            lanes_present=bool(flags & _FLAG_LANES),
        )
    if data.startswith(_HEADER):
        transactions = entries = 0
        distinct: set[int] = set()
        for transaction in read_transactions_binary(path):
            transactions += 1
            entries += len(transaction)
            distinct.update(transaction)
        return SnapshotInfo(
            path=str(path),
            format_version=1,
            byte_size=len(data),
            transactions=transactions,
            item_entries=entries,
            distinct_items=len(distinct),
            lane_words=0,
            lanes_present=False,
        )
    raise StorageError(f"{path} is not a repro snapshot (unknown magic)")


def migrate_snapshot(source: str | Path, destination: str | Path) -> SnapshotInfo:
    """Rewrite the v1 snapshot at *source* as a v2 snapshot at *destination*.

    The migration builds the vertical index so the v2 file carries the lane
    section (that is the point of upgrading — O(1) reopening).  The source
    is left untouched; migrating a file that is already v2 is an error.
    """
    source = Path(source)
    info = inspect_snapshot(source)
    if info.format_version != 1:
        raise StorageError(
            f"{source} is already snapshot format v{info.format_version}"
        )
    database = load_database(source, binary=True)
    write_snapshot(database, destination, include_lanes=True)
    return inspect_snapshot(destination)


def save_database(database: TransactionDatabase, path: str | Path, binary: bool = False) -> int:
    """Persist *database* to *path*; pick the format with the *binary* flag."""
    writer = write_transactions_binary if binary else write_transactions_text
    return writer(path, database.transactions())


def load_database(
    path: str | Path,
    name: str = "",
    binary: bool = False,
) -> TransactionDatabase:
    """Load a database previously written with :func:`save_database` or
    :func:`write_snapshot`.

    The file magic is sniffed first: a v2 snapshot memory-maps through
    :func:`open_snapshot` whatever *binary* says, and a v1 binary file
    takes the binary reader —
    so callers never have to know which format a file is in.  Anything
    else takes the reader the *binary* flag names, exactly as before.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            magic = handle.read(max(len(_V2_MAGIC), len(_HEADER)))
    except OSError as exc:
        raise StorageError(f"cannot read database from {path}: {exc}") from exc
    if magic[: len(_V2_MAGIC)] == _V2_MAGIC:
        return open_snapshot(path, name=name)
    if magic[: len(_HEADER)] == _HEADER:
        binary = True
    reader = read_transactions_binary if binary else read_transactions_text
    database = TransactionDatabase(name=name or Path(path).stem)
    database.extend(reader(path))
    return database
