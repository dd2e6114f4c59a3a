"""Durable, resumable maintenance sessions.

The paper's economics — O(d) per update batch instead of a re-mine — only pay
off if the maintained state *survives between batches*.  A
:class:`MaintenanceSession` makes a :class:`~repro.core.maintenance.RuleMaintainer`
durable: it owns an on-disk session directory and guarantees that a process
crash at any point loses at most the batch that was mid-flight, recovering by
strict replay of a journal tail over the last snapshot.

Directory layout
----------------

``session.json``
    The manifest: session configuration (thresholds, miner, counting
    backend) plus the current checkpoint sequence number.  Updated
    atomically (write-to-temp + rename) only at checkpoint time.
``snapshot-<seq>.bin``
    Binary database snapshot (the :mod:`repro.db.store` format) as of
    checkpoint ``seq`` — the number of batches folded into it.
``state-<seq>.json``
    The itemset state (lattice + support counts) at the same checkpoint, in
    the same JSON format the CLI's ``mine --state`` writes.  Rules are not
    persisted: they regenerate deterministically from the lattice.
``journal.jsonl``
    The append-only update-log journal: one JSON record per batch
    (``{"seq": n, "label": ..., "insertions": [...], "deletions": [...]}``),
    written **and fsynced before the batch is applied** in memory.  Batches
    arriving through the streaming intake additionally carry their event
    ``"keys"``, so the journal doubles as the recovery source for the
    intake ledger.
``ledger.jsonl``
    Present when an :class:`~repro.ingest.ledger.IntakeLedger` is attached
    (``repro ingest`` / ``repro pipeline``): the durable seen-set of
    client-supplied event keys that makes at-least-once delivery
    effectively-once.  Appended and fsynced *after* the batch commits,
    compacted alongside every checkpoint.

Crash-recovery protocol
-----------------------

* ``apply`` validates the batch (phantom deletions are refused in O(d),
  before anything touches disk), journals it, then applies it.  If the
  process dies between journal and apply, :meth:`MaintenanceSession.open`
  replays the journaled batch — maintenance is deterministic, so the
  recovered state is bit-for-bit what an uninterrupted run would have
  produced.  Should the updater still refuse a journaled batch, its record
  is truncated away so recovery never replays a batch that was never
  applied.
* Replay is **strict**: every journaled deletion must name a transaction
  present at that point of the replay
  (:meth:`~repro.db.transaction_db.TransactionDatabase.remove_batch` with
  ``strict=True``), so a journal replayed over the wrong snapshot fails
  loudly instead of silently desyncing.
* A torn trailing journal line (the crash happened mid-append) is discarded
  on open — by the write-ahead ordering that batch was never applied.
* ``checkpoint`` writes ``snapshot-<seq>``/``state-<seq>`` beside the old
  pair, atomically swings the manifest's ``checkpoint_seq`` to the new pair,
  and only then truncates the journal and deletes the old pair.  A crash
  anywhere in that sequence leaves either the old checkpoint plus a full
  journal or the new checkpoint plus an ignorable journal prefix — never a
  half-updated state.

* With a ledger attached the commit order is journal → apply → ledger: a
  crash between journal and ledger loses only *dedup information* for a
  batch that **was** applied, never an applied batch's data.  Intake
  recovery reconciles the two on open — journaled keys missing from the
  ledger are re-committed — so a producer replaying its whole stream after
  any crash converges to exactly the clean run's state
  (``docs/ingestion.md`` has the full crash matrix).

Checkpoints also run automatically every ``checkpoint_interval`` applied
batches, compacting the journal so recovery time stays bounded.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from ..db.store import load_database, write_snapshot
from ..db.transaction_db import TransactionDatabase
from ..db.update import UpdateBatch
from ..errors import ReproError, StorageError
from ..faults import crash_point
from ..itemsets import Item
from ..mining.result import ItemsetLattice, MiningResult
from ..mining.rules import AssociationRule
from .maintenance import MaintenanceReport, MinerName, RuleMaintainer
from .options import FupOptions
from .policy import MaintenancePolicy, policy_from_dict

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from ..ingest.ledger import IntakeLedger

__all__ = [
    "MaintenanceSession",
    "SessionStatus",
    "read_session_state",
    "save_state",
    "load_state",
    "DEFAULT_CHECKPOINT_INTERVAL",
]

MANIFEST_NAME = "session.json"
JOURNAL_NAME = "journal.jsonl"
LOCK_NAME = "session.lock"
_MANIFEST_FORMAT = "repro-maintenance-session"
#: Batches applied between automatic journal compactions.
DEFAULT_CHECKPOINT_INTERVAL = 16


# --------------------------------------------------------------------- #
# Itemset-state (JSON) persistence
# --------------------------------------------------------------------- #
def save_state(result: MiningResult, path: str | Path) -> None:
    """Write a mining result's lattice to a JSON state file."""
    payload = {
        "format": "repro-itemset-state",
        "version": 1,
        "algorithm": result.algorithm,
        "min_support": result.min_support,
        "database_size": result.database_size,
        "itemsets": [
            {"items": list(candidate), "count": count}
            for candidate, count in sorted(result.lattice.supports().items())
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="ascii")


def load_state(path: str | Path) -> tuple[ItemsetLattice, float]:
    """Read a JSON state file back into a lattice plus its minimum support."""
    payload = json.loads(Path(path).read_text(encoding="ascii"))
    if payload.get("format") != "repro-itemset-state":
        raise ReproError(f"{path} is not a repro itemset state file")
    lattice = ItemsetLattice(database_size=int(payload["database_size"]))
    for entry in payload["itemsets"]:
        lattice.add(tuple(entry["items"]), int(entry["count"]))
    return lattice, float(payload["min_support"])


# --------------------------------------------------------------------- #
# Low-level durable-write helpers
# --------------------------------------------------------------------- #
def _fsync_file(path: Path) -> None:
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def _fsync_directory(path: Path) -> None:
    try:
        descriptor = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without directory fds
        return
    try:
        os.fsync(descriptor)
    except OSError:  # pragma: no cover - filesystem without dir fsync
        pass
    finally:
        os.close(descriptor)


def _atomic_replace(temporary: Path, final: Path) -> None:
    """Publish *temporary* at *final* so readers see old-or-new, never half."""
    _fsync_file(temporary)
    os.replace(temporary, final)
    _fsync_directory(final.parent)


def _acquire_lock(directory: Path) -> IO[str] | None:
    """Take the session directory's exclusive advisory lock.

    Two live writers would interleave journal sequence numbers and sweep each
    other's snapshots, so a second ``create``/``open`` of the same directory
    is refused while the first session object is alive.  ``flock`` locks die
    with the process, which is exactly the crash semantics the journal
    expects: a killed process leaves no stale lock to clean up.  Read-only
    access (:meth:`MaintenanceSession.peek`) does not lock.
    """
    handle = (directory / LOCK_NAME).open("a")
    if fcntl is None:  # pragma: no cover - non-POSIX platform
        return handle
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        handle.close()
        raise StorageError(
            f"session {directory} is already in use by another process "
            f"(close it or wait for it to exit)"
        ) from None
    return handle


class _Journal:
    """The append-only batch journal (write-ahead log of the session)."""

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            self._handle = path.open("a", encoding="ascii")
        except OSError as exc:
            raise StorageError(f"cannot open journal {path}: {exc}") from exc

    def append(self, record: dict) -> int:
        """Durably append one record; return the offset it was written at."""
        handle = self._handle
        offset = handle.tell()
        try:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        except OSError as exc:
            raise StorageError(f"cannot append to journal {self.path}: {exc}") from exc
        return offset

    def truncate_to(self, offset: int) -> None:
        """Drop everything at or after *offset* (scrubs a refused batch)."""
        handle = self._handle
        handle.flush()
        handle.truncate(offset)
        handle.seek(offset)
        os.fsync(handle.fileno())

    def clear(self) -> None:
        self.truncate_to(0)

    def tear(self, record: dict) -> None:
        """Write a *torn* record: half the line, no newline, no fsync.

        Fault-injection seam only (the crash tests simulate a power loss
        mid-append); production code never calls this.  The bytes are
        flushed so the crash that follows actually leaves them on disk,
        but never fsynced — exactly what an interrupted :meth:`append`
        can leave behind.
        """
        line = json.dumps(record, separators=(",", ":"))
        self._handle.write(line[: max(1, len(line) // 2)])
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


def _sweep_stale_files(directory: Path, keep_seq: int) -> None:
    """Delete checkpoint leftovers other than the ``keep_seq`` pair.

    A crash inside a checkpoint can leave ``*.tmp`` partials or a fully
    written snapshot/state pair the manifest never came to reference; both
    are garbage once a manifest commit (or a recovery reading one) has
    decided which pair is live.
    """
    for stale in directory.glob("*.tmp"):
        stale.unlink(missing_ok=True)
    for stale in directory.glob("snapshot-*.bin"):
        if stale.name != f"snapshot-{keep_seq}.bin":
            stale.unlink(missing_ok=True)
    for stale in directory.glob("state-*.json"):
        if stale.name != f"state-{keep_seq}.json":
            stale.unlink(missing_ok=True)


def _read_journal(path: Path) -> tuple[list[dict], int]:
    """Parse the journal; return (records, byte length of the valid prefix).

    A corrupt or torn **final** line is excluded from the valid prefix (the
    crash happened mid-append, so by the write-ahead ordering that batch was
    never applied); corruption anywhere before the final line means the file
    itself is damaged and raises :class:`StorageError`.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], 0
    except OSError as exc:
        raise StorageError(f"cannot read journal {path}: {exc}") from exc
    records: list[dict] = []
    offset = 0
    total = len(data)
    while offset < total:
        newline = data.find(b"\n", offset)
        if newline == -1:
            break  # torn trailing line: no newline ever made it to disk
        line = data[offset:newline]
        record: dict | None = None
        try:
            parsed = json.loads(line.decode("ascii"))
            if isinstance(parsed, dict) and "seq" in parsed:
                record = parsed
        except (ValueError, UnicodeDecodeError):
            record = None
        if record is None:
            if newline + 1 < total:
                raise StorageError(
                    f"{path}: corrupted journal record at byte {offset} "
                    f"followed by further records; refusing to guess"
                )
            break  # corrupt final line: treat as torn
        records.append(record)
        offset = newline + 1
    return records, offset


#: Engines a session manifest may still name although they were retired,
#: mapped to the engine that now counts for them.  Every engine reports the
#: same supports, so the swap cannot change a recovered result.
_RETIRED_BACKENDS = {"partitioned": "vertical"}


def _manifest_backend(manifest: dict) -> str:
    """The counting engine a session manifest selects."""
    backend = str(manifest["backend"])
    return _RETIRED_BACKENDS.get(backend, backend)


#: Leading bytes of a journal record — every record is written with ``seq``
#: as its first key, so the pending count never needs the full payload.
_SEQ_PREFIX = re.compile(rb'^\{"seq":\s*(\d+)')


def _count_pending_batches(path: Path, checkpoint_seq: int) -> int:
    """Count journal records past *checkpoint_seq* without parsing payloads.

    The read-only status path: only the leading ``"seq"`` field of each
    complete line is examined (falling back to a full parse for hand-edited
    records), so ``session status`` stays cheap however large the journaled
    batches are.  The corruption rules mirror :func:`_read_journal`: a torn
    or corrupt **final** line is ignored, damage before the final line
    raises, so ``status`` never reports a healthy count for a journal that
    recovery will refuse.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return 0
    except OSError as exc:
        raise StorageError(f"cannot read journal {path}: {exc}") from exc
    lines = data.split(b"\n")
    complete = lines[:-1]  # the final element is b"" or a torn trailing line
    pending = 0
    for index, line in enumerate(complete):
        match = _SEQ_PREFIX.match(line)
        if match is not None:
            seq = int(match.group(1))
        else:
            try:
                seq = int(json.loads(line.decode("ascii"))["seq"])
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                if index + 1 < len(complete):
                    raise StorageError(
                        f"{path}: corrupted journal record on line {index + 1} "
                        f"followed by further records; refusing to guess"
                    ) from None
                break  # corrupt final line: treat as torn
        if seq > checkpoint_seq:
            pending += 1
    return pending


# --------------------------------------------------------------------- #
# Status
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SessionStatus:
    """A point-in-time description of a session (live or read from disk)."""

    directory: str
    checkpoint_seq: int
    applied_seq: int
    database_size: int
    itemsets: int
    rules: int
    min_support: float
    min_confidence: float
    miner: str
    backend: str
    checkpoint_interval: int
    policy: str = "unbounded"

    @property
    def pending_batches(self) -> int:
        """Journaled batches not yet folded into a snapshot."""
        return self.applied_seq - self.checkpoint_seq

    def as_dict(self) -> dict[str, object]:
        """Flat dictionary form used by the CLI and the harness reports."""
        return {
            "directory": self.directory,
            "checkpoint_seq": self.checkpoint_seq,
            "applied_seq": self.applied_seq,
            "pending_batches": self.pending_batches,
            "database_size": self.database_size,
            "itemsets": self.itemsets,
            "rules": self.rules,
            "min_support": self.min_support,
            "min_confidence": self.min_confidence,
            "miner": self.miner,
            "backend": self.backend,
            "checkpoint_interval": self.checkpoint_interval,
            "policy": self.policy,
        }


# --------------------------------------------------------------------- #
# The session
# --------------------------------------------------------------------- #
class MaintenanceSession:
    """A :class:`RuleMaintainer` bound to a durable on-disk session directory.

    Construct through :meth:`create` (mine a fresh session) or :meth:`open`
    (recover an existing one); the constructor itself is internal.  The
    session is also a context manager — leaving the ``with`` block closes the
    journal handle (state is already durable at every point, so there is no
    flush-on-close step).
    """

    def __init__(
        self,
        directory: Path,
        maintainer: RuleMaintainer,
        journal: _Journal,
        checkpoint_seq: int,
        applied_seq: int,
        checkpoint_interval: int,
        lock: IO[str] | None = None,
    ) -> None:
        self._directory = directory
        self._maintainer = maintainer
        self._journal = journal
        self._checkpoint_seq = checkpoint_seq
        self._applied_seq = applied_seq
        self._checkpoint_interval = checkpoint_interval
        self._lock = lock
        self._ledger: "IntakeLedger | None" = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        directory: str | Path,
        database: TransactionDatabase | Iterable[Iterable[Item]],
        *,
        min_support: float,
        min_confidence: float,
        miner: MinerName = "apriori",
        fup_options: FupOptions | None = None,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        policy: MaintenancePolicy | None = None,
    ) -> "MaintenanceSession":
        """Mine *database* and persist the result as a new session.

        The directory is created if needed; it must not already hold a
        session manifest.  *policy* selects the maintenance policy every
        batch is planned through (persisted in the manifest, restored on
        recovery; default unbounded).
        """
        if checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be positive, got {checkpoint_interval}"
            )
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        lock = _acquire_lock(directory)
        session = None
        try:
            # Checked under the lock, so two racing creates cannot both pass
            # and overwrite each other's freshly written session.
            if (directory / MANIFEST_NAME).exists():
                raise StorageError(f"{directory} already holds a maintenance session")
            maintainer = RuleMaintainer(
                min_support,
                min_confidence,
                miner=miner,
                fup_options=fup_options,
                policy=policy,
            )
            maintainer.initialise(database)
            journal_path = directory / JOURNAL_NAME
            journal_path.touch()
            session = cls(
                directory=directory,
                maintainer=maintainer,
                journal=_Journal(journal_path),
                checkpoint_seq=0,
                applied_seq=0,
                checkpoint_interval=checkpoint_interval,
                lock=lock,
            )
            session._write_checkpoint(0)
            return session
        except BaseException:
            # Release the handles (and the flock) so a caller that handles
            # the failure can retry against the same directory.
            if session is not None:
                session.close()
            elif lock is not None:
                lock.close()
            raise

    @classmethod
    def open(cls, directory: str | Path) -> "MaintenanceSession":
        """Recover a session: load the last snapshot, strictly replay the journal tail.

        Raises
        ------
        StorageError
            If the directory holds no session, or its files are corrupted.
        StaleStateError
            If the journal does not match the snapshot it is replayed over
            (e.g. a journaled deletion names a transaction the snapshot does
            not contain) — the loud-failure guarantee.
        """
        directory = Path(directory)
        # The lock comes first: reading the manifest outside it would race a
        # live writer's checkpoint and could sweep the snapshot pair its
        # manifest rename just committed.
        try:
            lock = _acquire_lock(directory)
        except FileNotFoundError:
            raise StorageError(f"{directory} holds no maintenance session") from None
        try:
            manifest = cls._read_manifest(directory)
            return cls._open_locked(directory, manifest, lock)
        except BaseException:
            if lock is not None:
                lock.close()
            raise

    @classmethod
    def _recover_maintainer(
        cls, directory: Path, manifest: dict
    ) -> tuple[RuleMaintainer, int, int]:
        """Rebuild the in-memory state a session's files describe (read-only).

        Loads the checkpoint snapshot pair, restores a maintainer from it and
        replays the journal tail over it — without writing anything, so both
        :meth:`open` (which holds the lock and then truncates any torn tail)
        and :func:`read_session_state` (which deliberately takes no lock)
        share one recovery semantics.  Returns ``(maintainer, applied_seq,
        valid_journal_length)``.
        """
        checkpoint_seq = int(manifest["checkpoint_seq"])
        snapshot_path = directory / f"snapshot-{checkpoint_seq}.bin"
        state_path = directory / f"state-{checkpoint_seq}.json"
        # Sessions checkpointed before format v2 hold a v1 snapshot here;
        # load_database sniffs the magic, so both open transparently — a v2
        # file memory-maps in O(1) with its vertical index read from the
        # lane section.
        database = load_database(snapshot_path, binary=True)
        # Set the name explicitly: load_database's filename-stem fallback
        # would otherwise rename an unnamed database to "snapshot-<seq>".
        database.name = str(manifest.get("name", ""))
        lattice, state_min_support = load_state(state_path)
        if state_min_support != float(manifest["min_support"]):
            raise StorageError(
                f"{state_path} was written at min_support={state_min_support} but the "
                f"manifest records {manifest['min_support']}"
            )
        # Pre-policy manifests carry no "policy" entry: policy_from_dict
        # restores the unbounded default, which is what those sessions were
        # running all along.  Manifests from sessions that ran the retired
        # skip pre-check still carry "skip_check"/"skip_stats"; they are
        # ignored, because a skipped round installed exactly the lattice the
        # full FUP round would have, so replay without it is byte-identical.
        # The same holds for the retired engine keys ("shards", "executor",
        # "workers", "kernel"): every engine counts the same supports.
        maintainer = RuleMaintainer(
            float(manifest["min_support"]),
            float(manifest["min_confidence"]),
            miner=manifest["miner"],
            policy=policy_from_dict(manifest.get("policy")),
            fup_options=FupOptions(backend=_manifest_backend(manifest)),
        )
        # Seeding the sequence with the checkpoint seq makes the maintainer's
        # batch counter equal the journal sequence number at every point of
        # the replay — serving snapshots are stamped with it.
        maintainer.restore(database, lattice, sequence=checkpoint_seq)

        journal_path = directory / JOURNAL_NAME
        records, valid_length = _read_journal(journal_path)
        applied_seq = checkpoint_seq
        for record in records:
            seq = int(record["seq"])
            if seq <= checkpoint_seq:
                # Leftover from a checkpoint whose journal truncation was
                # interrupted: already folded into the snapshot, skip.
                continue
            if seq != applied_seq + 1:
                raise StorageError(
                    f"{journal_path}: journal jumps from batch {applied_seq} to "
                    f"{seq}; the file is damaged"
                )
            maintainer.apply(UpdateBatch.from_dict(record))
            applied_seq = seq
        maintainer.sequence = applied_seq
        return maintainer, applied_seq, valid_length

    @classmethod
    def _open_locked(cls, directory: Path, manifest: dict, lock: IO[str] | None):
        checkpoint_seq = int(manifest["checkpoint_seq"])
        # The manifest names the live snapshot pair; anything else in the
        # directory is debris from a checkpoint that crashed mid-write.
        _sweep_stale_files(directory, keep_seq=checkpoint_seq)
        maintainer, applied_seq, valid_length = cls._recover_maintainer(
            directory, manifest
        )
        journal_path = directory / JOURNAL_NAME
        torn_tail = (
            journal_path.exists() and journal_path.stat().st_size > valid_length
        )
        journal = _Journal(journal_path)
        if torn_tail:
            # Drop the torn trailing line before appending new records —
            # through the journal's own audited truncate, which also fsyncs
            # so a crash right here cannot resurrect the torn bytes.
            journal.truncate_to(valid_length)
        return cls(
            directory=directory,
            maintainer=maintainer,
            journal=journal,
            checkpoint_seq=checkpoint_seq,
            applied_seq=applied_seq,
            checkpoint_interval=int(manifest["checkpoint_interval"]),
            lock=lock,
        )

    def close(self) -> None:
        """Release the directory lock and close the journal handle.

        All state is already durable at every point, so there is no
        flush-on-close step.
        """
        if not self._closed:
            self._journal.close()
            if self._ledger is not None:
                self._ledger.close()
            if self._lock is not None:
                self._lock.close()  # closing the fd releases the flock
            self._closed = True

    def __enter__(self) -> "MaintenanceSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #
    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def maintainer(self) -> RuleMaintainer:
        return self._maintainer

    @property
    def database(self) -> TransactionDatabase:
        return self._maintainer.database

    @property
    def result(self) -> MiningResult:
        return self._maintainer.result

    @property
    def rules(self) -> list[AssociationRule]:
        return self._maintainer.rules

    @property
    def applied_seq(self) -> int:
        """Total batches applied over the session's lifetime."""
        return self._applied_seq

    @property
    def checkpoint_seq(self) -> int:
        """Batches folded into the current on-disk snapshot."""
        return self._checkpoint_seq

    @property
    def pending_batches(self) -> int:
        """Journaled batches a recovery would replay."""
        return self._applied_seq - self._checkpoint_seq

    def status(self) -> SessionStatus:
        """Status of the live session."""
        maintainer = self._maintainer
        return SessionStatus(
            directory=str(self._directory),
            checkpoint_seq=self._checkpoint_seq,
            applied_seq=self._applied_seq,
            database_size=len(maintainer.database),
            itemsets=len(maintainer.result.lattice),
            rules=len(maintainer.rules),
            min_support=maintainer.min_support,
            min_confidence=maintainer.min_confidence,
            miner=maintainer.miner_name,
            backend=maintainer.fup_options.backend,
            checkpoint_interval=self._checkpoint_interval,
            policy=maintainer.policy.describe(),
        )

    @classmethod
    def peek(cls, directory: str | Path) -> SessionStatus:
        """Read a session's status from disk without replaying its journal.

        ``database_size``/``itemsets``/``rules`` describe the last
        *checkpoint* (the journal tail has not been applied); ``applied_seq``
        counts checkpointed plus journaled batches.
        """
        directory = Path(directory)
        manifest = cls._read_manifest(directory)
        checkpoint_seq = int(manifest["checkpoint_seq"])
        pending = _count_pending_batches(directory / JOURNAL_NAME, checkpoint_seq)
        return SessionStatus(
            directory=str(directory),
            checkpoint_seq=checkpoint_seq,
            applied_seq=checkpoint_seq + pending,
            database_size=int(manifest["database_size"]),
            itemsets=int(manifest["itemsets"]),
            rules=int(manifest["rules"]),
            min_support=float(manifest["min_support"]),
            min_confidence=float(manifest["min_confidence"]),
            miner=str(manifest["miner"]),
            backend=_manifest_backend(manifest),
            checkpoint_interval=int(manifest["checkpoint_interval"]),
            policy=policy_from_dict(manifest.get("policy")).describe(),
        )

    # ------------------------------------------------------------------ #
    # Applying updates
    # ------------------------------------------------------------------ #
    def attach_ledger(self, ledger: "IntakeLedger") -> None:
        """Bind an intake ledger so :meth:`apply` commits it with each batch.

        The ingest hook: once attached, every applied batch's event keys are
        recorded in the journal record (``"keys"``) *and* committed to the
        ledger immediately after the in-memory apply — so a crash between
        the two is recovered by the ledger's journal reconciliation, never
        by double-counting.  The session takes over the ledger's lifetime
        (:meth:`close` closes it, :meth:`checkpoint` compacts it).
        """
        if self._ledger is not None and self._ledger is not ledger:
            raise StorageError(
                f"session {self._directory} already has an intake ledger attached"
            )
        self._ledger = ledger

    def apply(
        self,
        batch: UpdateBatch,
        *,
        keys: Iterable[str] = (),
        events: int = 0,
    ) -> MaintenanceReport:
        """Journal *batch*, apply it, auto-checkpoint on the configured cadence.

        The journal record is durable before the in-memory state changes, so
        a crash at any point during this call is recovered by replay.  If the
        maintainer refuses the batch the record is scrubbed from the journal
        and the exception propagates with the session unchanged.  Empty
        batches are never journaled: they change nothing, so recording them
        would only grow the journal and burn sequence numbers on no-ops.

        *keys* and *events* are the intake protocol (see
        :mod:`repro.ingest`): the event keys this batch consumed and the raw
        event count behind them (duplicates included).  With a ledger
        attached they are journaled alongside the batch and committed to the
        ledger right after the apply.  An *empty* batch with keys/events — a
        micro-batch that deduplicated down to nothing — still advances the
        ledger's high-water mark, without journaling and without burning a
        sequence number; skipping that commit would make a replaying
        producer re-offer the same duplicates forever.
        """
        if self._closed:
            raise StorageError(f"session {self._directory} is closed")
        keys = tuple(keys)
        if batch.is_empty:
            report = self._maintainer.apply(batch)
            if self._ledger is not None and (keys or events):
                self._ledger.commit(self._applied_seq, keys, events)
            return report
        # Refuse an unapplyable batch BEFORE journaling it: a crash between
        # the fsynced append and the refusal would otherwise leave a record
        # recovery can never replay, bricking the session.
        self._maintainer.validate_batch(batch)
        seq = self._applied_seq + 1
        record = {"seq": seq, **batch.as_dict()}
        if keys:
            record["keys"] = list(keys)
        offset = self._journal.append(record)
        # Eviction-time crash seam: the journal holds the *original* batch,
        # the policy has not yet planned or applied it.  Recovery must replay
        # the record through the restored policy and re-synthesise the exact
        # same evictions — the crash tests pin that.
        crash_point("after-journal-before-apply")
        sequence_before = self._maintainer.sequence
        try:
            report = self._maintainer.apply(batch)
        except Exception:
            if self._maintainer.sequence != sequence_before:
                # The state change committed — the failure came from a
                # post-commit publication subscriber.  The journal record
                # matches the in-memory state, so keep both in step and let
                # the subscriber's error propagate; scrubbing here would
                # desync the journal from a database that DID change.
                self._applied_seq = seq
                raise
            self._journal.truncate_to(offset)
            raise
        self._applied_seq = seq
        crash_point("after-journal-before-ledger")
        if self._ledger is not None and (keys or events):
            self._ledger.commit(seq, keys, events)
            crash_point("after-ledger-before-checkpoint")
        if self._applied_seq - self._checkpoint_seq >= self._checkpoint_interval:
            self.checkpoint()
        return report

    def add_transactions(
        self, transactions: Iterable[Iterable[Item]], label: str = ""
    ) -> MaintenanceReport:
        """Convenience wrapper: apply an insert-only batch."""
        return self.apply(UpdateBatch.from_iterables(insertions=transactions, label=label))

    def remove_transactions(
        self, transactions: Iterable[Iterable[Item]], label: str = ""
    ) -> MaintenanceReport:
        """Convenience wrapper: apply a delete-only batch."""
        return self.apply(UpdateBatch.from_iterables(deletions=transactions, label=label))

    # ------------------------------------------------------------------ #
    # Policy management
    # ------------------------------------------------------------------ #
    def set_policy(self, policy: MaintenancePolicy) -> MaintenanceReport | None:
        """Durably switch the maintenance policy.

        The switch checkpoints first (so every journaled record was planned
        under one policy), persists the new policy in the manifest, then
        applies the policy's admission trim — a bounded policy adopting an
        oversized database evicts down to its bound through a normal
        journaled batch (label ``"policy-switch"``), whose report is
        returned.  A crash between the manifest commit and the trim leaves
        the new policy active with the trim outstanding; the next applied
        batch's plan re-evicts to the bound, so the session self-heals.
        """
        if self._closed:
            raise StorageError(f"session {self._directory} is closed")
        self.checkpoint()
        self._maintainer.policy = policy
        plan = policy.admit(self._maintainer.database)
        # Install the admission bookkeeping (e.g. decay age segments) before
        # the manifest write persists the policy's state.
        policy.commit(plan)
        trim = plan.batch.deletions
        self._write_manifest(self._checkpoint_seq)
        if trim:
            return self.apply(UpdateBatch(deletions=trim, label="policy-switch"))
        return None

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> int:
        """Compact the journal into a fresh snapshot; return the new checkpoint seq."""
        if self._closed:
            raise StorageError(f"session {self._directory} is closed")
        if self._applied_seq == self._checkpoint_seq:
            return self._checkpoint_seq
        self._write_checkpoint(self._applied_seq)
        return self._checkpoint_seq

    def _write_checkpoint(self, seq: int) -> None:
        directory = self._directory
        snapshot_path = directory / f"snapshot-{seq}.bin"
        state_path = directory / f"state-{seq}.json"

        snapshot_tmp = snapshot_path.with_suffix(".bin.tmp")
        # Format v2 with the lane section always present: recovery and the
        # serving tier then reopen the snapshot via mmap in O(1) instead of
        # parsing it, whatever backend the session counts with.
        write_snapshot(self._maintainer.database, snapshot_tmp, include_lanes=True)
        _atomic_replace(snapshot_tmp, snapshot_path)

        state_tmp = state_path.with_suffix(".json.tmp")
        save_state(self._maintainer.result, state_tmp)
        _atomic_replace(state_tmp, state_path)

        # The manifest rename is the commit point: once it lands, recovery
        # reads the new snapshot pair and ignores journal records <= seq.
        self._write_manifest(seq)
        self._checkpoint_seq = seq
        self._journal.clear()
        # The maintainer's in-memory update log mirrors the journal tail;
        # compact it too, or a long-lived session retains every batch ever
        # applied.
        self._maintainer.update_log.clear()
        _sweep_stale_files(directory, keep_seq=seq)
        if self._ledger is not None:
            # The checkpoint bounded the journal; bound the ledger with it.
            # Compaction is an optimisation (the ledger's records are
            # idempotent), so a crash before this point costs nothing.
            self._ledger.compact()

    def _write_manifest(self, checkpoint_seq: int) -> None:
        maintainer = self._maintainer
        payload = {
            "format": _MANIFEST_FORMAT,
            "version": 1,
            "name": maintainer.database.name,
            "min_support": maintainer.min_support,
            "min_confidence": maintainer.min_confidence,
            "miner": maintainer.miner_name,
            "backend": maintainer.fup_options.backend,
            "checkpoint_interval": self._checkpoint_interval,
            "checkpoint_seq": checkpoint_seq,
            "database_size": len(maintainer.database),
            "itemsets": len(maintainer.result.lattice),
            "rules": len(maintainer.rules),
            # Policy type + params + mutable state (e.g. decay age segments):
            # recovery restores it and replays the journal tail through it,
            # re-planning each record's evictions deterministically.
            "policy": maintainer.policy.as_dict(),
        }
        manifest_path = self._directory / MANIFEST_NAME
        manifest_tmp = manifest_path.with_suffix(".json.tmp")
        manifest_tmp.write_text(json.dumps(payload, indent=2) + "\n", encoding="ascii")
        _atomic_replace(manifest_tmp, manifest_path)

    @staticmethod
    def _read_manifest(directory: Path) -> dict:
        manifest_path = directory / MANIFEST_NAME
        try:
            payload = json.loads(manifest_path.read_text(encoding="ascii"))
        except FileNotFoundError:
            raise StorageError(f"{directory} holds no maintenance session") from None
        except OSError as exc:
            raise StorageError(f"cannot read {manifest_path}: {exc}") from exc
        except ValueError as exc:
            raise StorageError(f"{manifest_path} is not valid JSON: {exc}") from exc
        if payload.get("format") != _MANIFEST_FORMAT:
            raise StorageError(f"{manifest_path} is not a maintenance-session manifest")
        return payload


def read_session_state(directory: str | Path) -> RuleMaintainer:
    """Rebuild a session's current state **without taking the session lock**.

    The serving path: load the checkpoint snapshot, replay the journal tail
    in memory, and return the resulting :class:`RuleMaintainer` — the files
    are only read, never truncated, swept or locked, so a live writer is
    never blocked (and never blocks the reader).  The returned maintainer's
    :attr:`~RuleMaintainer.sequence` equals the session's ``applied_seq``.

    Because no lock is taken, a checkpoint that commits *while the files are
    being read* can delete the snapshot pair mid-read; that surfaces as a
    :class:`~repro.errors.StorageError` (or ``StaleStateError`` if a swept
    journal is replayed over the newer snapshot).  Callers poll — catch the
    error, keep the previous state, and retry on the next tick; the files on
    disk are untouched either way.
    """
    directory = Path(directory)
    manifest = MaintenanceSession._read_manifest(directory)
    maintainer, _, _ = MaintenanceSession._recover_maintainer(directory, manifest)
    return maintainer
