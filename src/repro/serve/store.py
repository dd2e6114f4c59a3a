"""The lock-free published-snapshot store.

:class:`RuleStore` is the seam between the maintenance side (one writer:
a :class:`~repro.core.maintenance.RuleMaintainer`, possibly inside a
:class:`~repro.core.session.MaintenanceSession`) and the serving side (any
number of reader threads).  The design is a single atomic reference swap:

* the writer builds a complete, immutable :class:`RuleSnapshot` *off* the
  read path, then publishes it by assigning one attribute — under CPython
  an attribute store is a single bytecode-level operation protected by the
  GIL, so a reader sees either the old snapshot or the new one, never a
  torn mixture;
* readers call :meth:`snapshot` (one attribute load) and then query the
  returned object, which can never change underneath them.

Readers therefore never take a lock, never block the writer, and never
observe a half-applied batch: every (version, rule set, support table,
database size) they see was mutually consistent at publication time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..errors import EmptyDatabaseError
from .snapshot import RuleSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.maintenance import RuleMaintainer

__all__ = ["RuleStore"]


class RuleStore:
    """Publishes immutable rule snapshots to lock-free readers.

    Single-writer, many-reader: publication is not synchronised against
    concurrent publications (the maintenance pipeline applies batches
    sequentially), but reads are safe from any thread at any time.
    """

    def __init__(self) -> None:
        self._snapshot: RuleSnapshot | None = None
        self._published = 0
        self._listeners: list[Callable[[RuleSnapshot], None]] = []

    # ------------------------------------------------------------------ #
    # Reader side
    # ------------------------------------------------------------------ #
    def snapshot(self) -> RuleSnapshot:
        """The currently published snapshot (raises until one is published)."""
        snapshot = self._snapshot  # single read: the atomic point
        if snapshot is None:
            raise EmptyDatabaseError("RuleStore has no published snapshot yet")
        return snapshot

    @property
    def has_snapshot(self) -> bool:
        """True once :meth:`publish` has run at least once."""
        return self._snapshot is not None

    @property
    def version(self) -> int | None:
        """Version of the current snapshot, or ``None`` when empty."""
        snapshot = self._snapshot
        return None if snapshot is None else snapshot.version

    @property
    def publications(self) -> int:
        """How many snapshots have been published over the store's lifetime."""
        return self._published

    # ------------------------------------------------------------------ #
    # Writer side
    # ------------------------------------------------------------------ #
    def publish(self, snapshot: RuleSnapshot) -> RuleSnapshot:
        """Atomically replace the served snapshot with *snapshot*."""
        self._snapshot = snapshot  # single store: the atomic point
        self._published += 1
        for listener in self._listeners:
            listener(snapshot)
        return snapshot

    def publish_from(self, maintainer: "RuleMaintainer") -> RuleSnapshot:
        """Build a snapshot of *maintainer*'s current state and publish it.

        The snapshot version is the maintainer's batch sequence number —
        for a restored durable session, the journal sequence.
        """
        return self.publish(
            RuleSnapshot(
                version=maintainer.sequence,
                rules=maintainer.rules,
                lattice=maintainer.result.lattice,
                min_support=maintainer.min_support,
                min_confidence=maintainer.min_confidence,
                policy=maintainer.policy.info(),
            )
        )

    def attach(self, maintainer: "RuleMaintainer") -> None:
        """Subscribe to *maintainer* so every committed batch republishes.

        If the maintainer is already initialised its current state is
        published immediately; afterwards each ``apply`` (and any
        ``restore``) publishes the post-batch state — the maintainer invokes
        subscribers only once its database, rules and sequence are mutually
        consistent.
        """
        maintainer.subscribe(self.publish_from)

    def on_publish(self, listener: Callable[[RuleSnapshot], None]) -> None:
        """Register *listener* to run (on the writer thread) per publication."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[RuleSnapshot], None]) -> None:
        """Unregister a :meth:`on_publish` listener (no-op when absent).

        Front ends subscribe their cache invalidation to the store; a closed
        front end unhooks itself here so a long-lived store feeding many
        server generations does not accumulate dead callbacks.
        """
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass
