"""Property tests: crash-recovery equivalence of durable maintenance sessions.

The durability contract is that a session interrupted after **any prefix** of
batches — the process simply disappears, no close, no checkpoint — and then
reopened produces bit-for-bit identical supports, rules and database to a
session that applied the same batches without interruption.  These tests
drive random batch sequences (insertions mixed with deletions of rows that
exist at that point of the sequence) through both paths on **both
counting backends** and compare the end states exactly.

A second property covers the crash *inside* a batch: the journal record was
written but the batch was never applied in memory.  Recovery must apply it
exactly once.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AprioriMiner, FupOptions, MaintenanceSession, UpdateBatch
from repro.core.session import JOURNAL_NAME
from repro.mining.backends import BACKEND_NAMES

from .strategies import build_database, transactions

#: Compact databases keep every example's two mining sessions fast.
initial_databases = st.lists(transactions, min_size=4, max_size=20)

#: Per-batch shape: raw insertions plus positions (mod current size) to delete.
batch_shapes = st.lists(
    st.tuples(
        st.lists(transactions, min_size=0, max_size=4),
        st.lists(st.integers(min_value=0, max_value=1000), min_size=0, max_size=3),
    ),
    min_size=1,
    max_size=5,
)


def _materialise_batches(database, shapes) -> list[UpdateBatch]:
    """Turn hypothesis shapes into concrete batches valid for *database*.

    Deletions are chosen by position against a shadow copy that tracks the
    sequence, so every deletion names a transaction that really exists at
    that point — the precondition strict maintenance enforces.
    """
    shadow = database.copy()
    batches: list[UpdateBatch] = []
    for number, (insertions, delete_positions) in enumerate(shapes):
        deletions = []
        for position in delete_positions:
            rows = shadow.transactions()
            if not rows:
                break
            victim = rows[position % len(rows)]
            deletions.append(list(victim))
            shadow.remove_batch([victim])
        shadow.extend(insertions)
        batches.append(
            UpdateBatch.from_iterables(
                insertions=insertions, deletions=deletions, label=f"batch-{number}"
            )
        )
    return batches


def _run_session(directory, database, batches, backend, interrupt_after=None):
    """Apply *batches*; optionally "crash" (abandon) and reopen mid-sequence."""
    session = MaintenanceSession.create(
        directory,
        database,
        min_support=0.25,
        min_confidence=0.5,
        fup_options=FupOptions(backend=backend),
        checkpoint_interval=2,
    )
    for index, batch in enumerate(batches):
        if interrupt_after is not None and index == interrupt_after:
            # The crash: close() is write-free (no checkpoint, no journal
            # truncation), so this is disk-identical to a kill while
            # releasing the flock deterministically.
            session.close()
            session = MaintenanceSession.open(directory)
        session.apply(batch)
    return session


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@settings(max_examples=8, deadline=None)
@given(
    rows=initial_databases,
    shapes=batch_shapes,
    cut=st.integers(min_value=0, max_value=100),
)
def test_interrupted_session_equals_uninterrupted(tmp_path_factory, backend, rows, shapes, cut):
    database = build_database(rows)
    batches = _materialise_batches(database, shapes)
    prefix = cut % (len(batches) + 1)
    base = tmp_path_factory.mktemp("sessions")

    smooth = _run_session(base / "smooth", database, batches, backend)
    bumpy = _run_session(base / "bumpy", database, batches, backend, interrupt_after=prefix)

    assert list(bumpy.database) == list(smooth.database)
    assert bumpy.result.lattice.supports() == smooth.result.lattice.supports()
    assert [str(rule) for rule in bumpy.rules] == [str(rule) for rule in smooth.rules]
    # And both equal a from-scratch mine of the final database: nothing was
    # lost, double-applied, or silently desynced.
    remined = AprioriMiner(0.25).mine(smooth.database)
    assert smooth.result.lattice.supports() == remined.lattice.supports()
    smooth.close()
    bumpy.close()


@settings(max_examples=10, deadline=None)
@given(rows=initial_databases, shapes=batch_shapes)
def test_journaled_unapplied_batch_replays_exactly_once(tmp_path_factory, rows, shapes):
    database = build_database(rows)
    batches = _materialise_batches(database, shapes)
    base = tmp_path_factory.mktemp("wal")

    smooth = _run_session(base / "smooth", database, batches, "horizontal")

    # The bumpy twin crashes *inside* the final batch: its journal record hit
    # the disk but the in-memory apply never ran.
    directory = base / "bumpy"
    bumpy = _run_session(directory, database, batches[:-1], "horizontal")
    record = {"seq": bumpy.applied_seq + 1, **batches[-1].as_dict()}
    bumpy.close()  # the crash: write-free, releases the flock
    with (directory / JOURNAL_NAME).open("a") as handle:
        handle.write(json.dumps(record) + "\n")

    recovered = MaintenanceSession.open(directory)
    assert list(recovered.database) == list(smooth.database)
    assert recovered.result.lattice.supports() == smooth.result.lattice.supports()
    smooth.close()
    recovered.close()
