"""Property tests: delta-maintained vertical index ≡ rebuilt from scratch.

The incremental maintenance of :class:`repro.db.vertical_index.VerticalIndex`
is only worth anything if it is *indistinguishable* from a rebuild.  These
tests drive a :class:`~repro.db.transaction_db.TransactionDatabase` (with its
index forced into existence up front, so every subsequent operation runs the
delta path) through random interleavings of ``append`` / ``extend`` /
``remove_batch`` / ``concatenate`` and assert, after **every** operation,
that the maintained index is bit-for-bit equal to
:func:`~repro.db.transaction_db.build_vertical_index` run from scratch over
the database's current transactions.  The bare index gets the same
treatment (including ``slice`` and scattered ``delete_tids``), and any
database must round-trip exactly through the v2 snapshot format, whose lane
section is the index's mask table on disk.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TransactionDatabase, VerticalIndex, load_database, save_database
from repro.db.store import open_snapshot, write_snapshot
from repro.db.transaction_db import build_vertical_index

from .strategies import build_database, transaction_lists, transactions

#: One random mutation/derivation step of the interleaving.
operations = st.one_of(
    st.tuples(st.just("append"), transactions),
    st.tuples(st.just("extend"), st.lists(transactions, max_size=8)),
    # remove_batch picks victims by *position in the current database*; the
    # indices are mapped to concrete transactions when the op is applied, so
    # the batch always mixes real hits (scattered arbitrarily) with misses.
    st.tuples(st.just("remove"), st.lists(st.integers(min_value=0, max_value=200), max_size=10)),
    st.tuples(st.just("concatenate"), st.lists(transactions, max_size=8)),
)


def assert_index_matches_scratch(database) -> None:
    """The maintained index must be bit-for-bit the from-scratch build."""
    maintained = dict(database.vertical())
    rebuilt = build_vertical_index(database.transactions())
    assert maintained == rebuilt
    assert database.vertical().size == len(database)


@settings(max_examples=60, deadline=None)
@given(initial=transaction_lists, ops=st.lists(operations, max_size=12))
def test_interleaved_mutations_keep_index_exact(initial, ops):
    database = build_database(initial)
    database.vertical()  # force the index so every op below is a delta update
    assert_index_matches_scratch(database)

    for name, payload in ops:
        if name == "append":
            database.append(payload)
        elif name == "extend":
            database.extend(payload)
        elif name == "remove":
            rows = database.transactions()
            batch = [list(rows[i % len(rows)]) for i in payload if rows] + [[97, 98, 99]]
            database.remove_batch(batch)
        else:  # concatenate: the result must inherit an exact derived index
            database = database.concatenate(build_database(payload))
        assert database.has_vertical_index
        assert_index_matches_scratch(database)


@settings(max_examples=40, deadline=None)
@given(rows=transaction_lists, start=st.integers(0, 70), stop=st.integers(0, 70))
def test_slice_derivation_is_exact(rows, start, stop):
    database = build_database(rows)
    database.vertical()
    window = database.slice(start, stop)
    assert dict(window.vertical()) == build_vertical_index(window.transactions())


@settings(max_examples=40, deadline=None)
@given(rows=transaction_lists, more=transaction_lists)
def test_copy_then_diverge_keeps_both_exact(rows, more):
    database = build_database(rows)
    database.vertical()
    clone = database.copy()
    clone.extend(more)
    database.remove_batch(rows[: len(rows) // 2])
    assert_index_matches_scratch(database)
    assert_index_matches_scratch(clone)


#: One random step of the bare-index interleaving.  Deletions pick victims by
#: position modulo the current size, so they scatter arbitrarily.
index_operations = st.one_of(
    st.tuples(st.just("append"), transactions),
    st.tuples(st.just("extend"), st.lists(transactions, max_size=6)),
    st.tuples(
        st.just("delete"), st.lists(st.integers(min_value=0, max_value=300), max_size=8)
    ),
    st.tuples(st.just("slice"), st.tuples(st.integers(0, 80), st.integers(0, 80))),
    st.tuples(st.just("concatenate"), st.lists(transactions, max_size=6)),
)


@settings(max_examples=50, deadline=None)
@given(initial=transaction_lists, ops=st.lists(index_operations, max_size=10))
def test_bare_index_tracks_scratch_through_any_interleaving(initial, ops):
    rows = [tuple(sorted(set(row))) for row in initial]
    index = VerticalIndex.build(rows)
    for name, payload in ops:
        if name == "append":
            row = tuple(sorted(set(payload)))
            index.append(row)
            rows.append(row)
        elif name == "extend":
            more = [tuple(sorted(set(row))) for row in payload]
            index.extend(more)
            rows.extend(more)
        elif name == "delete":
            tids = sorted({tid % len(rows) for tid in payload}) if rows else []
            index.delete_tids(tids)
            doomed = set(tids)
            rows = [row for tid, row in enumerate(rows) if tid not in doomed]
        elif name == "slice":
            start, stop = sorted(payload)
            index = index.slice(start, stop)
            rows = rows[start:stop]
        else:
            more = [tuple(sorted(set(row))) for row in payload]
            index = index.concatenate(VerticalIndex.build(more))
            rows = rows + more
        assert index.size == len(rows)
        assert dict(index) == build_vertical_index(rows)
        assert index.item_counts() == VerticalIndex.build(rows).item_counts()


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(transactions, min_size=0, max_size=60), lanes=st.booleans())
def test_snapshot_v2_round_trips_any_database(tmp_path_factory, rows, lanes):
    tmp_path = tmp_path_factory.mktemp("snapshots")
    database = TransactionDatabase(rows)
    v1_path = tmp_path / "snap.v1"
    v2_path = tmp_path / "snap.v2"
    save_database(database, v1_path, binary=True)
    write_snapshot(database, v2_path, include_lanes=lanes)

    from_v1 = load_database(v1_path, binary=True)
    from_v2 = open_snapshot(v2_path)
    assert from_v2.has_vertical_index == lanes
    assert from_v2.transactions() == database.transactions()
    assert from_v2.transactions() == from_v1.transactions()
    assert dict(from_v2.vertical()) == dict(from_v1.vertical())
