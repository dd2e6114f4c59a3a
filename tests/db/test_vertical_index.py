"""Unit tests for the incrementally-maintained vertical index.

The contract under test: every delta operation leaves the index bit-for-bit
equal to :func:`repro.db.transaction_db.build_vertical_index` run from
scratch over the same transactions.  The Hypothesis interleavings in
``tests/property/test_vertical_index_properties.py`` hammer the same
invariant with random operation sequences; these tests pin down each
operation and edge case individually.
"""

from __future__ import annotations

import pytest

from repro import TransactionDatabase, VerticalIndex
from repro.db.transaction_db import build_vertical_index
from repro.db.vertical_index import lane_words

ROWS = [(1, 2, 3), (1, 2), (2, 4), (), (1, 3), (2, 3, 4), (5,)]

#: Candidates probing every support path: the empty itemset, unseen items,
#: one known item next to an unknown one, and multi-item intersections.
CANDIDATES = [(), (1,), (2,), (42,), (1, 2), (2, 3), (1, 42), (1, 2, 3), (2, 3, 4)]


def scratch(transactions) -> dict[int, int]:
    return build_vertical_index(list(transactions))


def brute_force_supports(rows, candidates) -> dict[tuple[int, ...], int]:
    return {
        candidate: sum(1 for row in rows if set(candidate).issubset(row))
        for candidate in candidates
    }


class TestBuildAndQueries:
    def test_build_matches_reference_builder(self):
        index = VerticalIndex.build(ROWS)
        assert dict(index) == scratch(ROWS)
        assert index.size == len(ROWS)

    def test_mapping_protocol(self):
        index = VerticalIndex.build([(1, 2), (2,), (1,)])
        assert index == {1: 0b101, 2: 0b011}
        assert index[1] == 0b101
        assert index.get(9) == 0
        assert 2 in index and 9 not in index
        assert sorted(index) == [1, 2]
        assert len(index) == 2

    def test_support_intersects_masks(self):
        index = VerticalIndex.build(ROWS)
        assert index.support((1, 2)) == 2
        assert index.support((2, 3, 4)) == 1
        assert index.support((9,)) == 0
        assert index.support((1, 9)) == 0
        assert index.support(()) == len(ROWS)  # empty itemset: in every transaction

    def test_item_counts_are_popcounts(self):
        index = VerticalIndex.build(ROWS)
        counts = index.item_counts()
        assert counts[2] == 4
        assert counts[5] == 1

    def test_empty_index(self):
        index = VerticalIndex()
        assert index.size == 0
        assert dict(index) == {}
        assert index.support((1,)) == 0

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            VerticalIndex(size=-1)

    def test_supports_match_brute_force(self):
        index = VerticalIndex.build(ROWS)
        expected = brute_force_supports(ROWS, CANDIDATES)
        for candidate, support in expected.items():
            assert index.support(candidate) == support, candidate
        assert index.count_candidates(CANDIDATES) == expected

    def test_count_candidates_of_empty_pool(self):
        assert VerticalIndex.build(ROWS).count_candidates([]) == {}

    def test_empty_database_counts(self):
        index = VerticalIndex.build([])
        assert index.size == 0
        assert len(index) == 0
        assert index.count_candidates([(1,), ()]) == {(1,): 0, (): 0}

    def test_constructor_drops_zero_masks(self):
        index = VerticalIndex({1: 0b1, 2: 0}, size=1)
        assert dict(index) == {1: 0b1}


class TestDeltaMaintenance:
    def test_append(self):
        index = VerticalIndex.build(ROWS[:3])
        index.append((2, 5))
        assert dict(index) == scratch(ROWS[:3] + [(2, 5)])
        assert index.size == 4

    def test_extend(self):
        index = VerticalIndex.build(ROWS[:2])
        index.extend(ROWS[2:])
        assert dict(index) == scratch(ROWS)

    def test_extend_from_empty(self):
        index = VerticalIndex()
        index.extend(ROWS)
        assert dict(index) == scratch(ROWS)

    @pytest.mark.parametrize(
        "tids",
        [
            [0],  # first
            [len(ROWS) - 1],  # last
            [0, 1, 2],  # contiguous prefix (the sliding-window case)
            [2, 4],  # scattered
            [1, 3, 5],  # alternating
            list(range(len(ROWS))),  # everything
            [],  # nothing
        ],
    )
    def test_delete_tids_matches_scratch_rebuild(self, tids):
        index = VerticalIndex.build(ROWS)
        index.delete_tids(tids)
        survivors = [row for tid, row in enumerate(ROWS) if tid not in set(tids)]
        assert dict(index) == scratch(survivors)
        assert index.size == len(survivors)

    def test_delete_tids_drops_emptied_items(self):
        index = VerticalIndex.build([(1,), (2,)])
        index.delete_tids([1])
        assert 2 not in index  # no all-zero masks left behind

    def test_delete_tids_rejects_unsorted(self):
        index = VerticalIndex.build(ROWS)
        with pytest.raises(ValueError):
            index.delete_tids([3, 1])
        with pytest.raises(ValueError):
            index.delete_tids([2, 2])

    def test_mutation_sequence_tracks_scratch_rebuild(self):
        """Appends, extends and deletions — across a 64-bit word boundary."""
        index = VerticalIndex.build(ROWS)
        rows = list(ROWS)

        def delete(tids):
            index.delete_tids(tids)
            doomed = set(tids)
            rows[:] = [row for tid, row in enumerate(rows) if tid not in doomed]

        for step in (
            lambda: (index.append((2, 5, 9)), rows.append((2, 5, 9))),
            lambda: (index.extend([(1, 9), (), (64, 65)]), rows.extend([(1, 9), (), (64, 65)])),
            lambda: delete([0, 3, 6]),
            lambda: (index.extend([(2,)] * 70), rows.extend([(2,)] * 70)),
            lambda: delete(list(range(0, len(rows), 2))),
        ):
            step()
            assert dict(index) == scratch(rows)
            assert index.size == len(rows)
            assert index.item_counts() == VerticalIndex.build(rows).item_counts()

    def test_delete_tids_rejects_out_of_range(self):
        index = VerticalIndex.build(ROWS)
        with pytest.raises(ValueError):
            index.delete_tids([len(ROWS)])


class TestDerivation:
    def test_copy_is_independent(self):
        index = VerticalIndex.build(ROWS)
        clone = index.copy()
        clone.append((8,))
        assert dict(index) == scratch(ROWS)
        assert dict(clone) == scratch(ROWS + [(8,)])

    def test_concatenate_shifts_other(self):
        left = VerticalIndex.build(ROWS[:3])
        right = VerticalIndex.build(ROWS[3:])
        assert dict(left.concatenate(right)) == scratch(ROWS)

    def test_concatenate_with_empty(self):
        index = VerticalIndex.build(ROWS)
        assert dict(index.concatenate(VerticalIndex())) == scratch(ROWS)
        assert dict(VerticalIndex().concatenate(index)) == scratch(ROWS)

    @pytest.mark.parametrize("start,stop", [(0, 3), (2, 6), (3, None), (0, 0), (5, 2)])
    def test_slice_matches_list_slicing(self, start, stop):
        index = VerticalIndex.build(ROWS)
        derived = index.slice(start, stop)
        assert dict(derived) == scratch(ROWS[start:stop])
        assert derived.size == len(ROWS[start:stop])


class TestLaneInterchange:
    """The lane form is the v2 snapshot's byte layout of the masks."""

    def test_lane_words_geometry(self):
        assert lane_words(0) == 0
        assert lane_words(1) == 1
        assert lane_words(64) == 1
        assert lane_words(65) == 2

    def test_export_then_from_lanes_round_trips(self):
        rows = ROWS + [(2, 70)] * 66  # more than one 64-bit word per row
        source = VerticalIndex.build(rows)
        items, words, buffer = source.export_lanes()
        assert items == sorted(items) == sorted(source)
        assert words == lane_words(source.size)
        assert len(buffer) == len(items) * words * 8
        revived = VerticalIndex.from_lanes(items, buffer, source.size)
        assert dict(revived) == dict(source)
        assert revived.size == source.size

    def test_from_lanes_buffer_survives_mutation(self):
        """Mutating an index read from lanes leaves its buffer untouched."""
        source = VerticalIndex.build(ROWS)
        items, _, buffer = source.export_lanes()
        frozen = bytes(buffer)
        revived = VerticalIndex.from_lanes(items, memoryview(frozen), source.size)
        revived.append((1, 2))
        revived.extend([(3,)])
        revived.delete_tids([0])
        assert dict(revived) == scratch(ROWS[1:] + [(1, 2), (3,)])
        assert frozen == buffer
        assert dict(VerticalIndex.from_lanes(items, frozen, source.size)) == scratch(ROWS)


class TestDatabaseIntegration:
    """The database keeps its index current instead of rebuilding it."""

    def test_mutations_maintain_the_same_index_object(self):
        database = TransactionDatabase(ROWS)
        index = database.vertical()
        database.append([7, 8])
        database.extend([[8, 9], [1, 7]])
        database.remove_batch([[1, 2], [8, 9]])
        assert database.vertical() is index
        assert dict(index) == scratch(database.transactions())

    def test_mutations_before_first_use_stay_lazy(self):
        database = TransactionDatabase(ROWS)
        database.append([7])
        assert not database.has_vertical_index
        assert dict(database.vertical()) == scratch(database.transactions())

    def test_copy_inherits_the_index(self):
        database = TransactionDatabase(ROWS)
        database.vertical()
        clone = database.copy()
        assert clone.has_vertical_index
        clone.extend([[6, 7]])
        assert dict(clone.vertical()) == scratch(clone.transactions())
        assert dict(database.vertical()) == scratch(ROWS)

    def test_slice_derives_from_parent_masks(self):
        database = TransactionDatabase(ROWS)
        database.vertical()
        head = database.slice(0, 4)
        assert head.has_vertical_index
        assert dict(head.vertical()) == scratch(ROWS[:4])

    def test_concatenate_derives_when_left_index_is_built(self):
        left = TransactionDatabase(ROWS[:4])
        right = TransactionDatabase(ROWS[4:])
        left.vertical()
        combined = left.concatenate(right)
        assert combined.has_vertical_index
        assert dict(combined.vertical()) == scratch(ROWS)

    def test_concatenate_stays_lazy_without_a_left_index(self):
        left = TransactionDatabase(ROWS[:4])
        right = TransactionDatabase(ROWS[4:])
        combined = left.concatenate(right)
        assert not combined.has_vertical_index
        assert dict(combined.vertical()) == scratch(ROWS)
