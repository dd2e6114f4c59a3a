"""Unit and equivalence tests for the FUP2-style generalised updater."""

from __future__ import annotations

import pytest

from repro import AprioriMiner, Fup2Updater, TransactionDatabase, apriori_gen, update_with_fup2
from repro.errors import StaleStateError


def tail_split(database: TransactionDatabase, count: int):
    """Return (head, tail) where tail holds the last *count* transactions."""
    cut = len(database) - count
    return database.slice(0, cut), database.slice(cut)


class TestInsertOnly:
    """With no deletions, FUP2 must agree with FUP and with re-mining."""

    def test_matches_remining(self, small_database, small_increment):
        support = 0.3
        initial = AprioriMiner(support).mine(small_database)
        result = Fup2Updater(support).update(
            small_database, initial, small_increment, TransactionDatabase()
        )
        remined = AprioriMiner(support).mine(small_database.concatenate(small_increment))
        assert result.lattice.supports() == remined.lattice.supports()

    @pytest.mark.parametrize("seed", range(3))
    def test_random_databases(self, random_database_factory, seed):
        database = random_database_factory(transactions=220, items=14, seed=seed)
        original, increment = tail_split(database, 40)
        support = 0.09
        initial = AprioriMiner(support).mine(original)
        result = Fup2Updater(support).update(original, initial, increment, TransactionDatabase())
        remined = AprioriMiner(support).mine(database)
        assert result.lattice.supports() == remined.lattice.supports()


class TestDeleteOnly:
    def test_matches_remining_on_remainder(self, random_database_factory):
        database = random_database_factory(transactions=250, items=14, seed=5)
        support = 0.08
        initial = AprioriMiner(support).mine(database)
        keep, deleted = tail_split(database, 60)
        result = Fup2Updater(support).update(
            database, initial, TransactionDatabase(), deleted
        )
        remined = AprioriMiner(support).mine(keep)
        assert result.lattice.supports() == remined.lattice.supports()

    def test_insert_then_delete_roundtrip(self, random_database_factory):
        # Applying an increment with FUP2 and then deleting the same
        # transactions must restore the original mined state exactly.
        original = random_database_factory(transactions=200, items=12, seed=6)
        increment = random_database_factory(transactions=50, items=12, seed=7)
        support = 0.1
        initial = AprioriMiner(support).mine(original)
        after_insert = Fup2Updater(support).update(
            original, initial, increment, TransactionDatabase()
        )
        combined = original.concatenate(increment)
        after_delete = Fup2Updater(support).update(
            combined, after_insert, TransactionDatabase(), increment
        )
        assert after_delete.lattice.supports() == initial.lattice.supports()

    def test_deletion_can_create_new_winners(self):
        # Item 5 is just below the threshold; deleting transactions that do
        # not contain it raises its relative support above the threshold.
        original = TransactionDatabase([[5]] * 4 + [[1, 2]] * 6)
        support = 0.5
        initial = AprioriMiner(support).mine(original)
        assert (5,) not in initial.lattice
        deletions = TransactionDatabase([[1, 2]] * 4)
        result = Fup2Updater(support).update(
            original, initial, TransactionDatabase(), deletions
        )
        assert (5,) in result.lattice
        remined = AprioriMiner(support).mine(TransactionDatabase([[5]] * 4 + [[1, 2]] * 2))
        assert result.lattice.supports() == remined.lattice.supports()

    def test_delete_everything(self, small_database):
        support = 0.3
        initial = AprioriMiner(support).mine(small_database)
        result = Fup2Updater(support).update(
            small_database, initial, TransactionDatabase(), small_database.copy()
        )
        assert len(result.lattice) == 0
        assert result.database_size == 0


class TestShrinkFallbackInstrumentation:
    """The shrink fallback's item-universe pass must be visible and cached."""

    def _shrink_update(self, database, support):
        """Delete most of the database so ``new_candidate_floor`` drops below 1."""
        initial = AprioriMiner(support).mine(database)
        keep, deleted = tail_split(database, len(database) - 3)
        return (
            Fup2Updater(support).update(database, initial, TransactionDatabase(), deleted),
            keep,
        )

    def test_fallback_scan_is_accounted(self, random_database_factory):
        database = random_database_factory(transactions=60, items=10, seed=11)
        result, keep = self._shrink_update(database, 0.3)
        # The item-universe enumeration is a real pass over the original
        # database and must show up in the run's scan accounting.
        assert result.database_scans >= 1
        assert result.transactions_read >= len(database)
        remined = AprioriMiner(0.3).mine(keep)
        assert result.lattice.supports() == remined.lattice.supports()

    def test_fallback_uses_the_item_universe_cache(self, random_database_factory):
        database = random_database_factory(transactions=60, items=10, seed=12)
        database.items()  # primed: the fallback must not account a new scan
        initial = AprioriMiner(0.3).mine(database)
        keep, deleted = tail_split(database, len(database) - 3)
        warm = Fup2Updater(0.3).update(database, initial, TransactionDatabase(), deleted)
        cold_database = random_database_factory(transactions=60, items=10, seed=12)
        cold_initial = AprioriMiner(0.3).mine(cold_database)
        _, cold_deleted = tail_split(cold_database, len(cold_database) - 3)
        cold = Fup2Updater(0.3).update(
            cold_database, cold_initial, TransactionDatabase(), cold_deleted
        )
        assert warm.lattice.supports() == cold.lattice.supports()
        assert warm.database_scans < cold.database_scans


class TestMixedBatches:
    @pytest.mark.parametrize("seed", range(3))
    def test_simultaneous_insert_and_delete(self, random_database_factory, seed):
        database = random_database_factory(transactions=260, items=15, seed=seed + 20)
        original, deletions = tail_split(database, 40)
        # Delete 40 existing transactions while inserting 55 new ones.
        insertions = random_database_factory(transactions=55, items=15, seed=seed + 50)
        support = 0.09
        initial = AprioriMiner(support).mine(database)
        result = Fup2Updater(support).update(database, initial, insertions, deletions)
        expected_database = original.concatenate(insertions)
        remined = AprioriMiner(support).mine(expected_database)
        assert result.lattice.supports() == remined.lattice.supports()

    def test_modification_as_delete_plus_insert(self):
        # "Modify" the last two transactions by deleting the old versions and
        # inserting replacements.
        original = TransactionDatabase([[1, 2]] * 5 + [[3, 4]] * 2)
        support = 0.25
        initial = AprioriMiner(support).mine(original)
        result = Fup2Updater(support).update(
            original,
            initial,
            TransactionDatabase([[1, 3]] * 2),
            TransactionDatabase([[3, 4]] * 2),
        )
        remined = AprioriMiner(support).mine(TransactionDatabase([[1, 2]] * 5 + [[1, 3]] * 2))
        assert result.lattice.supports() == remined.lattice.supports()

    def test_empty_update_is_identity(self, small_database):
        support = 0.3
        initial = AprioriMiner(support).mine(small_database)
        result = Fup2Updater(support).update(
            small_database, initial, TransactionDatabase(), TransactionDatabase()
        )
        assert result.lattice.supports() == initial.lattice.supports()

    def test_convenience_wrapper(self, small_database, small_increment):
        support = 0.3
        initial = AprioriMiner(support).mine(small_database)
        direct = Fup2Updater(support).update(
            small_database, initial, small_increment, TransactionDatabase()
        )
        wrapped = update_with_fup2(
            small_database, initial, small_increment, TransactionDatabase(), support
        )
        assert direct.lattice.supports() == wrapped.lattice.supports()


class TestSeededCandidateGeneration:
    """While the db+ floor is at least 1 the join is seeded with db+; a
    batch that shrinks the database keeps the unseeded join."""

    @pytest.mark.parametrize("backend", ["horizontal", "vertical"])
    def test_one_row_insertion(self, random_database_factory, backend):
        database = random_database_factory(transactions=201, items=12, max_size=7, seed=3)
        original, insertion = tail_split(database, 1)
        initial = AprioriMiner(0.08).mine(original)
        result = Fup2Updater(0.08, options=backend).update(
            original, initial, insertion, TransactionDatabase()
        )
        assert result.lattice.supports() == AprioriMiner(0.08).mine(database).lattice.supports()

    def test_max_itemset_size_two(self, random_database_factory):
        database = random_database_factory(transactions=260, items=14, max_size=7, seed=43)
        original, deletions = tail_split(database, 30)
        insertions = random_database_factory(transactions=50, items=14, max_size=7, seed=44)
        initial = AprioriMiner(0.06, max_itemset_size=2).mine(database)
        result = Fup2Updater(0.06, max_itemset_size=2, options="vertical").update(
            database, initial, insertions, deletions
        )
        remined = AprioriMiner(0.06, max_itemset_size=2).mine(original.concatenate(insertions))
        assert result.lattice.supports() == remined.lattice.supports()
        assert result.lattice.max_size() == 2

    def test_shrinking_batch_takes_the_unseeded_join(self, random_database_factory):
        # Deleting 50 of 60 rows while inserting 2 drops the floor below 1:
        # pairs absent from db+ can become large, so level 2 counts the whole
        # apriori_gen(L'_1) − L_2 against DB and stays exact.
        database = random_database_factory(transactions=60, items=8, max_size=5, seed=13)
        keep, deletions = tail_split(database, 50)
        insertions = random_database_factory(transactions=2, items=8, max_size=5, seed=14)
        initial = AprioriMiner(0.3).mine(database)
        result = Fup2Updater(0.3, options="vertical").update(
            database, initial, insertions, deletions
        )
        remined = AprioriMiner(0.3).mine(keep.concatenate(insertions))
        assert result.lattice.supports() == remined.lattice.supports()
        joined = apriori_gen(set(result.lattice.level(1))) - set(initial.lattice.level(2))
        assert joined
        assert result.candidates_per_level[2] == len(joined)

    def test_insertions_without_an_eligible_pair(self):
        original = TransactionDatabase([[1, 2]] * 10 + [[3, 4]] * 10)
        insertions = TransactionDatabase([[1], [3], [1], [3], [5]])
        deletions = TransactionDatabase([[1, 2]])
        initial = AprioriMiner(0.2).mine(original)
        result = Fup2Updater(0.2, options="vertical").update(
            original, initial, insertions, deletions
        )
        remined = AprioriMiner(0.2).mine(
            TransactionDatabase([[1, 2]] * 9 + [[3, 4]] * 10 + [[1], [3], [1], [3], [5]])
        )
        assert result.lattice.supports() == remined.lattice.supports()
        assert result.candidates_per_level[2] == 0


class TestFup2Validation:
    def test_rejects_stale_database_size(self, small_database, small_increment):
        initial = AprioriMiner(0.3).mine(small_database)
        grown = small_database.copy()
        grown.append([1])
        with pytest.raises(StaleStateError):
            Fup2Updater(0.3).update(grown, initial, small_increment, TransactionDatabase())

    def test_rejects_changed_support(self, small_database, small_increment):
        initial = AprioriMiner(0.3).mine(small_database)
        with pytest.raises(StaleStateError):
            Fup2Updater(0.2).update(
                small_database, initial, small_increment, TransactionDatabase()
            )

    def test_rejects_oversized_deletion_batch(self, small_database):
        initial = AprioriMiner(0.3).mine(small_database)
        too_many = TransactionDatabase([[1]] * (len(small_database) + 1))
        with pytest.raises(StaleStateError):
            Fup2Updater(0.3).update(small_database, initial, TransactionDatabase(), too_many)

    def test_algorithm_label(self, small_database, small_increment):
        initial = AprioriMiner(0.3).mine(small_database)
        result = Fup2Updater(0.3).update(
            small_database, initial, small_increment, TransactionDatabase()
        )
        assert result.algorithm == "fup2"
