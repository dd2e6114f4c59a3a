"""Unit tests for the DHP baseline miner."""

from __future__ import annotations

import pytest

from repro import AprioriMiner, DhpMiner, TransactionDatabase, mine_dhp
from repro.datagen import SyntheticConfig, generate_database
from repro.errors import InvalidThresholdError
from repro.mining.dhp import DhpOptions, _trim_transaction


class TestDhpAgainstApriori:
    """DHP must find exactly the same large itemsets (it only prunes harder)."""

    def test_small_database(self, small_database):
        for support in (0.2, 0.3, 0.4, 0.6):
            apriori = AprioriMiner(support).mine(small_database)
            dhp = DhpMiner(support).mine(small_database)
            assert dhp.lattice.supports() == apriori.lattice.supports()

    def test_random_databases(self, random_database_factory):
        for seed in range(4):
            database = random_database_factory(transactions=150, items=14, seed=seed)
            apriori = AprioriMiner(0.1).mine(database)
            dhp = DhpMiner(0.1).mine(database)
            assert dhp.lattice.supports() == apriori.lattice.supports()

    def test_all_options_disabled_is_still_correct(self, random_database_factory):
        database = random_database_factory(transactions=120, items=12, seed=11)
        options = DhpOptions(use_hash_filter=False, use_transaction_trimming=False)
        apriori = AprioriMiner(0.12).mine(database)
        dhp = DhpMiner(0.12, options=options).mine(database)
        assert dhp.lattice.supports() == apriori.lattice.supports()

    def test_small_hash_table_is_still_correct(self, random_database_factory):
        # A tiny table creates heavy collisions; the filter must stay sound.
        database = random_database_factory(transactions=150, items=14, seed=3)
        options = DhpOptions(hash_table_size=3)
        apriori = AprioriMiner(0.1).mine(database)
        dhp = DhpMiner(0.1, options=options).mine(database)
        assert dhp.lattice.supports() == apriori.lattice.supports()


class TestDhpSwitchesAcrossEngines:
    """Both switches, on both engines: the answer never moves.  Only the
    horizontal engine can trim; the vertical one counts the untrimmed
    database and must land on the same supports."""

    @pytest.mark.parametrize("backend", ["horizontal", "vertical"])
    @pytest.mark.parametrize("use_hash_filter", [True, False], ids=["filter", "no-filter"])
    @pytest.mark.parametrize(
        "use_transaction_trimming", [True, False], ids=["trim", "no-trim"]
    )
    def test_matches_apriori(self, backend, use_hash_filter, use_transaction_trimming):
        # Patterned rows (Section 4.1 generator) reach six levels, so a trim
        # that drops a still-needed item shows up in the supports.
        database, _ = generate_database(
            SyntheticConfig(
                database_size=300,
                increment_size=0,
                mean_transaction_size=6,
                mean_pattern_size=3,
                pattern_count=20,
                item_count=30,
                pool_size=10,
                multiplying_factor=100,
                seed=1,
            )
        )
        options = DhpOptions(
            use_hash_filter=use_hash_filter,
            use_transaction_trimming=use_transaction_trimming,
            backend=backend,
        )
        dhp = DhpMiner(0.05, options=options).mine(database)
        assert dhp.lattice.supports() == AprioriMiner(0.05).mine(database).lattice.supports()


class TestDhpPruning:
    def test_hash_filter_reduces_level2_candidates(self, random_database_factory):
        database = random_database_factory(transactions=300, items=25, max_size=6, seed=5)
        with_filter = DhpMiner(0.05).mine(database)
        without_filter = DhpMiner(0.05, options=DhpOptions(use_hash_filter=False)).mine(database)
        assert with_filter.candidates_per_level.get(2, 0) <= without_filter.candidates_per_level.get(2, 0)

    def test_empty_database(self):
        result = DhpMiner(0.5).mine(TransactionDatabase())
        assert len(result.lattice) == 0

    def test_max_itemset_size_cap(self, small_database):
        result = DhpMiner(0.3, max_itemset_size=1).mine(small_database)
        assert result.lattice.max_size() == 1

    def test_convenience_wrapper(self, small_database):
        assert (
            mine_dhp(small_database, 0.4).lattice.supports()
            == DhpMiner(0.4).mine(small_database).lattice.supports()
        )


class TestDhpValidation:
    def test_rejects_bad_support(self):
        with pytest.raises(InvalidThresholdError):
            DhpMiner(0.0)

    def test_rejects_bad_hash_table(self):
        with pytest.raises(ValueError):
            DhpOptions(hash_table_size=0)

    def test_rejects_bad_max_size(self):
        with pytest.raises(ValueError):
            DhpMiner(0.5, max_itemset_size=-1)


class TestTransactionTrimming:
    def test_items_below_occurrence_threshold_are_removed(self):
        # At level 2, item 4 occurs in only one matched candidate; it cannot
        # be part of a 3-itemset within this transaction and is dropped.
        transaction = (1, 2, 3, 4)
        matches = [(1, 2), (1, 3), (2, 3), (3, 4)]
        trimmed = _trim_transaction(transaction, matches, size=2)
        assert 4 not in trimmed
        assert set(trimmed) == {1, 2, 3}

    def test_transaction_dropped_when_too_short(self):
        assert _trim_transaction((1, 2), [(1, 2)], size=2) == ()

    def test_transaction_dropped_without_matches(self):
        assert _trim_transaction((1, 2, 3), [], size=2) == ()

    def test_instrumentation_reads_fewer_transactions_with_trimming(
        self, random_database_factory
    ):
        database = random_database_factory(transactions=400, items=20, max_size=6, seed=9)
        trimmed = DhpMiner(0.05).mine(database)
        untrimmed = DhpMiner(
            0.05, options=DhpOptions(use_transaction_trimming=False)
        ).mine(database)
        assert trimmed.transactions_read <= untrimmed.transactions_read
