"""Unit and equivalence tests for the FUP updater."""

from __future__ import annotations

import random

import pytest

from repro import AprioriMiner, FupOptions, FupUpdater, TransactionDatabase, update_with_fup
from repro.datagen import SyntheticConfig, generate_database
from repro.errors import InvalidThresholdError, StaleStateError
from repro.mining.result import ItemsetLattice


def split_database(database: TransactionDatabase, increment_size: int):
    """Split the tail of *database* off as an increment (the paper's construction)."""
    cut = len(database) - increment_size
    return database.slice(0, cut, name="original"), database.slice(cut, name="increment")


class TestFupEquivalence:
    """The central invariant: FUP == Apriori re-mined on the updated database."""

    def test_small_database(self, small_database, small_increment):
        for support in (0.2, 0.3, 0.4, 0.5):
            initial = AprioriMiner(support).mine(small_database)
            fup = FupUpdater(support).update(small_database, initial, small_increment)
            remined = AprioriMiner(support).mine(small_database.concatenate(small_increment))
            assert fup.lattice.supports() == remined.lattice.supports()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_databases(self, random_database_factory, seed):
        database = random_database_factory(transactions=250, items=15, max_size=7, seed=seed)
        original, increment = split_database(database, 50)
        support = 0.08
        initial = AprioriMiner(support).mine(original)
        fup = FupUpdater(support).update(original, initial, increment)
        remined = AprioriMiner(support).mine(database)
        assert fup.lattice.supports() == remined.lattice.supports()

    def test_increment_with_new_items(self, small_database):
        # Items 7 and 8 never occur in the original database but dominate the
        # increment; FUP must discover them as new large itemsets.
        increment = TransactionDatabase([[7, 8], [7, 8], [7, 8], [7]])
        support = 0.25
        initial = AprioriMiner(support).mine(small_database)
        fup = FupUpdater(support).update(small_database, initial, increment)
        remined = AprioriMiner(support).mine(small_database.concatenate(increment))
        assert fup.lattice.supports() == remined.lattice.supports()
        assert (7,) in fup.lattice

    def test_increment_larger_than_database(self, random_database_factory):
        original = random_database_factory(transactions=60, items=12, seed=1, name="orig")
        increment = random_database_factory(transactions=200, items=12, seed=2, name="incr")
        support = 0.1
        initial = AprioriMiner(support).mine(original)
        fup = FupUpdater(support).update(original, initial, increment)
        remined = AprioriMiner(support).mine(original.concatenate(increment))
        assert fup.lattice.supports() == remined.lattice.supports()

    def test_empty_increment_returns_old_state(self, small_database):
        support = 0.3
        initial = AprioriMiner(support).mine(small_database)
        fup = FupUpdater(support).update(small_database, initial, TransactionDatabase())
        assert fup.lattice.supports() == initial.lattice.supports()
        assert fup.database_size == len(small_database)

    def test_empty_original_database(self, small_increment):
        support = 0.3
        empty = TransactionDatabase()
        initial = AprioriMiner(support).mine(empty)
        fup = FupUpdater(support).update(empty, initial, small_increment)
        remined = AprioriMiner(support).mine(small_increment)
        assert fup.lattice.supports() == remined.lattice.supports()

    def test_skewed_increment_that_kills_old_winners(self):
        # The original database strongly supports {1, 2}; the increment is all
        # {8, 9}, pushing the old winners below the threshold.
        original = TransactionDatabase([[1, 2]] * 6 + [[3]] * 4)
        increment = TransactionDatabase([[8, 9]] * 10)
        support = 0.5
        initial = AprioriMiner(support).mine(original)
        assert (1, 2) in initial.lattice
        fup = FupUpdater(support).update(original, initial, increment)
        remined = AprioriMiner(support).mine(original.concatenate(increment))
        assert fup.lattice.supports() == remined.lattice.supports()
        assert (1, 2) not in fup.lattice
        assert (8, 9) in fup.lattice

    def test_result_can_seed_next_update(self, random_database_factory):
        # Chain three increments, each applied with FUP on the previous output.
        database = random_database_factory(transactions=300, items=14, max_size=6, seed=42)
        support = 0.08
        original = database.slice(0, 150, name="original")
        state = AprioriMiner(support).mine(original)
        accumulated = original.copy()
        for start in (150, 200, 250):
            increment = database.slice(start, start + 50, name=f"incr-{start}")
            state = FupUpdater(support).update(accumulated, state, increment)
            accumulated = accumulated.concatenate(increment)
        remined = AprioriMiner(support).mine(accumulated)
        assert state.lattice.supports() == remined.lattice.supports()

    def test_accepts_bare_lattice_as_previous_state(self, small_database, small_increment):
        support = 0.3
        initial = AprioriMiner(support).mine(small_database)
        fup = FupUpdater(support).update(small_database, initial.lattice, small_increment)
        remined = AprioriMiner(support).mine(small_database.concatenate(small_increment))
        assert fup.lattice.supports() == remined.lattice.supports()

    def test_convenience_wrapper(self, small_database, small_increment):
        support = 0.3
        initial = AprioriMiner(support).mine(small_database)
        assert (
            update_with_fup(small_database, initial, small_increment, support).lattice.supports()
            == FupUpdater(support).update(small_database, initial, small_increment).lattice.supports()
        )


class TestFupOptionCombinations:
    """Every optimisation may change the work done but never the answer."""

    @pytest.mark.parametrize(
        "options",
        [
            FupOptions(),
            FupOptions(prune_candidates_by_increment=False),
            FupOptions(filter_losers_by_subsets=False),
            FupOptions(reduce_databases=False),
            FupOptions(use_hash_filter=False),
            FupOptions.all_disabled(),
            FupOptions(hash_table_size=7),
        ],
    )
    def test_all_option_combinations_agree(self, random_database_factory, options):
        database = random_database_factory(transactions=300, items=16, max_size=7, seed=17)
        original, increment = split_database(database, 60)
        support = 0.07
        initial = AprioriMiner(support).mine(original)
        fup = FupUpdater(support, options=options).update(original, initial, increment)
        remined = AprioriMiner(support).mine(database)
        assert fup.lattice.supports() == remined.lattice.supports()


#: The four on/off optimisations of the ablation study, in FupOptions order.
SWITCHES = (
    "prune_candidates_by_increment",
    "filter_losers_by_subsets",
    "reduce_databases",
    "use_hash_filter",
)


def switch_grid():
    """Every on/off combination of :data:`SWITCHES`, labelled like ``1010``."""
    for mask in range(2 ** len(SWITCHES)):
        flags = {name: bool(mask >> bit & 1) for bit, name in enumerate(SWITCHES)}
        yield pytest.param(flags, id="".join("1" if on else "0" for on in flags.values()))


#: A small patterned workload (Section 4.1 generator): correlated items give
#: six levels, old winners that lose and pairs near the hash-filter bound.
GRID_CONFIG = SyntheticConfig(
    database_size=300,
    increment_size=60,
    mean_transaction_size=6,
    mean_pattern_size=3,
    pattern_count=20,
    item_count=30,
    pool_size=10,
    multiplying_factor=100,
    seed=1,
)


class TestFupSwitchGridAcrossEngines:
    """All 16 switch combinations, on both engines, end at the re-mined answer.

    The vertical engine skips the two per-transaction optimisations and seeds
    its join with the increment when Lemma 5 is on, so it walks a different
    path through each combination than the horizontal scan does.
    """

    @pytest.mark.parametrize("backend", ["horizontal", "vertical"])
    @pytest.mark.parametrize("flags", list(switch_grid()))
    def test_combination_matches_remining(self, flags, backend):
        original, increment = generate_database(GRID_CONFIG)
        support = 0.05
        initial = AprioriMiner(support).mine(original)
        options = FupOptions(backend=backend, **flags)
        fup = FupUpdater(support, options=options).update(original, initial, increment)
        remined = AprioriMiner(support).mine(original.concatenate(increment))
        assert fup.lattice.supports() == remined.lattice.supports()


class TestFupPruningBehaviour:
    def test_fewer_candidates_than_apriori(self, random_database_factory):
        database = random_database_factory(transactions=500, items=30, max_size=8, seed=23)
        original, increment = split_database(database, 50)
        support = 0.05
        initial = AprioriMiner(support).mine(original)
        fup = FupUpdater(support).update(original, initial, increment)
        remined = AprioriMiner(support).mine(database)
        assert fup.candidates_generated < remined.candidates_generated

    def test_candidate_pruning_reduces_candidates(self, random_database_factory):
        database = random_database_factory(transactions=400, items=25, max_size=7, seed=31)
        original, increment = split_database(database, 40)
        support = 0.06
        initial = AprioriMiner(support).mine(original)
        pruned = FupUpdater(support).update(original, initial, increment)
        unpruned = FupUpdater(
            support, options=FupOptions(prune_candidates_by_increment=False)
        ).update(original, initial, increment)
        assert pruned.candidates_generated <= unpruned.candidates_generated

    def test_no_database_scan_when_nothing_new_in_increment(self):
        # The increment repeats the original pattern exactly, so every size-1
        # candidate extracted from it is already large and no candidate
        # survives to require a scan of the original database.
        original = TransactionDatabase([[1, 2]] * 20)
        increment = TransactionDatabase([[1, 2]] * 5)
        support = 0.5
        initial = AprioriMiner(support).mine(original)
        fup = FupUpdater(support).update(original, initial, increment)
        assert fup.database_scans == 0
        assert set(fup.large_itemsets) == {(1,), (2,), (1, 2)}

    def test_increment_scans_are_counted(self, small_database, small_increment):
        support = 0.3
        initial = AprioriMiner(support).mine(small_database)
        fup = FupUpdater(support).update(small_database, initial, small_increment)
        assert fup.increment_scans >= 1

    def test_support_counts_are_exact_for_all_winners(self, random_database_factory):
        database = random_database_factory(transactions=300, items=15, max_size=7, seed=8)
        original, increment = split_database(database, 60)
        support = 0.08
        initial = AprioriMiner(support).mine(original)
        fup = FupUpdater(support).update(original, initial, increment)
        for candidate, count in fup.lattice.supports().items():
            assert count == database.count_itemset(candidate)


class TestSeededCandidateGeneration:
    """Engine modes seed the join with the increment (Lemma 5); the literal
    horizontal join (no hash filter, no Reduce-db) is their oracle: same
    answer, same DB-counted pool per level, same accounted reads."""

    def _assert_seeded_matches_literal(self, original, increment, support, max_itemset_size=None):
        initial = AprioriMiner(support, max_itemset_size=max_itemset_size).mine(original)
        literal = FupUpdater(
            support,
            options=FupOptions(use_hash_filter=False, reduce_databases=False),
            max_itemset_size=max_itemset_size,
        ).update(original, initial, increment)
        seeded = FupUpdater(
            support, options=FupOptions(backend="vertical"), max_itemset_size=max_itemset_size
        ).update(original, initial, increment)
        remined = AprioriMiner(support, max_itemset_size=max_itemset_size).mine(
            original.concatenate(increment)
        )
        assert seeded.lattice.supports() == remined.lattice.supports()
        assert seeded.candidates_per_level == literal.candidates_per_level
        assert seeded.transactions_read == literal.transactions_read
        assert seeded.increment_scans == literal.increment_scans
        assert seeded.database_scans == literal.database_scans
        return seeded

    @pytest.mark.parametrize("seed", range(3))
    def test_one_row_increment(self, random_database_factory, seed):
        database = random_database_factory(transactions=201, items=12, max_size=7, seed=seed)
        original, increment = split_database(database, 1)
        self._assert_seeded_matches_literal(original, increment, 0.08)

    def test_max_itemset_size_two(self, random_database_factory):
        database = random_database_factory(transactions=250, items=14, max_size=7, seed=41)
        original, increment = split_database(database, 50)
        seeded = self._assert_seeded_matches_literal(original, increment, 0.06, max_itemset_size=2)
        assert seeded.lattice.max_size() == 2

    def test_increment_without_an_eligible_pair(self):
        # Items 1 and 3 stay large and reach the floor in the increment, but
        # no increment transaction holds two of them: no new pair can be
        # large, so nothing beyond level 1 is counted against DB.
        original = TransactionDatabase([[1, 2]] * 10 + [[3, 4]] * 10)
        increment = TransactionDatabase([[1], [3], [1], [3], [5]])
        seeded = self._assert_seeded_matches_literal(original, increment, 0.2)
        assert seeded.candidates_per_level[2] == 0
        assert set(seeded.lattice.level(2)) == {(1, 2), (3, 4)}


class TestFupValidation:
    def test_rejects_stale_database_size(self, small_database, small_increment):
        initial = AprioriMiner(0.3).mine(small_database)
        grown = small_database.copy()
        grown.append([1, 2, 3])
        with pytest.raises(StaleStateError):
            FupUpdater(0.3).update(grown, initial, small_increment)

    def test_rejects_changed_min_support(self, small_database, small_increment):
        initial = AprioriMiner(0.3).mine(small_database)
        with pytest.raises(StaleStateError):
            FupUpdater(0.4).update(small_database, initial, small_increment)

    def test_bare_lattice_skips_support_check_but_not_size_check(
        self, small_database, small_increment
    ):
        initial = AprioriMiner(0.3).mine(small_database)
        stale = ItemsetLattice(initial.lattice.supports(), database_size=5)
        with pytest.raises(StaleStateError):
            FupUpdater(0.3).update(small_database, stale, small_increment)

    def test_rejects_bad_support(self):
        with pytest.raises(InvalidThresholdError):
            FupUpdater(0.0)

    def test_rejects_bad_max_size(self):
        with pytest.raises(ValueError):
            FupUpdater(0.5, max_itemset_size=0)

    def test_max_itemset_size_cap(self, small_database, small_increment):
        initial = AprioriMiner(0.3, max_itemset_size=1).mine(small_database)
        fup = FupUpdater(0.3, max_itemset_size=1).update(small_database, initial, small_increment)
        assert fup.lattice.max_size() <= 1


class TestFupAlgorithmLabel:
    def test_result_is_labelled_fup(self, small_database, small_increment):
        initial = AprioriMiner(0.3).mine(small_database)
        result = FupUpdater(0.3).update(small_database, initial, small_increment)
        assert result.algorithm == "fup"
        assert result.min_support == 0.3
