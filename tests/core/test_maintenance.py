"""Unit and integration tests for the RuleMaintainer."""

from __future__ import annotations

from collections import Counter

import pytest

from repro import (
    BACKEND_NAMES,
    AprioriMiner,
    FupOptions,
    RuleMaintainer,
    TransactionDatabase,
    UpdateBatch,
    generate_rules,
    parse_policy,
)
from repro.db.transaction_db import build_vertical_index
from repro.errors import EmptyDatabaseError, InvalidThresholdError, StaleStateError


@pytest.fixture
def maintainer(small_database) -> RuleMaintainer:
    maintainer = RuleMaintainer(min_support=0.3, min_confidence=0.6)
    maintainer.initialise(small_database)
    return maintainer


class TestInitialisation:
    def test_initial_state_matches_apriori(self, small_database, maintainer):
        expected = AprioriMiner(0.3).mine(small_database)
        assert maintainer.result.lattice.supports() == expected.lattice.supports()
        assert maintainer.rules == generate_rules(expected.lattice, 0.6)

    def test_initialise_accepts_raw_transactions(self):
        maintainer = RuleMaintainer(0.5, 0.5)
        maintainer.initialise([[1, 2], [1, 2], [3]])
        assert (1, 2) in maintainer.result.lattice

    def test_initialise_with_dhp(self, small_database):
        maintainer = RuleMaintainer(0.3, 0.6, miner="dhp")
        maintainer.initialise(small_database)
        expected = AprioriMiner(0.3).mine(small_database)
        assert maintainer.result.lattice.supports() == expected.lattice.supports()

    def test_uninitialised_access_raises(self):
        maintainer = RuleMaintainer(0.3, 0.6)
        assert not maintainer.is_initialised
        with pytest.raises(EmptyDatabaseError):
            _ = maintainer.result
        with pytest.raises(EmptyDatabaseError):
            _ = maintainer.database
        with pytest.raises(EmptyDatabaseError):
            _ = maintainer.rules

    def test_initialise_copies_the_database(self, small_database):
        maintainer = RuleMaintainer(0.3, 0.6)
        maintainer.initialise(small_database)
        maintainer.add_transactions([[9, 9]])
        assert len(small_database) == 9  # caller's database untouched

    def test_validation_of_thresholds(self):
        with pytest.raises(InvalidThresholdError):
            RuleMaintainer(0.0, 0.5)
        with pytest.raises(InvalidThresholdError):
            RuleMaintainer(0.5, 1.5)

    def test_confidence_validation_matches_generate_rules(self):
        """One validator serves both entry points: booleans are rejected too."""
        with pytest.raises(InvalidThresholdError):
            RuleMaintainer(0.5, True)
        with pytest.raises(InvalidThresholdError):
            RuleMaintainer(0.5, "0.5")
        with pytest.raises(InvalidThresholdError):
            RuleMaintainer(0.5, 0.0)

    def test_validation_of_miner_name(self):
        with pytest.raises(ValueError):
            RuleMaintainer(0.5, 0.5, miner="eclat")

    def test_validation_of_remine_factor(self):
        with pytest.raises(ValueError):
            RuleMaintainer(0.5, 0.5, remine_increment_factor=0)


class TestInsertions:
    def test_insert_only_uses_fup(self, maintainer, small_increment):
        report = maintainer.add_transactions(list(small_increment), label="batch-1")
        assert report.algorithm == "fup"
        assert report.inserted_transactions == len(small_increment)
        assert report.database_size == 9 + len(small_increment)

    def test_state_matches_full_remine_after_insert(self, maintainer, small_database, small_increment):
        maintainer.add_transactions(list(small_increment))
        remined = AprioriMiner(0.3).mine(small_database.concatenate(small_increment))
        assert maintainer.result.lattice.supports() == remined.lattice.supports()
        assert maintainer.rules == generate_rules(remined.lattice, 0.6)

    def test_successive_increments(self, random_database_factory):
        database = random_database_factory(transactions=240, items=14, seed=2)
        maintainer = RuleMaintainer(0.1, 0.5)
        maintainer.initialise(database.slice(0, 120))
        for start in (120, 160, 200):
            maintainer.add_transactions(list(database.slice(start, start + 40)))
        remined = AprioriMiner(0.1).mine(database)
        assert maintainer.result.lattice.supports() == remined.lattice.supports()

    def test_report_tracks_new_and_lost_itemsets(self, maintainer):
        # The increment floods the database with item 7, creating new large
        # itemsets and demoting the old ones.
        report = maintainer.add_transactions([[7, 8]] * 30)
        assert (7,) in report.itemsets_added
        assert report.itemsets_removed  # old itemsets fell below threshold
        assert report.itemsets_changed

    def test_report_tracks_rule_changes(self, maintainer):
        report = maintainer.add_transactions([[7, 8]] * 30)
        assert any(rule.items == (7, 8) for rule in report.rules_added)
        assert report.rules_changed

    def test_remine_fallback_for_huge_increment(self, small_database):
        maintainer = RuleMaintainer(0.3, 0.6, remine_increment_factor=1.0)
        maintainer.initialise(small_database)
        report = maintainer.add_transactions([[1, 2]] * 30)  # > 1x database size
        assert report.algorithm == "remine-apriori"
        remined = AprioriMiner(0.3).mine(maintainer.database)
        assert maintainer.result.lattice.supports() == remined.lattice.supports()


class TestDeletions:
    def test_delete_only_uses_fup2(self, maintainer, small_database):
        report = maintainer.remove_transactions([list(small_database[0])], label="gc")
        assert report.algorithm == "fup2"
        assert report.deleted_transactions == 1
        assert report.database_size == 8

    def test_state_matches_remine_after_delete(self, maintainer, small_database):
        maintainer.remove_transactions([list(small_database[0])])
        remined = AprioriMiner(0.3).mine(small_database.slice(1))
        assert maintainer.result.lattice.supports() == remined.lattice.supports()

    def test_deleting_a_phantom_transaction_is_refused(self, maintainer):
        before = maintainer.result.lattice.supports()
        size = len(maintainer.database)
        with pytest.raises(StaleStateError):
            maintainer.remove_transactions([[98, 99]], label="phantom")
        # The refused batch must leave the maintained state untouched.
        assert maintainer.result.lattice.supports() == before
        assert len(maintainer.database) == size
        assert len(maintainer.update_log) == 0

    def test_deleting_more_copies_than_stored_is_refused(self, maintainer, small_database):
        duplicates = [list(small_database[0])] * (len(small_database) + 1)
        with pytest.raises(StaleStateError):
            maintainer.remove_transactions(duplicates)

    def test_phantom_check_uses_the_maintained_multiset(self, maintainer, small_database):
        # The O(d) pre-check builds the transaction multiset once; every later
        # deletion batch validates against the delta-maintained copy instead
        # of rebuilding anything O(|DB|).
        maintainer.remove_transactions([list(small_database[0])])
        database = maintainer.database
        assert database.has_transaction_multiset
        maintainer.add_transactions([[1, 2, 9]])
        maintainer.remove_transactions([[1, 2, 9]])
        assert database.transaction_multiset() == Counter(database.transactions())

    def test_refused_phantom_leaves_multiset_consistent(self, maintainer):
        with pytest.raises(StaleStateError):
            maintainer.remove_transactions([[98, 99]])
        database = maintainer.database
        assert database.transaction_multiset() == Counter(database.transactions())


class TestRestore:
    def test_restore_reproduces_saved_state(self, maintainer, small_database):
        restored = RuleMaintainer(0.3, 0.6)
        restored.restore(small_database.copy(), maintainer.result.lattice.copy())
        assert restored.result.lattice.supports() == maintainer.result.lattice.supports()
        assert [str(r) for r in restored.rules] == [str(r) for r in maintainer.rules]
        # ... and the restored maintainer keeps maintaining.
        report = restored.add_transactions([[1, 2]], label="after-restore")
        assert report.database_size == len(small_database) + 1

    def test_restore_rejects_mismatched_database(self, maintainer, small_database):
        restored = RuleMaintainer(0.3, 0.6)
        with pytest.raises(StaleStateError):
            restored.restore(small_database.slice(0, 4), maintainer.result.lattice.copy())

    def test_mixed_batch(self, maintainer, small_database):
        batch = UpdateBatch.from_iterables(
            insertions=[[1, 4], [1, 4], [2, 4]],
            deletions=[list(small_database[0])],
            label="mixed",
        )
        report = maintainer.apply(batch)
        assert report.algorithm == "fup2"
        expected = small_database.slice(1).concatenate(
            TransactionDatabase([[1, 4], [1, 4], [2, 4]])
        )
        remined = AprioriMiner(0.3).mine(expected)
        assert maintainer.result.lattice.supports() == remined.lattice.supports()


class TestStatDrift:
    """The rules_updated bugfix: statistics drift must not read as 'unchanged'."""

    def test_surviving_rule_with_drifted_stats_is_reported(self):
        maintainer = RuleMaintainer(0.3, 0.6)
        maintainer.initialise([[1, 2]] * 6 + [[1], [2], [3], [3]])
        before = {rule for rule in maintainer.rules}
        # Reinforce {1}=>{2} (and every 1-itemset's share): the rule set's
        # membership stays identical while every statistic moves.
        report = maintainer.add_transactions([[1, 2]] * 2, label="drift")
        assert {(r.antecedent, r.consequent) for r in maintainer.rules} == {
            (r.antecedent, r.consequent) for r in before
        }
        assert report.rules_added == []
        assert report.rules_removed == []
        assert report.rules_updated, "stat drift silently dropped"
        assert report.rules_changed  # the fixed property sees the drift
        for old, new in report.rules_updated:
            assert (old.antecedent, old.consequent) == (new.antecedent, new.consequent)
            assert old != new
        assert report.summary()["rules_updated"] == len(report.rules_updated)

    def test_report_matches_diff_rules(self, maintainer):
        """The report's three rule lists are exactly diff_rules(before, after)."""
        from repro.mining.rules import diff_rules

        before = maintainer.rules
        report = maintainer.add_transactions([[1, 2, 3]] * 3, label="grow")
        diff = diff_rules(before, maintainer.rules)
        assert report.rules_added == diff.added
        assert report.rules_removed == diff.removed
        assert report.rules_updated == diff.updated

    def test_unchanged_state_reports_no_drift(self, maintainer):
        """Applying and reverting leaves statistics identical: no updates."""
        maintainer.add_transactions([[1, 2, 4]], label="add")
        report = maintainer.remove_transactions([[1, 2, 4]], label="undo")
        # After the revert the lattice matches the original state, so a rule
        # can only appear in updated if its statistics truly differ.
        for old, new in report.rules_updated:
            assert old != new


class TestBookkeeping:
    def test_empty_batch_is_noop(self, maintainer):
        before = maintainer.result.lattice.supports()
        report = maintainer.apply(UpdateBatch())
        assert report.algorithm == "noop"
        assert maintainer.result.lattice.supports() == before

    def test_empty_batch_skips_log_rules_and_sequence(self, maintainer):
        """A no-op batch regenerates nothing and leaves no trace in the log."""
        rules_before = maintainer.rules
        report = maintainer.apply(UpdateBatch(label="nothing"))
        assert len(maintainer.update_log) == 0
        assert maintainer.sequence == 0
        assert maintainer.rules == rules_before
        assert report.database_size == len(maintainer.database)
        assert not report.rules_changed
        assert not report.itemsets_changed

    def test_sequence_counts_applied_batches(self, maintainer, small_increment):
        assert maintainer.sequence == 0
        maintainer.add_transactions(list(small_increment), label="a")
        assert maintainer.sequence == 1
        maintainer.apply(UpdateBatch())  # no-op: sequence must not advance
        assert maintainer.sequence == 1
        maintainer.remove_transactions([[1, 2, 3]], label="b")
        assert maintainer.sequence == 2

    def test_update_log_records_batches(self, maintainer, small_increment):
        maintainer.add_transactions(list(small_increment), label="a")
        maintainer.remove_transactions([[1, 2, 3]], label="b")
        assert len(maintainer.update_log) == 2
        assert [batch.label for batch in maintainer.update_log] == ["a", "b"]
        assert maintainer.update_log.total_insertions == len(small_increment)
        assert maintainer.update_log.total_deletions == 1

    def test_report_summary_fields(self, maintainer, small_increment):
        report = maintainer.add_transactions(list(small_increment), label="day-1")
        summary = report.summary()
        assert summary["batch"] == "day-1"
        assert summary["inserted"] == len(small_increment)
        assert summary["deleted"] == 0
        assert summary["database_size"] == maintainer.database.size

    def test_large_itemsets_property(self, maintainer):
        assert maintainer.large_itemsets == maintainer.result.large_itemsets

    def test_rules_property_returns_copy(self, maintainer):
        rules = maintainer.rules
        rules.clear()
        assert maintainer.rules  # internal list unaffected


class TestBackendEquivalence:
    """A mixed insert/delete session ends identically on every engine."""

    def _run_session(self, database, backend: str) -> RuleMaintainer:
        maintainer = RuleMaintainer(0.1, 0.5, fup_options=FupOptions(backend=backend))
        maintainer.initialise(database.slice(0, 120))
        maintainer.add_transactions(list(database.slice(120, 160)), label="insert-1")
        maintainer.apply(
            UpdateBatch.from_iterables(
                insertions=list(database.slice(160, 200)),
                deletions=list(database.slice(0, 20)),
                label="mixed",
            )
        )
        maintainer.remove_transactions(list(database.slice(20, 30)), label="delete")
        maintainer.add_transactions(list(database.slice(200, 240)), label="insert-2")
        return maintainer

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_session_matches_horizontal_and_remine(self, backend, random_database_factory):
        database = random_database_factory(transactions=240, items=14, seed=5)
        maintainer = self._run_session(database, backend)
        reference = self._run_session(database, "horizontal")
        assert (
            maintainer.result.lattice.supports() == reference.result.lattice.supports()
        )
        assert maintainer.rules == reference.rules
        remined = AprioriMiner(0.1).mine(maintainer.database)
        assert maintainer.result.lattice.supports() == remined.lattice.supports()

    @pytest.mark.parametrize("spec", [None, "window:150", "decay:2", "topk:10"])
    def test_policy_session_ends_identically_on_both_engines(
        self, spec, random_database_factory
    ):
        """Every retention policy sees the same evictions and publishes the
        same lattice and rules whichever engine counts the supports."""
        database = random_database_factory(transactions=240, items=14, seed=5)

        def run(backend: str) -> RuleMaintainer:
            maintainer = RuleMaintainer(
                0.1, 0.5, fup_options=FupOptions(backend=backend), policy=parse_policy(spec)
            )
            maintainer.initialise(database.slice(0, 120))
            for start in range(120, 240, 40):
                maintainer.apply(
                    UpdateBatch.from_iterables(
                        insertions=list(database.slice(start, start + 40)),
                        label=f"batch-{start}",
                    )
                )
            return maintainer

        vertical, horizontal = run("vertical"), run("horizontal")
        assert vertical.database.transactions() == horizontal.database.transactions()
        assert vertical.result.lattice.supports() == horizontal.result.lattice.supports()
        assert vertical.rules == horizontal.rules

    def test_vertical_session_maintains_one_index_across_batches(
        self, random_database_factory
    ):
        database = random_database_factory(transactions=240, items=14, seed=5)
        maintainer = self._run_session(database, "vertical")
        maintained = maintainer.database
        assert maintained.has_vertical_index  # built once by the first update
        assert dict(maintained.vertical()) == build_vertical_index(
            maintained.transactions()
        )
