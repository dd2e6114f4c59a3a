"""Unit tests for apriori_gen and its join/prune steps."""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining.candidates import (
    apriori_gen,
    generate_level_one_candidates,
    has_candidate_outside,
    join_step,
    prune_by_subsets,
    supported_pairs,
)


@st.composite
def levels(draw):
    """A set of same-size canonical itemsets over a small universe."""
    size = draw(st.integers(min_value=1, max_value=5))
    universe = draw(st.integers(min_value=size, max_value=10))
    pool = list(combinations(range(universe), size))
    return set(draw(st.lists(st.sampled_from(pool), max_size=60)))


class TestLevelOneCandidates:
    def test_sorted_unique_singletons(self):
        assert generate_level_one_candidates([3, 1, 3, 2]) == [(1,), (2,), (3,)]

    def test_empty_universe(self):
        assert generate_level_one_candidates([]) == []


class TestJoinStep:
    def test_joins_singletons_into_pairs(self):
        assert join_step({(1,), (2,), (3,)}) == {(1, 2), (1, 3), (2, 3)}

    def test_joins_pairs_sharing_prefix(self):
        assert join_step({(1, 2), (1, 3), (2, 3)}) == {(1, 2, 3)}

    def test_no_join_without_shared_prefix(self):
        assert join_step({(1, 2), (3, 4)}) == set()

    def test_empty_input(self):
        assert join_step(set()) == set()


class TestPruneStep:
    def test_keeps_candidates_with_all_subsets(self):
        previous = {(1, 2), (1, 3), (2, 3)}
        assert prune_by_subsets({(1, 2, 3)}, previous) == {(1, 2, 3)}

    def test_drops_candidates_missing_a_subset(self):
        previous = {(1, 2), (1, 3)}  # (2, 3) missing
        assert prune_by_subsets({(1, 2, 3)}, previous) == set()

    def test_empty_candidates(self):
        assert prune_by_subsets(set(), {(1, 2)}) == set()


class TestAprioriGen:
    def test_classic_example(self):
        # From Agrawal & Srikant: L3 = {123, 124, 134, 135, 234};
        # join gives {1234, 1345}; prune removes 1345 because 145 is absent.
        level3 = {(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 4)}
        assert apriori_gen(level3) == {(1, 2, 3, 4)}

    def test_pairs_from_singletons(self):
        assert apriori_gen({(2,), (5,), (9,)}) == {(2, 5), (2, 9), (5, 9)}

    def test_empty_level(self):
        assert apriori_gen(set()) == set()

    def test_single_itemset_generates_nothing(self):
        assert apriori_gen({(1, 2)}) == set()

    def test_all_candidate_subsets_are_in_previous_level(self):
        previous = {
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (5, 6),
        }
        for candidate in apriori_gen(previous):
            for subset in combinations(candidate, len(candidate) - 1):
                assert subset in previous

    def test_superset_completeness(self):
        # Every itemset whose subsets are all present must be generated.
        previous = {(1, 2), (1, 3), (2, 3)}
        assert (1, 2, 3) in apriori_gen(previous)

    @settings(max_examples=200, deadline=None)
    @given(previous=levels())
    def test_equals_join_then_prune(self, previous):
        assert apriori_gen(previous) == prune_by_subsets(join_step(previous), previous)


class TestHasCandidateOutside:
    @settings(max_examples=200, deadline=None)
    @given(previous=levels(), data=st.data())
    def test_agrees_with_the_full_level(self, previous, data):
        full = apriori_gen(previous)
        excluded = set()
        if full:
            excluded = set(data.draw(st.lists(st.sampled_from(sorted(full)), max_size=8)))
        assert has_candidate_outside(previous, excluded) == bool(full - excluded)

    def test_every_candidate_excluded(self):
        previous = {(1, 2), (1, 3), (2, 3)}
        assert not has_candidate_outside(previous, {(1, 2, 3)})
        assert has_candidate_outside(previous, set())


class TestSupportedPairs:
    def test_counts_pairs_of_the_given_items(self):
        transactions = [(1, 2, 3), (1, 2), (2, 3, 4), (1, 2, 4)]
        assert supported_pairs(transactions, {1, 2, 3}, 1) == {
            (1, 2): 3,
            (1, 3): 1,
            (2, 3): 2,
        }

    def test_drops_pairs_below_the_floor(self):
        transactions = [(1, 2, 3), (1, 2), (2, 3, 4), (1, 2, 4)]
        assert supported_pairs(transactions, {1, 2, 3, 4}, 2) == {
            (1, 2): 3,
            (2, 3): 2,
            (2, 4): 2,
        }

    def test_no_eligible_pair(self):
        assert supported_pairs([(1, 5), (2, 6)], {1, 2}, 1) == {}
        assert supported_pairs([], {1, 2}, 1) == {}
