"""Candidate generation: ``apriori_gen`` and friends.

``apriori_gen`` (Agrawal & Srikant, VLDB '94) takes the large (k−1)-itemsets
``L_{k-1}`` and produces the candidate k-itemsets ``C_k`` in two steps:

1. **Join** — merge every pair of (k−1)-itemsets that share their first k−2
   items, producing a k-itemset.
2. **Prune** — drop any candidate that has a (k−1)-subset not present in
   ``L_{k-1}`` (downward closure: all subsets of a large itemset are large).

``join_step`` and ``prune_by_subsets`` spell out those two steps;
``apriori_gen`` fuses them.  It groups ``L_{k-1}`` by (k−2)-prefix and joins
``prefix + (a, b)`` only when ``b`` is also a tail of ``prefix[1:] + (a,)``,
so the subset that drops the prefix's first item is checked during the join
and only the k−3 subsets that drop a later prefix item remain to be looked up.
At k = 2 there is nothing to prune: every 1-subset of a pair of ``L_1`` items
is in ``L_1``.

FUP and FUP2 call ``apriori_gen`` on the *new* large (k−1)-itemsets
``L'_{k-1}`` — narrowed to those the increment supports (Lemma 5) — and then
remove the itemsets already handled in ``L_k`` (paper, Section 3.2 step 2).
At k = 2 they instead take the pairs the increment actually contains from
``supported_pairs``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations
from typing import Iterable, Iterator, Set

from ..itemsets import Item, Itemset

__all__ = [
    "apriori_gen",
    "join_step",
    "prune_by_subsets",
    "generate_level_one_candidates",
    "has_candidate_outside",
    "supported_pairs",
]


def generate_level_one_candidates(items: Iterable[Item]) -> list[Itemset]:
    """Return the size-1 candidate itemsets for the given item universe."""
    return [(item,) for item in sorted(set(items))]


def join_step(previous_level: Set[Itemset]) -> set[Itemset]:
    """Join step of ``apriori_gen``: merge (k−1)-itemsets sharing a (k−2)-prefix."""
    if not previous_level:
        return set()
    by_prefix: dict[Itemset, list[Itemset]] = defaultdict(list)
    for candidate in previous_level:
        by_prefix[candidate[:-1]].append(candidate)
    joined: set[Itemset] = set()
    for prefix, group in by_prefix.items():
        if len(group) < 2:
            continue
        tails = sorted(candidate[-1] for candidate in group)
        for index, first in enumerate(tails):
            for second in tails[index + 1 :]:
                joined.add(prefix + (first, second))
    return joined


def prune_by_subsets(candidates: Iterable[Itemset], previous_level: Set[Itemset]) -> set[Itemset]:
    """Prune step: keep only candidates whose every (k−1)-subset is in *previous_level*."""
    surviving: set[Itemset] = set()
    for candidate in candidates:
        keep = True
        for index in range(len(candidate)):
            subset = candidate[:index] + candidate[index + 1 :]
            if subset not in previous_level:
                keep = False
                break
        if keep:
            surviving.add(candidate)
    return surviving


def _joined_blocks(previous_level: Set[Itemset]) -> Iterator[Iterable[Itemset]]:
    """Yield ``apriori_gen(previous_level)`` in blocks, one per joined prefix."""
    tails_by_prefix: dict[Itemset, set[Item]] = defaultdict(set)
    for itemset in previous_level:
        tails_by_prefix[itemset[:-1]].add(itemset[-1])
    for prefix, tails in tails_by_prefix.items():
        if len(tails) < 2:
            continue
        ordered = sorted(tails)
        if not prefix:
            yield combinations(ordered, 2)
            continue
        shifted = prefix[1:]
        later = [prefix[:index] + prefix[index + 1 :] for index in range(1, len(prefix))]
        for index, first in enumerate(ordered[:-1]):
            follow = tails_by_prefix.get(shifted + (first,))
            if not follow:
                continue
            head = prefix + (first,)
            if not later:  # k = 3: the tail check was the whole prune
                yield [head + (second,) for second in ordered[index + 1 :] if second in follow]
                continue
            yield [
                head + (second,)
                for second in ordered[index + 1 :]
                if second in follow
                and all(base + (first, second) in previous_level for base in later)
            ]


def apriori_gen(previous_level: Set[Itemset]) -> set[Itemset]:
    """Generate the candidate k-itemsets from the large (k−1)-itemsets.

    This is the ``apriori-gen`` function of [2] that the FUP pseudo-code calls
    directly (``C = apriori-gen(L'_{k-1}) − L_k``); it equals
    ``prune_by_subsets(join_step(L), L)``.
    """
    candidates: set[Itemset] = set()
    for block in _joined_blocks(previous_level):
        candidates.update(block)
    return candidates


def has_candidate_outside(previous_level: Set[Itemset], excluded: Set[Itemset]) -> bool:
    """True when ``apriori_gen(previous_level) − excluded`` is non-empty.

    Stops at the first such candidate instead of generating the whole level.
    """
    return any(
        candidate not in excluded
        for block in _joined_blocks(previous_level)
        for candidate in block
    )


def supported_pairs(
    transactions: Iterable[Itemset], items: Set[Item], floor: int
) -> dict[Itemset, int]:
    """Pairs of *items* contained in at least *floor* transactions, with their counts.

    One pass over *transactions* (canonical sorted tuples), so every count is
    exact; pairs below *floor* are dropped.
    """
    counts: Counter[Itemset] = Counter()
    for transaction in transactions:
        present = [item for item in transaction if item in items]
        if len(present) > 1:
            counts.update(combinations(present, 2))
    return {pair: count for pair, count in counts.items() if count >= floor}
