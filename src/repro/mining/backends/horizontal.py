"""The horizontal (transaction-at-a-time) hash-tree counting engine.

This is the classic Apriori counting pass — the ``Subset(C, T)`` primitive of
Agrawal & Srikant driven over every transaction.  It is the reference engine:
the one the paper's algorithms describe, the only one that can interleave
per-transaction work (DHP trimming, FUP's Reduce-db/Reduce-DB) with the scan,
and the baseline the vertical engine is benchmarked and tested against.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ...itemsets import Item, Itemset
from ..hash_tree import HashTree
from .base import CountingBackend, TransactionSource

__all__ = ["HorizontalBackend"]


class HorizontalBackend(CountingBackend):
    """Hash-tree scan over transactions, one transaction at a time."""

    name = "horizontal"
    supports_transaction_pruning = True

    def count_items(self, transactions: TransactionSource) -> Counter[Item]:
        counts: Counter[Item] = Counter()
        for transaction in self.materialize(transactions):
            counts.update(transaction)
        return counts

    def count_candidates(
        self,
        transactions: TransactionSource,
        candidates: Iterable[Itemset],
    ) -> dict[Itemset, int]:
        candidate_list = list(candidates)
        counts: dict[Itemset, int] = {candidate: 0 for candidate in candidate_list}
        if not counts:
            return counts
        by_size: dict[int, list[Itemset]] = {}
        for candidate in counts:
            by_size.setdefault(len(candidate), []).append(candidate)
        trees = [HashTree(group) for group in by_size.values()]
        for transaction in self.materialize(transactions):
            for tree in trees:
                for match in tree.subsets_in(transaction):
                    counts[match] += 1
        return counts
