"""The vertical (TID-set) counting engine.

Instead of walking transactions and asking "which candidates are inside?",
the vertical layout stores, per item, the set of transaction ids containing
that item, and answers "how many transactions contain this candidate?" by
intersecting the TID sets of the candidate's items.  Each TID set is a
big-int mask: one C-speed ``&`` per intersection, one ``int.bit_count()``
per support.

When the source is a :class:`~repro.db.transaction_db.TransactionDatabase`
the database's cached :class:`~repro.db.vertical_index.VerticalIndex` is
used.  That index is built once and then *maintained by delta* through every
database mutation, so its cost is amortised not just over every level of
every mining run but over a whole multi-batch maintenance session — the
engine never pays a rebuild that the update stream didn't force.  Ad-hoc
transaction lists (the updaters' trimmed working copies) get a throwaway
index per call, which is still a net win whenever the candidate pool is
non-trivial.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ...db.transaction_db import TransactionDatabase, build_vertical_index
from ...db.vertical_index import VerticalIndex
from ...itemsets import Item, Itemset
from .base import CountingBackend, TransactionSource

__all__ = ["VerticalBackend", "build_vertical_index"]


class VerticalBackend(CountingBackend):
    """Support counting by TID-bitmask intersection."""

    name = "vertical"
    supports_transaction_pruning = False

    def _index(self, transactions: TransactionSource) -> VerticalIndex:
        if isinstance(transactions, TransactionDatabase):
            return transactions.vertical()
        return VerticalIndex.build(self.materialize(transactions))

    def count_items(self, transactions: TransactionSource) -> Counter[Item]:
        if isinstance(transactions, TransactionDatabase):
            # The database's delta-maintained cache already holds the
            # answer; don't redo |items| popcounts per counting pass.
            return transactions.item_counts()
        return self._index(transactions).item_counts()

    def count_candidates(
        self,
        transactions: TransactionSource,
        candidates: Iterable[Itemset],
    ) -> dict[Itemset, int]:
        return self._index(transactions).count_candidates(list(candidates))
