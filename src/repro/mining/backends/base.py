"""The counting-backend contract every support-counting engine implements.

Every algorithm in this library — Apriori, DHP, FUP and FUP2 — spends almost
all of its time in the same primitive: *given a pool of candidate itemsets and
a pile of transactions, what is the absolute support count of each candidate?*
:class:`CountingBackend` turns that primitive into a pluggable seam.  The
miners and updaters call the backend for every counting pass and never touch
the scan machinery directly, so the horizontal hash-tree scan and the
vertical TID-set engine are interchangeable without touching algorithm
code.

Backends accept either a :class:`~repro.db.transaction_db.TransactionDatabase`
or any sequence of canonical transactions (sorted tuples of ints).  Passing
the database object is preferred: engines that maintain a per-database index
(the vertical engine's TID bitsets) can then reuse the cached representation
across counting passes instead of rebuilding it per call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from typing import Collection, Iterable, Sequence, Union

from ...db.transaction_db import Transaction, TransactionDatabase
from ...itemsets import Item, Itemset

#: What a backend counts over: the database object itself (preferred — lets
#: engines reuse cached per-database indexes) or any sequence of canonical
#: transactions (the miners' trimmed working lists).
TransactionSource = Union[TransactionDatabase, Sequence[Transaction]]

__all__ = ["CountingBackend", "TransactionSource"]


class CountingBackend(ABC):
    """Interface of a support-counting engine.

    Subclasses implement the two scan primitives; everything else (pool
    splitting, fraction conversion) has shared default implementations.

    Attributes
    ----------
    name:
        Registry key and display name of the engine (``"horizontal"``,
        ``"vertical"``).
    supports_transaction_pruning:
        True when the engine drives an explicit per-transaction loop, so a
        caller can interleave per-transaction work (DHP's transaction
        trimming, FUP's ``Reduce-db``/``Reduce-DB`` passes) with the counting
        scan.  Engines that count without visiting transactions one by one
        (the vertical TID-set engine) report False, and callers fall back to
        plain counting — the reductions are a lossless optimisation, so
        support counts are identical either way.
    """

    name: str = "abstract"
    supports_transaction_pruning: bool = False

    # ------------------------------------------------------------------ #
    # Scan primitives
    # ------------------------------------------------------------------ #
    @abstractmethod
    def count_items(self, transactions: TransactionSource) -> Counter[Item]:
        """Count per-item occurrences (supports of all 1-itemsets) in one scan."""

    @abstractmethod
    def count_candidates(
        self,
        transactions: TransactionSource,
        candidates: Iterable[Itemset],
    ) -> dict[Itemset, int]:
        """Count the support of *candidates* over *transactions*.

        The candidates may be of mixed sizes.  The result holds an entry for
        **every** candidate, including those with zero support — callers
        frequently need the explicit zero.
        """

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def count_pools(
        self,
        transactions: TransactionSource,
        pools: Sequence[Collection[Itemset]],
    ) -> list[dict[Itemset, int]]:
        """Count several disjoint candidate pools over the same transactions.

        FUP's later iterations count two pools per increment scan (the old
        winners ``W`` and the new candidates ``C``).  The default counts the
        union in one pass and splits the result, so engines pay for a single
        scan / index lookup rather than one per pool.
        """
        merged: list[Itemset] = []
        for pool in pools:
            merged.extend(pool)
        counts = self.count_candidates(transactions, merged)
        return [{candidate: counts[candidate] for candidate in pool} for pool in pools]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"

    # ------------------------------------------------------------------ #
    @staticmethod
    def materialize(transactions: TransactionSource) -> Sequence[Transaction]:
        """Return *transactions* as an indexable sequence without copying
        when the source already is one (databases expose their list view)."""
        if isinstance(transactions, TransactionDatabase):
            return transactions.transactions()
        if isinstance(transactions, Sequence):
            return transactions
        return list(transactions)
