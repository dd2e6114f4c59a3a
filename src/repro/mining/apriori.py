"""The Apriori frequent-itemset miner (Agrawal & Srikant, VLDB '94).

Apriori is the first of the two baselines the paper re-runs on the updated
database ``DB ∪ db`` to compare against FUP.  The structure is the classic
level-wise loop:

1. Scan the database once to count every item; keep those with support ≥
   ``minsup`` as ``L_1``.
2. At level ``k`` ≥ 2, build ``C_k = apriori_gen(L_{k-1})``, scan the database
   once counting each candidate with the hash tree, and keep the candidates
   meeting ``minsup`` as ``L_k``.
3. Stop when ``L_k`` is empty.

The miner is instrumented: it records the number of candidate itemsets whose
support had to be counted (the quantity Figure 3 of the paper compares),
the number of database scans, and the number of transactions read.
"""

from __future__ import annotations

import time

from ..db.transaction_db import TransactionDatabase
from ..itemsets import Itemset
from .backends import BACKEND_NAMES, CountingBackend, MiningOptions, make_backend
from .candidates import apriori_gen
from .result import (
    ItemsetLattice,
    MiningResult,
    required_support_count,
    validate_min_support,
)

__all__ = ["AprioriMiner", "mine_apriori"]


class AprioriMiner:
    """Level-wise Apriori miner over a :class:`TransactionDatabase`.

    Parameters
    ----------
    min_support:
        Relative minimum support threshold ``s`` in ``(0, 1]``.  An itemset is
        large when its absolute support count is at least ``ceil(s * D)`` —
        i.e. ``support >= s * D`` using exact integer arithmetic, matching the
        paper's ``X.support >= s × D`` definition.
    max_itemset_size:
        Optional cap on the itemset size explored (useful in tests and
        ablations); ``None`` means run until no large itemsets are found.
    options:
        Counting-engine configuration (:class:`MiningOptions`); the default
        uses the horizontal hash-tree scan.  A ready
        :class:`~repro.mining.backends.CountingBackend` instance or a
        registry name is also accepted.
    """

    algorithm_name = "apriori"

    def __init__(
        self,
        min_support: float,
        max_itemset_size: int | None = None,
        options: MiningOptions | CountingBackend | str | None = None,
    ) -> None:
        self.min_support = validate_min_support(min_support)
        if max_itemset_size is not None and max_itemset_size < 1:
            raise ValueError(f"max_itemset_size must be positive, got {max_itemset_size}")
        self.max_itemset_size = max_itemset_size
        if options is None or isinstance(options, MiningOptions):
            self.options: MiningOptions | None = (
                options if options is not None else MiningOptions()
            )
            self.backend = self.options.make_backend()
        else:
            # A backend name or ready engine: resolve it first, then describe
            # it in `options` so the two attributes never disagree.  Custom
            # engines outside the registry cannot be described by
            # MiningOptions, so `options` is None for them.
            self.backend = make_backend(options)
            self.options = (
                MiningOptions(backend=self.backend.name)
                if self.backend.name in BACKEND_NAMES
                else None
            )

    # ------------------------------------------------------------------ #
    def required_count(self, database_size: int) -> int:
        """Absolute support threshold for the given database size."""
        return required_support_count(self.min_support, database_size)

    def mine(self, database: TransactionDatabase) -> MiningResult:
        """Run the level-wise mining loop and return the large itemsets."""
        start = time.perf_counter()
        database_size = len(database)
        threshold = self.required_count(database_size)
        lattice = ItemsetLattice(database_size=database_size)
        candidates_per_level: dict[int, int] = {}
        scans = 0
        transactions_read = 0

        # --- level 1: count every item in one scan --------------------- #
        item_counts = self.backend.count_items(database)
        scans += 1
        transactions_read += database_size
        candidates_per_level[1] = len(item_counts)
        current_level: set[Itemset] = set()
        for item, count in item_counts.items():
            if count >= threshold:
                candidate = (item,)
                lattice.add(candidate, count)
                current_level.add(candidate)

        # --- levels 2..k ------------------------------------------------ #
        size = 2
        while current_level and (self.max_itemset_size is None or size <= self.max_itemset_size):
            candidates = apriori_gen(current_level)
            if not candidates:
                break
            candidates_per_level[size] = len(candidates)
            counts: dict[Itemset, int] = self.backend.count_candidates(database, candidates)
            scans += 1
            transactions_read += database_size

            current_level = set()
            for candidate, count in counts.items():
                if count >= threshold:
                    lattice.add(candidate, count)
                    current_level.add(candidate)
            size += 1

        elapsed = time.perf_counter() - start
        return MiningResult(
            lattice=lattice,
            min_support=self.min_support,
            algorithm=self.algorithm_name,
            candidates_generated=sum(candidates_per_level.values()),
            candidates_per_level=candidates_per_level,
            database_scans=scans,
            increment_scans=0,
            transactions_read=transactions_read,
            elapsed_seconds=elapsed,
        )


def mine_apriori(
    database: TransactionDatabase,
    min_support: float,
    max_itemset_size: int | None = None,
    options: MiningOptions | CountingBackend | str | None = None,
) -> MiningResult:
    """Convenience wrapper: mine *database* with Apriori at *min_support*."""
    return AprioriMiner(
        min_support, max_itemset_size=max_itemset_size, options=options
    ).mine(database)
