"""The DHP miner — Direct Hashing and Pruning (Park, Chen & Yu, SIGMOD '95).

DHP is the second baseline the paper re-runs on the updated database.  It
improves on Apriori in two ways:

* **Direct hashing** — while counting the size-1 candidates in the first scan,
  every size-2 subset of each transaction is hashed into a bucket counter.
  When generating ``C_2``, a candidate pair is kept only if its bucket count
  reaches the support threshold; buckets below the threshold prove that every
  pair hashing into them is small.  The paper's experiments use a hash table
  of 100 buckets and apply hashing *only* to size-2 candidate generation
  ("the same policy used in [9]"), and this implementation follows that
  policy by default.
* **Transaction trimming** — during the level-``k`` counting scan, an item is
  kept for the next level only if it appears in at least ``k`` of the
  candidates matched inside that transaction; transactions shorter than
  ``k+1`` items are dropped entirely.  This progressively shrinks the database
  that later scans read.

Both features are instrumented and can be disabled individually, which the
ablation benchmark uses to quantify their contribution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from ..db.transaction_db import Transaction, TransactionDatabase
from ..itemsets import Itemset
from .backends import BACKEND_NAMES, CountingBackend, HorizontalBackend, make_backend
from .candidates import apriori_gen
from .hash_tree import HashTree
from .result import (
    ItemsetLattice,
    MiningResult,
    required_support_count,
    validate_min_support,
)

__all__ = ["DhpMiner", "DhpOptions", "mine_dhp"]


@dataclass(frozen=True)
class DhpOptions:
    """Feature switches for the DHP miner (defaults follow the paper)."""

    #: Number of buckets in the direct-hashing table (the paper uses 100).
    hash_table_size: int = 100
    #: Apply the hash filter when generating size-2 candidates.
    use_hash_filter: bool = True
    #: Trim items / drop transactions between levels.  Only the horizontal
    #: engine can interleave trimming with the counting scan; other engines
    #: count without trimming (the counts are identical — trimming is a
    #: lossless optimisation).
    use_transaction_trimming: bool = True
    #: Counting engine for the level-k support scans (see
    #: :data:`repro.mining.backends.BACKEND_NAMES`).
    backend: str = HorizontalBackend.name

    def __post_init__(self) -> None:
        if self.hash_table_size < 1:
            raise ValueError(
                f"hash_table_size must be positive, got {self.hash_table_size}"
            )
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown counting backend {self.backend!r}; "
                f"expected one of {', '.join(BACKEND_NAMES)}"
            )

    @classmethod
    def from_mining(cls, mining, **overrides) -> "DhpOptions":
        """DHP options carrying a MiningOptions engine selection.

        The single place the engine selection is projected onto this class.
        """
        return cls(backend=mining.backend, **overrides)


def _hash_pair(pair: Itemset, buckets: int) -> int:
    """Hash a size-2 itemset into one of *buckets* buckets.

    The original DHP paper uses ``h(x, y) = (x * 10 + y) mod buckets``; any
    deterministic function works, and this one keeps the classic flavour while
    spreading ids generated by the synthetic workload reasonably well.
    """
    return (pair[0] * 10 + pair[1]) % buckets


class DhpMiner:
    """DHP frequent-itemset miner over a :class:`TransactionDatabase`."""

    algorithm_name = "dhp"

    def __init__(
        self,
        min_support: float,
        options: DhpOptions | None = None,
        max_itemset_size: int | None = None,
        backend: CountingBackend | None = None,
    ) -> None:
        self.min_support = validate_min_support(min_support)
        self.options = options or DhpOptions()
        if max_itemset_size is not None and max_itemset_size < 1:
            raise ValueError(f"max_itemset_size must be positive, got {max_itemset_size}")
        self.max_itemset_size = max_itemset_size
        # An explicit *backend* instance wins over the options-described
        # engine — callers sharing one (stateful) engine across several
        # miners inject it here.
        self.backend = backend if backend is not None else make_backend(self.options.backend)

    # ------------------------------------------------------------------ #
    def required_count(self, database_size: int) -> int:
        """Absolute support threshold for the given database size."""
        return required_support_count(self.min_support, database_size)

    def mine(self, database: TransactionDatabase) -> MiningResult:
        """Run the DHP level-wise loop and return the large itemsets."""
        start = time.perf_counter()
        database_size = len(database)
        threshold = self.required_count(database_size)
        lattice = ItemsetLattice(database_size=database_size)
        candidates_per_level: dict[int, int] = {}
        scans = 0
        transactions_read = 0
        options = self.options

        # --- scan 1: count items and hash size-2 subsets ---------------- #
        item_counts: dict[int, int] = {}
        bucket_counts = [0] * options.hash_table_size if options.use_hash_filter else []
        working: list[Transaction] = []
        for transaction in database:
            working.append(transaction)
            for item in transaction:
                item_counts[item] = item_counts.get(item, 0) + 1
            if options.use_hash_filter:
                for pair in combinations(transaction, 2):
                    bucket_counts[_hash_pair(pair, options.hash_table_size)] += 1
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
            if size == 2 and options.use_hash_filter:
                candidates = {
                    candidate
                    for candidate in candidates
                    if bucket_counts[_hash_pair(candidate, options.hash_table_size)] >= threshold
                }
            if not candidates:
                break
            candidates_per_level[size] = len(candidates)

            if self.backend.supports_transaction_pruning:
                tree = HashTree(candidates)
                counts: dict[Itemset, int] = {candidate: 0 for candidate in candidates}
                next_working: list[Transaction] = []
                for transaction in working:
                    matches = tree.subsets_in(transaction)
                    for match in matches:
                        counts[match] += 1
                    if options.use_transaction_trimming:
                        trimmed = _trim_transaction(transaction, matches, size)
                        if trimmed:
                            next_working.append(trimmed)
                    else:
                        next_working.append(transaction)
            else:
                # Engines without a per-transaction loop cannot interleave the
                # trimming, so the working set stays the full database (which
                # also lets index-building engines reuse their cached per-
                # database index).  The supports are identical because trimming
                # only removes provably small items.
                counts = self.backend.count_candidates(database, candidates)
                next_working = working
            scans += 1
            transactions_read += len(working)
            working = next_working

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


def _trim_transaction(
    transaction: Transaction, matches: list[Itemset], size: int
) -> Transaction:
    """DHP transaction trimming after the level-*size* counting pass.

    An item can only contribute to a large (size+1)-itemset if it occurs in at
    least *size* of the size-*size* candidates matched within the transaction
    (every (size+1)-itemset containing the item has ``size`` subsets of size
    ``size`` that contain it).  Items failing the test are removed; a
    transaction that can no longer hold a (size+1)-itemset is dropped.
    """
    if not matches:
        return ()
    occurrence: dict[int, int] = {}
    for match in matches:
        for item in match:
            occurrence[item] = occurrence.get(item, 0) + 1
    kept = tuple(item for item in transaction if occurrence.get(item, 0) >= size)
    if len(kept) <= size:
        return ()
    return kept


def mine_dhp(
    database: TransactionDatabase,
    min_support: float,
    options: DhpOptions | None = None,
    max_itemset_size: int | None = None,
) -> MiningResult:
    """Convenience wrapper: mine *database* with DHP at *min_support*."""
    return DhpMiner(min_support, options=options, max_itemset_size=max_itemset_size).mine(database)
