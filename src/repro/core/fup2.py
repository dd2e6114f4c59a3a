"""Generalised incremental update with deletions (the Section 5 extension).

The 1996 paper evaluates insert-only increments but notes that "the cases of
deletion and modification of a transaction database" were also investigated —
work that later became the FUP2 algorithm (Cheung, Lee & Kao, 1997).  This
module provides that generalisation so the maintenance API is complete:
an update may simultaneously **insert** a batch ``db+`` (size ``d+``) and
**delete** a batch ``db−`` (size ``d−``) of existing transactions, and a
*modification* is simply a delete of the old version plus an insert of the
new one.

The same two ideas as FUP carry over:

* **Old large itemsets** keep their recorded count from ``DB``; only the two
  small delta batches need to be scanned to refresh the count:
  ``count' = count − count_db− + count_db+``.
* **New candidates** can be pruned before touching the big database.  Because
  an itemset ``X ∉ L_k`` had ``count_DB(X) ≤ req(D) − 1`` and deletions can
  only lower that, ``X`` can be large in the updated database only if
  ``count_db+(X) ≥ req(D') − (req(D) − 1)``.  When the database shrinks enough
  that this bound becomes non-positive the prune has no power and the updater
  falls back to counting the apriori-gen candidates directly (still correct,
  just less of a shortcut) — for level 1 that means enumerating the item
  universe from the original database scan that is needed anyway.
* While that floor ``f`` is at least 1 the prune moves into the join, as in
  FUP: a new large ``X`` has ``count_db+(X) ≥ f``; each (k−1)-subset ``Y``
  is in ``L'_{k-1}`` with ``count_db+(Y) ≥ count_db+(X) ≥ f``; hence ``X ∈
  apriori_gen({Y ∈ L'_{k-1} : count_db+(Y) ≥ f})``.  At k = 2 the pairs
  come straight from db+'s transactions with their counts, and only the
  survivors are counted in db− and ``DB``.  A batch that drops the floor
  below 1 keeps the unseeded join: pairs absent from db+ can become large.

The updater's output is a :class:`~repro.mining.result.MiningResult` whose
lattice holds exact counts over ``(DB − db−) ∪ db+`` and can seed the next
update, exactly like FUP's.
"""

from __future__ import annotations

import time
from collections import Counter

from ..db.transaction_db import Transaction, TransactionDatabase
from ..errors import StaleStateError
from ..itemsets import Item, Itemset
from ..mining.backends import CountingBackend, MiningOptions, make_backend
from ..mining.candidates import apriori_gen, has_candidate_outside, supported_pairs
from ..mining.result import (
    ItemsetLattice,
    MiningResult,
    required_support_count,
    validate_min_support,
)

__all__ = ["Fup2Updater", "update_with_fup2"]


class Fup2Updater:
    """Incremental updater handling simultaneous insertions and deletions.

    Parameters
    ----------
    min_support:
        Relative minimum support ``s`` in ``(0, 1]``; must match the threshold
        used by the previous mining run.
    max_itemset_size:
        Optional cap on the itemset size explored.
    options:
        Counting-engine configuration (:class:`MiningOptions`); a ready
        :class:`~repro.mining.backends.CountingBackend` instance or a
        registry name is also accepted.  Default: the horizontal hash-tree
        scan.
    """

    algorithm_name = "fup2"

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
        if options is None:
            self.backend: CountingBackend = make_backend()
        elif isinstance(options, MiningOptions):
            self.backend = options.make_backend()
        else:
            self.backend = make_backend(options)

    # ------------------------------------------------------------------ #
    def update(
        self,
        original: TransactionDatabase,
        previous: MiningResult | ItemsetLattice,
        insertions: TransactionDatabase,
        deletions: TransactionDatabase,
    ) -> MiningResult:
        """Compute the large itemsets of ``(original − deletions) ∪ insertions``.

        ``deletions`` must be a sub-multiset of ``original``; every deleted
        transaction is assumed to actually exist in the original database
        (the :class:`~repro.core.maintenance.RuleMaintainer` guarantees this
        by removing them from its copy of the database).

        Raises
        ------
        StaleStateError
            If the previous result does not match the original database or the
            deletion batch is larger than the database it deletes from.
        """
        old = previous.lattice if isinstance(previous, MiningResult) else previous
        if old.database_size != len(original):
            raise StaleStateError(
                f"previous result was mined from {old.database_size} transactions but the "
                f"original database now holds {len(original)}"
            )
        if isinstance(previous, MiningResult) and previous.min_support != self.min_support:
            raise StaleStateError(
                f"previous result used min_support={previous.min_support} but this update "
                f"uses {self.min_support}"
            )
        if len(deletions) > len(original):
            raise StaleStateError(
                f"cannot delete {len(deletions)} transactions from a database of "
                f"{len(original)}"
            )

        start = time.perf_counter()
        run = _Fup2Run(
            min_support=self.min_support,
            max_itemset_size=self.max_itemset_size,
            original=original,
            old=old,
            insertions=insertions,
            deletions=deletions,
            backend=self.backend,
        )
        lattice = run.run()
        elapsed = time.perf_counter() - start
        return MiningResult(
            lattice=lattice,
            min_support=self.min_support,
            algorithm=self.algorithm_name,
            candidates_generated=sum(run.candidates_per_level.values()),
            candidates_per_level=dict(run.candidates_per_level),
            database_scans=run.database_scans,
            increment_scans=run.increment_scans,
            transactions_read=run.transactions_read,
            elapsed_seconds=elapsed,
        )


class _Fup2Run:
    """One execution of the generalised update (internal work object)."""

    def __init__(
        self,
        min_support: float,
        max_itemset_size: int | None,
        original: TransactionDatabase,
        old: ItemsetLattice,
        insertions: TransactionDatabase,
        deletions: TransactionDatabase,
        backend: CountingBackend | None = None,
    ) -> None:
        self.min_support = min_support
        self.max_itemset_size = max_itemset_size
        self.old = old
        self.original = original
        self.backend = backend if backend is not None else make_backend()
        # The delta batches stay database objects: every level's counting
        # pass hands the same object to the engine, so an index-caching
        # engine (vertical) builds each batch's index once and reuses it
        # across all levels of this update.
        self.insertions = insertions
        self.deletions = deletions
        self.original_size = len(original)
        self.new_size = self.original_size - len(self.deletions) + len(self.insertions)
        self.required_old = required_support_count(min_support, self.original_size)
        self.required_new = required_support_count(min_support, self.new_size)
        # Minimum count inside db+ a previously-small itemset needs before it
        # can possibly be large in the updated database (see module docstring).
        self.new_candidate_floor = self.required_new - max(self.required_old - 1, 0)
        # db+ counts of the current L'_{k-1}, which seed the next level's
        # candidate generation while the floor is at least 1.
        self.level_inserted_counts: dict[Itemset, int] = {}

        self.candidates_per_level: dict[int, int] = {}
        self.database_scans = 0
        self.increment_scans = 0
        self.transactions_read = 0

    # ------------------------------------------------------------------ #
    def run(self) -> ItemsetLattice:
        lattice = ItemsetLattice(database_size=self.new_size)
        if self.new_size == 0:
            # Every transaction was deleted: nothing can be large.
            return lattice
        if not self.insertions and not self.deletions:
            for candidate, count in self.old.supports().items():
                lattice.add(candidate, count)
            return lattice

        new_level = self._level_one(lattice)
        size = 2
        while new_level and (self.max_itemset_size is None or size <= self.max_itemset_size):
            new_level = self._level_k(lattice, size, new_level)
            size += 1
        return lattice

    # ------------------------------------------------------------------ #
    def _delta_item_counts(self) -> tuple[Counter[Item], Counter[Item]]:
        """Count every item in db+ and db− (one scan of each delta batch).

        Counting through the engine primes an index-caching engine's
        per-batch index for the later per-level candidate passes.
        """
        inserted = self.backend.count_items(self.insertions) if len(self.insertions) else Counter()
        deleted = self.backend.count_items(self.deletions) if len(self.deletions) else Counter()
        self.increment_scans += 1 if len(self.insertions) else 0
        self.increment_scans += 1 if len(self.deletions) else 0
        self.transactions_read += len(self.insertions) + len(self.deletions)
        return inserted, deleted

    def _level_one(self, lattice: ItemsetLattice) -> set[Itemset]:
        inserted, deleted = self._delta_item_counts()
        self.level_inserted_counts = {(item,): count for item, count in inserted.items()}
        old_level = self.old.level(1)

        new_level: set[Itemset] = set()
        for candidate in old_level:
            item = candidate[0]
            count = self.old.support_count(candidate) + inserted.get(item, 0) - deleted.get(item, 0)
            if count >= self.required_new:
                lattice.add(candidate, count)
                new_level.add(candidate)

        # Candidate items that were not large before.
        if self.new_candidate_floor >= 1:
            candidate_items = {
                item
                for item, count in inserted.items()
                if (item,) not in old_level and count >= self.new_candidate_floor
            }
        else:
            # The database shrank enough that items absent from db+ could have
            # become large; the original database must be consulted for the
            # full item universe, so no pre-pruning is possible.  The universe
            # comes from the database's delta-maintained cache — only a cold
            # cache costs (and accounts) a real full pass.
            universe_was_cold = not self.original.has_item_universe
            universe = self.original.items()
            if universe_was_cold:
                self.database_scans += 1
                self.transactions_read += self.original_size
            candidate_items = {
                item for item in universe | set(inserted) if (item,) not in old_level
            }
        self.candidates_per_level[1] = len(candidate_items)
        if not candidate_items:
            return new_level

        counted = self.backend.count_candidates(
            self.original, [(item,) for item in candidate_items]
        )
        original_counts: dict[Item, int] = {
            candidate[0]: count for candidate, count in counted.items()
        }
        self.database_scans += 1
        self.transactions_read += self.original_size

        for item in candidate_items:
            count = original_counts[item] + inserted.get(item, 0) - deleted.get(item, 0)
            if count >= self.required_new:
                candidate = (item,)
                lattice.add(candidate, count)
                new_level.add(candidate)
        return new_level

    # ------------------------------------------------------------------ #
    def _count_pool(
        self, transactions: "TransactionDatabase | list[Transaction]", pool: set[Itemset]
    ) -> dict[Itemset, int]:
        """Count every itemset of *pool* over *transactions* with the engine."""
        if not pool:
            return {}
        return self.backend.count_candidates(transactions, pool)

    def _level_k(
        self, lattice: ItemsetLattice, size: int, previous_new_level: set[Itemset]
    ) -> set[Itemset]:
        old_level = self.old.level(size)
        floor = self.new_candidate_floor
        inserted_counts: dict[Itemset, int] = {}
        if floor >= 1:
            # The level is skipped exactly when the unseeded pool would be
            # empty too, so the scan accounting matches the unseeded join.
            if not old_level and not has_candidate_outside(previous_new_level, old_level):
                self.candidates_per_level[size] = 0
                return set()
            seed = {
                itemset
                for itemset in previous_new_level
                if self.level_inserted_counts.get(itemset, 0) >= floor
            }
            if size == 2:
                pairs = supported_pairs(self.insertions, {itemset[0] for itemset in seed}, floor)
                inserted_counts = {
                    pair: count for pair, count in pairs.items() if pair not in old_level
                }
                candidates = set(inserted_counts)
            else:
                candidates = apriori_gen(seed) - old_level
        else:
            candidates = apriori_gen(previous_new_level) - old_level
            if not old_level and not candidates:
                self.candidates_per_level[size] = 0
                return set()

        pool = old_level | candidates
        inserted_counts.update(
            self._count_pool(self.insertions, pool - inserted_counts.keys())
        )
        self.level_inserted_counts = inserted_counts
        # Prune the brand-new candidates before the deletion and
        # original-database scans.
        if floor >= 1:
            candidates = {
                candidate
                for candidate in candidates
                if inserted_counts[candidate] >= floor
            }
        deleted_counts = self._count_pool(self.deletions, old_level | candidates)
        if self.insertions:
            self.increment_scans += 1
            self.transactions_read += len(self.insertions)
        if self.deletions:
            self.increment_scans += 1
            self.transactions_read += len(self.deletions)

        new_level: set[Itemset] = set()
        for candidate in old_level:
            count = (
                self.old.support_count(candidate)
                + inserted_counts[candidate]
                - deleted_counts[candidate]
            )
            if count >= self.required_new:
                lattice.add(candidate, count)
                new_level.add(candidate)

        self.candidates_per_level[size] = len(candidates)
        if not candidates:
            return new_level

        original_counts = self._count_pool(self.original, candidates)
        self.database_scans += 1
        self.transactions_read += self.original_size

        for candidate in candidates:
            count = (
                original_counts[candidate]
                + inserted_counts[candidate]
                - deleted_counts[candidate]
            )
            if count >= self.required_new:
                lattice.add(candidate, count)
                new_level.add(candidate)
        return new_level


def update_with_fup2(
    original: TransactionDatabase,
    previous: MiningResult | ItemsetLattice,
    insertions: TransactionDatabase,
    deletions: TransactionDatabase,
    min_support: float,
) -> MiningResult:
    """Convenience wrapper around :class:`Fup2Updater`."""
    return Fup2Updater(min_support).update(original, previous, insertions, deletions)
