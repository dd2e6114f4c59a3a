"""FUP — the Fast UPdate algorithm (Section 3 of the paper).

Given the original database ``DB`` (size ``D``), the large itemsets ``L``
previously mined from it *with their support counts*, and an increment ``db``
of ``d`` new transactions, FUP computes the large itemsets ``L'`` of the
updated database ``DB ∪ db`` under the same minimum support ``s`` while
scanning the big original database as little as possible:

* Old large k-itemsets only need their counts refreshed against the small
  increment to decide whether they stay large (Lemmas 1 and 4); itemsets that
  contain a (k−1)-level loser are discarded without any counting (Lemma 3).
* Potential *new* large itemsets are extracted from the increment, and a
  candidate is kept only if it is large **inside the increment itself**
  (``support_db ≥ s × d``, Lemmas 2 and 5) — only this heavily pruned pool is
  counted against ``DB``.
* On the engine backends the prune moves into the join, so hopeless
  candidates are never generated either.  Let ``f = ⌈s × d⌉``.  A new large
  k-itemset ``X`` has ``count_db(X) ≥ f`` (Lemma 5); each (k−1)-subset ``Y``
  of ``X`` is in ``L'_{k-1}`` and has ``count_db(Y) ≥ count_db(X) ≥ f``;
  hence ``X ∈ apriori_gen({Y ∈ L'_{k-1} : count_db(Y) ≥ f})``.  The seed
  counts come from the previous level's increment pass, and at k = 2 the
  pairs are read straight out of the increment's transactions with their
  counts.  The pool counted against ``DB`` is the same set as the literal
  ``apriori_gen(L'_{k-1}) − L_k`` leaves after the prune; only the
  increment-side pool shrinks.  The horizontal engine keeps the literal join
  (its Reduce-db trims make later increment counts inexact for hopeless
  itemsets), as does ``prune_candidates_by_increment=False``.
* The databases shrink as the iterations proceed (Section 3.4): hopeless
  items collected in ``P`` are dropped from ``DB`` during its first scan, the
  DHP-style ``Reduce-db`` / ``Reduce-DB`` trimming removes items and
  transactions that can no longer contribute, and the direct-hashing filter
  further prunes the size-2 candidates.

The updater returns a normal :class:`~repro.mining.result.MiningResult`; its
lattice carries the exact support counts in ``DB ∪ db`` for every new large
itemset, so the output can be fed straight back in as the "previous" state of
the next update — that is what :class:`~repro.core.maintenance.RuleMaintainer`
does.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import combinations
from typing import Sequence

from ..db.transaction_db import Transaction, TransactionDatabase
from ..errors import StaleStateError
from ..itemsets import Item, Itemset
from ..mining.backends import CountingBackend, make_backend
from ..mining.candidates import apriori_gen, has_candidate_outside, supported_pairs
from ..mining.hash_tree import HashTree
from ..mining.result import (
    ItemsetLattice,
    MiningResult,
    required_support_count,
    validate_min_support,
)
from .options import FupOptions

__all__ = ["FupUpdater", "update_with_fup"]


def _hash_pair(pair: Itemset, buckets: int) -> int:
    """Bucket index of a size-2 itemset in the direct-hashing table."""
    return (pair[0] * 10 + pair[1]) % buckets


def _as_lattice(previous: MiningResult | ItemsetLattice) -> ItemsetLattice:
    """Accept either a full mining result or a bare lattice as the prior state."""
    if isinstance(previous, MiningResult):
        return previous.lattice
    return previous


class FupUpdater:
    """Incremental updater implementing the FUP algorithm.

    Parameters
    ----------
    min_support:
        Relative minimum support ``s`` in ``(0, 1]``.  It must be the same
        threshold the previous mining run used — FUP's lemmas assume the
        thresholds do not change between the original run and the update.
    options:
        Feature switches (all optimisations enabled by default).
    max_itemset_size:
        Optional cap on the itemset size explored.
    """

    algorithm_name = "fup"

    def __init__(
        self,
        min_support: float,
        options: FupOptions | None = None,
        max_itemset_size: int | None = None,
        backend: CountingBackend | None = None,
    ) -> None:
        self.min_support = validate_min_support(min_support)
        self.options = options or FupOptions()
        if max_itemset_size is not None and max_itemset_size < 1:
            raise ValueError(f"max_itemset_size must be positive, got {max_itemset_size}")
        self.max_itemset_size = max_itemset_size
        # An explicit *backend* instance wins over the options-described
        # engine — callers sharing one (stateful) engine across several
        # updaters/miners inject it here.
        self.backend = backend if backend is not None else make_backend(self.options.backend)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def update(
        self,
        original: TransactionDatabase,
        previous: MiningResult | ItemsetLattice,
        increment: TransactionDatabase,
    ) -> MiningResult:
        """Compute the large itemsets of ``original ∪ increment``.

        Raises
        ------
        StaleStateError
            If the previous result's recorded database size (or minimum
            support, when a full :class:`MiningResult` is supplied) does not
            match this update — the supplied state would yield wrong counts.
        """
        self._validate_previous(original, previous)
        old = _as_lattice(previous)
        start = time.perf_counter()

        state = _FupRun(
            min_support=self.min_support,
            options=self.options,
            max_itemset_size=self.max_itemset_size,
            original=original,
            old=old,
            increment=increment,
            backend=self.backend,
        )
        lattice = state.run()

        elapsed = time.perf_counter() - start
        return MiningResult(
            lattice=lattice,
            min_support=self.min_support,
            algorithm=self.algorithm_name,
            candidates_generated=sum(state.candidates_per_level.values()),
            candidates_per_level=dict(state.candidates_per_level),
            database_scans=state.database_scans,
            increment_scans=state.increment_scans,
            transactions_read=state.transactions_read,
            elapsed_seconds=elapsed,
        )

    # ------------------------------------------------------------------ #
    def _validate_previous(
        self,
        original: TransactionDatabase,
        previous: MiningResult | ItemsetLattice,
    ) -> None:
        old = _as_lattice(previous)
        if old.database_size != len(original):
            raise StaleStateError(
                f"previous result was mined from {old.database_size} transactions but the "
                f"original database now holds {len(original)}; re-mine or supply the "
                f"matching state"
            )
        if isinstance(previous, MiningResult) and previous.min_support != self.min_support:
            raise StaleStateError(
                f"previous result used min_support={previous.min_support} but this update "
                f"uses {self.min_support}; FUP requires an unchanged threshold"
            )


class _FupRun:
    """One execution of the FUP iterations (internal work object).

    Splitting the run state out of :class:`FupUpdater` keeps the updater
    itself stateless/reusable and the per-level bookkeeping readable.
    """

    def __init__(
        self,
        min_support: float,
        options: FupOptions,
        max_itemset_size: int | None,
        original: TransactionDatabase,
        old: ItemsetLattice,
        increment: TransactionDatabase,
        backend: CountingBackend | None = None,
    ) -> None:
        self.min_support = min_support
        self.options = options
        self.max_itemset_size = max_itemset_size
        self.old = old
        self.original_size = len(original)
        self.increment_size = len(increment)
        self.total_size = self.original_size + self.increment_size
        self.required_total = required_support_count(min_support, self.total_size)
        self.required_increment = required_support_count(min_support, self.increment_size)

        # Counting engine.  The Section 3.4 database reductions and the DHP
        # hash filter are interleaved into the horizontal per-transaction
        # scan; engines without such a loop run every counting pass
        # themselves and those two (lossless) prunes are skipped, keeping the
        # databases intact so index-caching engines can reuse their
        # per-database representation across iterations — and, because the
        # database's vertical index is delta-maintained through mutations,
        # across every batch of a maintenance session.
        self.backend = backend if backend is not None else make_backend(options.backend)
        self.interleaved_scans = self.backend.supports_transaction_pruning
        self.original_db = original
        self.increment_db = increment

        # Working copies of the two databases; the Section 3.4 reductions
        # shrink these as the iterations proceed.  Only the interleaved
        # (horizontal) mode reduces — and therefore needs — the copies; the
        # engine modes scan the database objects directly, so copying the
        # potentially huge original database would be pure waste.
        if self.interleaved_scans:
            self.working_increment: list[Transaction] = list(increment)
            self.working_original: list[Transaction] = list(original)
        else:
            self.working_increment = []
            self.working_original = []

        # Direct-hashing buckets over size-2 subsets (Section 3.4, DHP
        # integration); the original-database buckets are only available when
        # the first iteration actually had to scan the original database.
        self.increment_buckets: list[int] | None = (
            [0] * options.hash_table_size
            if options.use_hash_filter and self.interleaved_scans
            else None
        )
        self.original_buckets: list[int] | None = None

        # Lemma 5 seeding of candidate generation (engine modes only; see the
        # module docstring): the floor a new candidate's increment count must
        # reach, 0 when generation stays unseeded, and the increment counts
        # of the current L'_{k-1} it narrows the join with.
        self.seed_floor = (
            self.required_increment
            if options.prune_candidates_by_increment and not self.interleaved_scans
            else 0
        )
        self.level_increment_counts: dict[Itemset, int] = {}

        # Instrumentation.
        self.candidates_per_level: dict[int, int] = {}
        self.database_scans = 0
        self.increment_scans = 0
        self.transactions_read = 0

    # ------------------------------------------------------------------ #
    def run(self) -> ItemsetLattice:
        """Execute every iteration and return the new lattice ``L'``."""
        lattice = ItemsetLattice(database_size=self.total_size)
        if self.increment_size == 0:
            # Nothing was added: the old large itemsets are still exact.
            for candidate, count in self.old.supports().items():
                lattice.add(candidate, count)
            return lattice

        new_level, losers = self._first_iteration(lattice)
        size = 2
        while new_level and (self.max_itemset_size is None or size <= self.max_itemset_size):
            new_level, losers = self._later_iteration(lattice, size, new_level, losers)
            size += 1
        return lattice

    # ------------------------------------------------------------------ #
    # Iteration 1 (Section 3.1)
    # ------------------------------------------------------------------ #
    def _first_iteration(self, lattice: ItemsetLattice) -> tuple[set[Itemset], set[Itemset]]:
        options = self.options
        old_level = self.old.level(1)

        # Single scan of the increment: counts every item (both for updating
        # the old winners and for harvesting new candidates) and, when the
        # hash filter is on, the size-2 subset buckets.
        if self.interleaved_scans:
            increment_counts: Counter[Item] = Counter()
            for transaction in self.working_increment:
                increment_counts.update(transaction)
                if self.increment_buckets is not None:
                    for pair in combinations(transaction, 2):
                        self.increment_buckets[_hash_pair(pair, options.hash_table_size)] += 1
        else:
            increment_counts = self.backend.count_items(self.increment_db)
        self.increment_scans += 1
        # The first scan always reads the whole increment (no reduction has
        # happened yet in either mode).
        self.transactions_read += self.increment_size

        # Winners and losers among the old large 1-itemsets (Lemma 1).
        new_level: set[Itemset] = set()
        losers: set[Itemset] = set()
        for candidate in old_level:
            count = self.old.support_count(candidate) + increment_counts.get(candidate[0], 0)
            if count >= self.required_total:
                lattice.add(candidate, count)
                new_level.add(candidate)
            else:
                losers.add(candidate)

        # New candidates are the items seen in the increment that were not
        # large before; Lemma 2 prunes those that are small even inside the
        # increment.  The pruned items form the set P used to shrink DB.
        candidate_counts: dict[Itemset, int] = {
            (item,): count
            for item, count in increment_counts.items()
            if (item,) not in old_level
        }
        hopeless_items: set[Item] = set()
        if options.prune_candidates_by_increment:
            for candidate in list(candidate_counts):
                if candidate_counts[candidate] < self.required_increment:
                    hopeless_items.add(candidate[0])
                    del candidate_counts[candidate]
        self.candidates_per_level[1] = len(candidate_counts)

        if candidate_counts:
            self._scan_original_first_iteration(
                lattice, candidate_counts, hopeless_items, new_level
            )
        if self.seed_floor >= 1:
            self.level_increment_counts = {
                (item,): count for item, count in increment_counts.items()
            }
        return new_level, losers

    def _scan_original_first_iteration(
        self,
        lattice: ItemsetLattice,
        candidate_counts: dict[Itemset, int],
        hopeless_items: set[Item],
        new_level: set[Itemset],
    ) -> None:
        """Scan ``DB`` once: count the surviving 1-candidates, drop ``P`` items."""
        options = self.options
        if not self.interleaved_scans:
            counted = self.backend.count_candidates(self.original_db, list(candidate_counts))
            original_counts = {candidate[0]: count for candidate, count in counted.items()}
            self.database_scans += 1
            self.transactions_read += self.original_size
        else:
            original_counts = {candidate[0]: 0 for candidate in candidate_counts}
            remove_hopeless = options.reduce_databases and bool(hopeless_items)
            if options.use_hash_filter:
                self.original_buckets = [0] * options.hash_table_size

            reduced: list[Transaction] = []
            for transaction in self.working_original:
                if remove_hopeless:
                    transaction = tuple(
                        item for item in transaction if item not in hopeless_items
                    )
                for item in transaction:
                    if item in original_counts:
                        original_counts[item] += 1
                if self.original_buckets is not None:
                    for pair in combinations(transaction, 2):
                        self.original_buckets[_hash_pair(pair, options.hash_table_size)] += 1
                reduced.append(transaction)
            self.database_scans += 1
            self.transactions_read += len(self.working_original)
            if options.reduce_databases:
                self.working_original = reduced

        for candidate, increment_count in candidate_counts.items():
            count = original_counts[candidate[0]] + increment_count
            if count >= self.required_total:
                lattice.add(candidate, count)
                new_level.add(candidate)

    # ------------------------------------------------------------------ #
    # Iterations 2.. (Section 3.2)
    # ------------------------------------------------------------------ #
    def _later_iteration(
        self,
        lattice: ItemsetLattice,
        size: int,
        previous_new_level: set[Itemset],
        previous_losers: set[Itemset],
    ) -> tuple[set[Itemset], set[Itemset]]:
        options = self.options
        old_level = self.old.level(size)

        # W starts as the old large k-itemsets; Lemma 3 removes the ones that
        # contain a known (k−1)-level loser without counting anything.
        winners_pool = set(old_level)
        if options.filter_losers_by_subsets and previous_losers:
            winners_pool = {
                candidate
                for candidate in winners_pool
                if not self._contains_loser(candidate, previous_losers)
            }

        if self.seed_floor >= 1:
            # The level is skipped exactly when the unseeded C would be empty
            # too, so the scan accounting matches the unseeded algorithm.
            if not winners_pool and not has_candidate_outside(previous_new_level, old_level):
                self.candidates_per_level[size] = 0
                return set(), set(old_level)
            winner_counts, candidates, candidate_counts = self._seeded_scan(
                size, previous_new_level, old_level, winners_pool
            )
        else:
            # C = apriori_gen(L'_{k-1}) − L_k; at size 2 the direct-hashing
            # filter can discard candidates whose bucket count already proves
            # them small.
            candidates = apriori_gen(previous_new_level) - old_level
            if (
                size == 2
                and options.use_hash_filter
                and self.increment_buckets is not None
                and self.original_buckets is not None
            ):
                candidates = {
                    candidate
                    for candidate in candidates
                    if (
                        self.increment_buckets[_hash_pair(candidate, options.hash_table_size)]
                        + self.original_buckets[_hash_pair(candidate, options.hash_table_size)]
                    )
                    >= self.required_total
                }

            if not winners_pool and not candidates:
                self.candidates_per_level[size] = 0
                return set(), set(old_level)

            # Scan the increment once: update the supports of W and C, trim
            # the increment's transactions (Reduce-db).
            winner_counts, candidate_counts = self._scan_increment(
                winners_pool, candidates, size
            )

        new_level: set[Itemset] = set()
        for candidate in winners_pool:
            count = self.old.support_count(candidate) + winner_counts[candidate]
            if count >= self.required_total:
                lattice.add(candidate, count)
                new_level.add(candidate)

        # Lemma 5: a brand-new itemset must be large within the increment.
        if options.prune_candidates_by_increment:
            candidates = {
                candidate
                for candidate in candidates
                if candidate_counts[candidate] >= self.required_increment
            }
        self.candidates_per_level[size] = len(candidates)

        if candidates:
            self._scan_original_later_iteration(
                lattice, size, old_level, candidates, candidate_counts, new_level
            )
        if self.seed_floor >= 1:
            self.level_increment_counts = {**winner_counts, **candidate_counts}

        losers = set(old_level) - new_level
        return new_level, losers

    def _seeded_scan(
        self,
        size: int,
        previous_new_level: set[Itemset],
        old_level: set[Itemset],
        winners_pool: set[Itemset],
    ) -> tuple[dict[Itemset, int], set[Itemset], dict[Itemset, int]]:
        """The level's increment scan with Lemma 5 moved into the join.

        Only the itemsets of ``L'_{k-1}`` whose increment count reaches the
        floor seed the candidates.  At size 2 the pairs come straight from
        the increment's transactions with exact counts, so only ``W`` goes
        to the engine; above it ``apriori_gen`` joins the seed set.
        """
        floor = self.seed_floor
        seed = {
            itemset
            for itemset in previous_new_level
            if self.level_increment_counts.get(itemset, 0) >= floor
        }
        if size == 2:
            winner_counts, _ = self._scan_increment(winners_pool, set(), size)
            pairs = supported_pairs(self.increment_db, {itemset[0] for itemset in seed}, floor)
            candidate_counts = {
                pair: count for pair, count in pairs.items() if pair not in old_level
            }
            return winner_counts, set(candidate_counts), candidate_counts
        candidates = apriori_gen(seed) - old_level
        winner_counts, candidate_counts = self._scan_increment(winners_pool, candidates, size)
        return winner_counts, candidates, candidate_counts

    def _scan_increment(
        self,
        winners_pool: set[Itemset],
        candidates: set[Itemset],
        size: int,
    ) -> tuple[dict[Itemset, int], dict[Itemset, int]]:
        """One pass over the increment counting both pools, with Reduce-db trimming."""
        options = self.options
        if not self.interleaved_scans:
            # The engine counts both pools in one pass; Reduce-db is skipped
            # (the increment was never reduced in this mode, so the cached
            # per-database index stays valid).
            winner_counts, candidate_counts = (
                self.backend.count_pools(self.increment_db, [winners_pool, candidates])
                if winners_pool or candidates
                else ({}, {})
            )
            self.increment_scans += 1
            self.transactions_read += self.increment_size
            return winner_counts, candidate_counts

        winner_tree = HashTree(winners_pool) if winners_pool else None
        candidate_tree = HashTree(candidates) if candidates else None
        winner_counts: dict[Itemset, int] = {candidate: 0 for candidate in winners_pool}
        candidate_counts: dict[Itemset, int] = {candidate: 0 for candidate in candidates}

        reduced: list[Transaction] = []
        for transaction in self.working_increment:
            matches: list[Itemset] = []
            if winner_tree is not None:
                for match in winner_tree.subsets_in(transaction):
                    winner_counts[match] += 1
                    matches.append(match)
            if candidate_tree is not None:
                for match in candidate_tree.subsets_in(transaction):
                    candidate_counts[match] += 1
                    matches.append(match)
            if options.reduce_databases:
                trimmed = _reduce_transaction(transaction, matches, size)
                if trimmed:
                    reduced.append(trimmed)
            else:
                reduced.append(transaction)
        self.increment_scans += 1
        self.transactions_read += len(self.working_increment)
        self.working_increment = reduced
        return winner_counts, candidate_counts

    def _scan_original_later_iteration(
        self,
        lattice: ItemsetLattice,
        size: int,
        old_level: set[Itemset],
        candidates: set[Itemset],
        candidate_counts: dict[Itemset, int],
        new_level: set[Itemset],
    ) -> None:
        """Scan ``DB`` counting the pruned candidates, with Reduce-DB trimming."""
        options = self.options
        if not self.interleaved_scans:
            original_counts = self.backend.count_candidates(self.original_db, candidates)
            self.database_scans += 1
            self.transactions_read += self.original_size
            for candidate in candidates:
                count = original_counts[candidate] + candidate_counts[candidate]
                if count >= self.required_total:
                    lattice.add(candidate, count)
                    new_level.add(candidate)
            return

        candidate_tree = HashTree(candidates)
        original_counts: dict[Itemset, int] = {candidate: 0 for candidate in candidates}

        allowed_items: set[Item] | None = None
        if options.reduce_databases:
            allowed_items = set()
            for candidate in old_level:
                allowed_items.update(candidate)
            for candidate in candidates:
                allowed_items.update(candidate)

        reduced: list[Transaction] = []
        for transaction in self.working_original:
            for match in candidate_tree.subsets_in(transaction):
                original_counts[match] += 1
            if allowed_items is not None:
                trimmed = tuple(item for item in transaction if item in allowed_items)
                if len(trimmed) > size:
                    reduced.append(trimmed)
            else:
                reduced.append(transaction)
        self.database_scans += 1
        self.transactions_read += len(self.working_original)
        if options.reduce_databases:
            self.working_original = reduced

        for candidate in candidates:
            count = original_counts[candidate] + candidate_counts[candidate]
            if count >= self.required_total:
                lattice.add(candidate, count)
                new_level.add(candidate)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _contains_loser(candidate: Itemset, losers: set[Itemset]) -> bool:
        """True when some (k−1)-subset of *candidate* is a known loser (Lemma 3)."""
        for index in range(len(candidate)):
            if candidate[:index] + candidate[index + 1 :] in losers:
                return True
        return False


def _reduce_transaction(
    transaction: Transaction, matches: Sequence[Itemset], size: int
) -> Transaction:
    """``Reduce-db``: drop items that cannot reach any large (size+1)-itemset.

    An item can only be part of a large (size+1)-itemset contained in this
    transaction if it occurs in at least *size* of the size-*size* candidate
    itemsets matched inside the transaction.  Transactions left with fewer
    than ``size + 1`` items cannot contain any larger itemset and are dropped.
    """
    if not matches:
        return ()
    occurrence: dict[Item, int] = {}
    for match in matches:
        for item in match:
            occurrence[item] = occurrence.get(item, 0) + 1
    kept = tuple(item for item in transaction if occurrence.get(item, 0) >= size)
    if len(kept) <= size:
        return ()
    return kept


def update_with_fup(
    original: TransactionDatabase,
    previous: MiningResult | ItemsetLattice,
    increment: TransactionDatabase,
    min_support: float,
    options: FupOptions | None = None,
) -> MiningResult:
    """Convenience wrapper around :class:`FupUpdater`."""
    return FupUpdater(min_support, options=options).update(original, previous, increment)
