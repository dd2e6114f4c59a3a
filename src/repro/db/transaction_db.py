"""In-memory transaction database.

The three miners in this library (Apriori, DHP and FUP) all consume the same
scan interface: iterate over transactions, where each transaction is a
canonical tuple of item ids.  :class:`TransactionDatabase` provides that
interface plus the mutation operations the incremental-maintenance workflow
needs (append an increment, delete a batch, concatenate databases).

Transactions are stored as sorted tuples of ints.  Sorted storage matters for
two reasons: the hash-tree subset enumeration assumes items appear in
increasing order, and deduplicated sorted tuples make transaction equality and
the DHP/FUP transaction-trimming optimisations straightforward.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence

from ..errors import InvalidTransactionError, StaleStateError
from ..itemsets import Item, Itemset
from .vertical_index import VerticalIndex

Transaction = tuple[Item, ...]

__all__ = [
    "Transaction",
    "TransactionDatabase",
    "VerticalIndex",
    "build_vertical_index",
    "shard_bounds",
]


def build_vertical_index(transactions: Sequence[Transaction]) -> dict[Item, int]:
    """Build the item → TID-bitmask index in one pass over *transactions*.

    Bit ``t`` of an item's mask is set when transaction ``t`` contains the
    item, so ``mask.bit_count()`` is the item's support count and
    intersecting the masks of an itemset's members counts the itemset.  This
    is the single definition of the vertical layout — the from-scratch
    reference that :class:`~repro.db.vertical_index.VerticalIndex` (the
    incrementally-maintained form) is tested against, and the builder the
    vertical counting engine uses for ad-hoc transaction lists.
    """
    index: dict[Item, int] = {}
    for tid, transaction in enumerate(transactions):
        bit = 1 << tid
        for item in transaction:
            index[item] = index.get(item, 0) | bit
    return index


def shard_bounds(total: int, shards: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``[start, stop)`` bounds splitting *total* items.

    At most *shards* non-empty bounds come back (fewer when ``total`` is
    smaller); sizes differ by at most one and cover ``range(total)`` in
    order.  The CLI uses it to split an update file into batches.
    """
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    size, remainder = divmod(total, shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + size + (1 if index < remainder else 0)
        if stop > start:
            bounds.append((start, stop))
        start = stop
    return bounds


#: Deletion batches at most this large take the indexed removal path
#: (per-victim C-speed ``list.index`` search) instead of the full
#: Python-level pass over every stored transaction.
_SMALL_DELETE_BATCH = 16


def _phantom_message(missing: Counter[Transaction]) -> str:
    """Error text naming the transactions a strict removal could not find."""
    total = sum(missing.values())
    examples = ", ".join(repr(t) for t in list(missing)[:3])
    suffix = ", ..." if len(missing) > 3 else ""
    return (
        f"strict removal: {total} transaction(s) not present in the database "
        f"({examples}{suffix}); deletions must name existing transactions"
    )


def _canonical_transaction(raw: Iterable[Item], tid: int | None = None) -> Transaction:
    """Validate and canonicalise one transaction (sorted, duplicates removed)."""
    try:
        unique = set(raw)
    except TypeError as exc:
        raise InvalidTransactionError(
            f"transaction {tid if tid is not None else '?'} is not iterable: {raw!r}"
        ) from exc
    for item in unique:
        if not isinstance(item, int) or isinstance(item, bool) or item < 0:
            raise InvalidTransactionError(
                f"transaction {tid if tid is not None else '?'} contains an invalid "
                f"item {item!r}; items must be non-negative integers"
            )
    return tuple(sorted(unique))


class TransactionDatabase:
    """A list of transactions with the scan interface the miners expect.

    Parameters
    ----------
    transactions:
        Any iterable of item iterables.  Each transaction is canonicalised on
        ingestion (sorted, duplicates removed).  Empty transactions are kept —
        a customer can buy nothing — but contribute to ``len()`` so support
        fractions are computed over every recorded transaction, matching the
        paper's definition of ``D`` as "the number of transactions in DB".
    name:
        Optional label used in reports (for example ``"T10.I4.D100.d1"``).
    """

    __slots__ = (
        "_tx",
        "_tx_loader",
        "_tx_count",
        "_vertical",
        "_item_counts",
        "_multiset",
        "name",
    )

    def __init__(
        self,
        transactions: Iterable[Iterable[Item]] = (),
        name: str = "",
    ) -> None:
        self._tx: list[Transaction] | None = [
            _canonical_transaction(raw, tid) for tid, raw in enumerate(transactions)
        ]
        self._tx_loader = None
        self._tx_count = 0
        self._vertical: VerticalIndex | None = None
        self._item_counts: Counter[Item] | None = None
        self._multiset: Counter[Transaction] | None = None
        self.name = name

    # ------------------------------------------------------------------ #
    # Lazy materialization (memory-mapped snapshots)
    # ------------------------------------------------------------------ #
    @property
    def _transactions(self) -> list[Transaction]:
        """The transaction list, materializing a pending lazy loader first.

        Databases opened from a memory-mapped snapshot carry a loader
        instead of the list, so opening is O(1); the first operation that
        genuinely needs the rows (iteration, mutation) pays
        the one-off parse here.  Size queries and vertical counting never
        trigger it.
        """
        transactions = self._tx
        if transactions is None:
            self._tx = transactions = list(self._tx_loader())
            self._tx_loader = None
        return transactions

    @_transactions.setter
    def _transactions(self, transactions: list[Transaction]) -> None:
        self._tx = transactions
        self._tx_loader = None

    @classmethod
    def _lazy(cls, loader, count: int, name: str = "") -> "TransactionDatabase":
        """Internal: a database whose rows materialize on first real use."""
        database = cls(name=name)
        database._tx = None
        database._tx_loader = loader
        database._tx_count = count
        return database

    @property
    def transactions_loaded(self) -> bool:
        """False while a lazily-opened snapshot has not materialized its rows."""
        return self._tx is not None

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._tx_count if self._tx is None else len(self._tx)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._transactions)

    def __getitem__(self, index: int) -> Transaction:
        return self._transactions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionDatabase):
            return NotImplemented
        return self._transactions == other._transactions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" name={self.name!r}" if self.name else ""
        return f"<TransactionDatabase{label} size={len(self)}>"

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_transactions(
        cls, transactions: Iterable[Iterable[Item]], name: str = ""
    ) -> "TransactionDatabase":
        """Build a database from any iterable of item iterables."""
        return cls(transactions, name=name)

    def copy(self, name: str | None = None) -> "TransactionDatabase":
        """Return an independent copy of this database.

        A built vertical index is cloned along (cheap: the mask table is
        copied, the immutable masks are shared), so copies of an indexed
        database never pay a rebuild.  The item-universe and
        transaction-multiset caches are cloned the same way.
        """
        clone = TransactionDatabase(name=self.name if name is None else name)
        clone._transactions = list(self._transactions)
        if self._vertical is not None:
            clone._vertical = self._vertical.copy()
        if self._item_counts is not None:
            clone._item_counts = Counter(self._item_counts)
        if self._multiset is not None:
            clone._multiset = Counter(self._multiset)
        return clone

    # ------------------------------------------------------------------ #
    # Mutation (used by the incremental maintenance workflow)
    # ------------------------------------------------------------------ #
    def _note_added(self, transactions: Sequence[Transaction]) -> None:
        """Delta-maintain the item-universe and multiset caches after an insert."""
        if self._item_counts is not None:
            counts = self._item_counts
            for transaction in transactions:
                for item in transaction:
                    counts[item] += 1
        if self._multiset is not None:
            multiset = self._multiset
            for transaction in transactions:
                multiset[transaction] += 1

    def _note_removed(self, transactions: Sequence[Transaction]) -> None:
        """Delta-maintain the item-universe and multiset caches after a removal."""
        if self._item_counts is not None:
            counts = self._item_counts
            for transaction in transactions:
                for item in transaction:
                    remaining = counts[item] - 1
                    if remaining:
                        counts[item] = remaining
                    else:
                        del counts[item]
        if self._multiset is not None:
            multiset = self._multiset
            for transaction in transactions:
                remaining = multiset[transaction] - 1
                if remaining:
                    multiset[transaction] = remaining
                else:
                    del multiset[transaction]

    def append(self, transaction: Iterable[Item]) -> None:
        """Append a single transaction."""
        canonical = _canonical_transaction(transaction, len(self))
        self._transactions.append(canonical)
        if self._vertical is not None:
            self._vertical.append(canonical)
        self._note_added((canonical,))

    def extend(self, transactions: Iterable[Iterable[Item]]) -> None:
        """Append every transaction of *transactions* (an increment ``db``)."""
        base = len(self)
        increment = [
            _canonical_transaction(raw, base + offset)
            for offset, raw in enumerate(transactions)
        ]
        self._transactions.extend(increment)
        if self._vertical is not None:
            self._vertical.extend(increment)
        self._note_added(increment)

    def remove_batch(
        self, transactions: Iterable[Iterable[Item]], strict: bool = False
    ) -> int:
        """Remove one occurrence of each given transaction; return how many were removed.

        Deletion is multiset-style: if the batch lists a transaction twice and
        the database holds it three times, two copies are removed.

        With ``strict=False`` (the default) unknown transactions are ignored
        and the count reflects only actual removals.  With ``strict=True`` the
        batch is validated and removed in one pass: if any listed transaction
        is missing a :class:`~repro.errors.StaleStateError` naming the missing
        transaction(s) is raised and the database is left untouched —
        replaying an update log against the wrong base fails loudly instead of
        silently desyncing.

        Small batches take an indexed path (per-victim C-speed search plus an
        in-place ``del``) so a single-row deletion never pays a Python-level
        pass over every stored transaction.
        """
        batch = [_canonical_transaction(raw) for raw in transactions]
        if not batch:
            return 0
        if len(batch) <= _SMALL_DELETE_BATCH:
            removed_tids, removed_rows = self._locate_batch_indexed(batch, strict)
            if removed_tids:
                # Delete from a fresh list (C-speed copy + memmoves) so a view
                # handed out by transactions() stays a stable snapshot, as the
                # full-pass path has always guaranteed.
                store = list(self._transactions)
                for tid in reversed(removed_tids):
                    del store[tid]
                self._transactions = store
        else:
            removed_tids, removed_rows = self._remove_batch_scan(batch, strict)
        if not removed_tids:
            return 0
        if self._vertical is not None:
            self._vertical.delete_tids(removed_tids)
        self._note_removed(removed_rows)
        return len(removed_tids)

    def _locate_batch_indexed(
        self, batch: list[Transaction], strict: bool
    ) -> tuple[list[int], list[Transaction]]:
        """Find the victim TIDs of a small batch without a full Python pass.

        Each victim is located with ``list.index`` (a C-speed scan); repeated
        batch entries for the same transaction resume the search after the
        previous match, giving the same multiset semantics as the full pass.
        Nothing is mutated here, so a strict failure rolls back for free.
        """
        store = self._transactions
        next_start: dict[Transaction, int] = {}
        removed_tids: list[int] = []
        removed_rows: list[Transaction] = []
        missing: Counter[Transaction] = Counter()
        for transaction in batch:
            try:
                tid = store.index(transaction, next_start.get(transaction, 0))
            except ValueError:
                missing[transaction] += 1
                continue
            next_start[transaction] = tid + 1
            removed_tids.append(tid)
            removed_rows.append(transaction)
        if missing and strict:
            raise StaleStateError(_phantom_message(missing))
        removed_tids.sort()
        return removed_tids, removed_rows

    def _remove_batch_scan(
        self, batch: list[Transaction], strict: bool
    ) -> tuple[list[int], list[Transaction]]:
        """Full-pass removal for large batches (validated before committing)."""
        to_remove = Counter(batch)
        kept: list[Transaction] = []
        removed_tids: list[int] = []
        removed_rows: list[Transaction] = []
        for tid, transaction in enumerate(self._transactions):
            if to_remove.get(transaction, 0) > 0:
                to_remove[transaction] -= 1
                removed_tids.append(tid)
                removed_rows.append(transaction)
            else:
                kept.append(transaction)
        if strict:
            leftover = +to_remove
            if leftover:
                raise StaleStateError(_phantom_message(leftover))
        self._transactions = kept
        return removed_tids, removed_rows

    # ------------------------------------------------------------------ #
    # Scan / query interface used by the miners
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of transactions (``D`` in the paper's notation)."""
        return len(self)

    def transactions(self) -> Sequence[Transaction]:
        """Return a read-only view (the underlying list) of the transactions."""
        return self._transactions

    def _ensure_item_counts(self) -> Counter[Item]:
        if self._item_counts is None:
            if self._vertical is not None:
                # The vertical index already holds the answer: one popcount
                # per item, no pass over the transactions.
                self._item_counts = self._vertical.item_counts()
            else:
                counts: Counter[Item] = Counter()
                for transaction in self._transactions:
                    counts.update(transaction)
                self._item_counts = counts
        return self._item_counts

    @property
    def has_item_universe(self) -> bool:
        """True when :meth:`items` / :meth:`item_counts` will not cost a scan.

        That is the case once the item-universe cache is built — from then on
        it is maintained by delta through every mutation, like the vertical
        index — and also while the vertical index itself is live, since the
        cache derives from its masks without touching the transactions.
        Callers that account database scans (FUP2's shrink fallback) use this
        to know whether their query performs a real pass.
        """
        return self._item_counts is not None or self._vertical is not None

    def items(self) -> set[Item]:
        """Return the set of distinct items appearing anywhere in the database.

        Served from the delta-maintained item-universe cache (built on first
        use), so only the first call after construction scans the database.
        """
        return set(self._ensure_item_counts())

    def item_counts(self) -> Counter[Item]:
        """Return per-item occurrence counts (support counts of 1-itemsets).

        Served from the same delta-maintained cache as :meth:`items`; the
        returned counter is a copy and safe to mutate.
        """
        return Counter(self._ensure_item_counts())

    def _ensure_multiset(self) -> Counter[Transaction]:
        if self._multiset is None:
            self._multiset = Counter(self._transactions)
        return self._multiset

    @property
    def has_transaction_multiset(self) -> bool:
        """True when the transaction-multiset cache is built (and maintained)."""
        return self._multiset is not None

    def transaction_multiset(self) -> Counter[Transaction]:
        """The transaction → occurrence-count multiset, as a live read-only view.

        Built on first use with one pass, then maintained by delta through
        every mutation; O(d) membership checks against it are what keep the
        maintenance pipeline's phantom-deletion validation independent of the
        database size.  Treat the returned counter as read-only.
        """
        return self._ensure_multiset()

    def missing_transactions(
        self, transactions: Iterable[Iterable[Item]]
    ) -> Counter[Transaction]:
        """Multiset of listed transactions *not* present in the database.

        Respects multiplicity: listing a transaction three times when the
        database stores two copies reports one missing occurrence.  Costs
        O(batch) after the transaction-multiset cache is built (the first
        call pays the one-off build).
        """
        multiset = self._ensure_multiset()
        seen: Counter[Transaction] = Counter()
        missing: Counter[Transaction] = Counter()
        for raw in transactions:
            transaction = _canonical_transaction(raw)
            seen[transaction] += 1
            if seen[transaction] > multiset.get(transaction, 0):
                missing[transaction] += 1
        return missing

    def count_itemset(self, candidate: Itemset) -> int:
        """Count transactions containing *candidate* with a full scan.

        This is the slow-but-obviously-correct reference counter used by the
        test-suite oracles; the miners use the hash-tree counting pass
        instead.
        """
        needed = set(candidate)
        return sum(1 for transaction in self._transactions if needed.issubset(transaction))

    def vertical(self) -> VerticalIndex:
        """Return the cached vertical (TID-bitset) representation.

        The result maps each item to an ``int`` bitmask in which bit ``t`` is
        set when transaction ``t`` contains the item, so
        ``mask.bit_count()`` is the item's support count and intersecting the
        masks of an itemset's members counts the itemset.  The index is built
        lazily on first use and from then on **maintained by delta** through
        every mutation (:meth:`append`, :meth:`extend`, :meth:`remove_batch`)
        instead of being rebuilt — an update costs work proportional to the
        update, never to the database.  Treat the returned mapping as a
        read-only live view of this database.
        """
        if self._vertical is None:
            self._vertical = VerticalIndex.build(self._transactions)
        return self._vertical

    @property
    def has_vertical_index(self) -> bool:
        """True when the vertical index is currently built (and maintained)."""
        return self._vertical is not None

    def slice(self, start: int, stop: int | None = None, name: str = "") -> "TransactionDatabase":
        """Return a new database holding transactions ``[start:stop)``.

        When this database's vertical index is built, the slice's index is
        derived from the parent masks (one shift-and-mask per item) instead
        of left for a from-scratch rebuild.
        """
        clone = TransactionDatabase(name=name)
        clone._transactions = self._transactions[start:stop]
        if self._vertical is not None:
            clone._vertical = self._vertical.slice(start, stop)
        return clone

    def concatenate(
        self, other: "TransactionDatabase", name: str = ""
    ) -> "TransactionDatabase":
        """Return a new database ``self ∪ other`` (the updated database ``DB ∪ db``).

        When this database's vertical index is built, the result's index is
        derived by shifting *other*'s masks past this database's size —
        *other* (typically the small increment) is indexed if it was not
        already, but this (typically large) database is never re-scanned.
        """
        clone = TransactionDatabase(name=name or self.name)
        clone._transactions = self._transactions + other._transactions
        if self._vertical is not None:
            clone._vertical = self._vertical.concatenate(other.vertical())
        return clone
