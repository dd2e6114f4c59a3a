"""The incrementally-maintained vertical (item → TID-bitmask) index.

The vertical layout — per item, a bitmap in which bit ``t`` is set when
transaction ``t`` contains the item — is the data structure behind the
library's fast counting engine.  Rebuilding it from scratch costs a full
pass over every transaction, which is exactly the kind of re-derivation the
paper's FUP algorithm exists to avoid; this module therefore applies FUP's
own insight to the index layer.  :class:`VerticalIndex` is a first-class
object that is *maintained by delta*:

* **append/extend** OR the increment's bits in at positions shifted by the
  old size — O(Σ|tᵢ|) work for an increment of transactions ``tᵢ``, never a
  function of the database size;
* **delete_tids** compacts the deleted TID bits out of every mask with
  segment-wise bitmask arithmetic — deletions are the hard case because
  every surviving bit above a deleted position must slide down to keep bit
  ``t`` meaning "transaction ``t``";
* **concatenate** merges two already-built indexes by shifting the second
  operand's masks by the first operand's size;
* **slice** derives a child index from the parent's masks instead of
  re-scanning the child's transactions;
* **copy** clones the mask table (the immutable masks are shared).

Each item's bitmap is one arbitrary-precision Python ``int``, so every
operation is a whole-mask big-int expression — C-speed per 30-digit limb —
with no dependencies and no setup cost.  The class implements the read-only
:class:`collections.abc.Mapping` protocol (item → mask), so every consumer
of a plain-``dict`` vertical representation works unchanged.

The *lane* form (:meth:`VerticalIndex.export_lanes` /
:meth:`VerticalIndex.from_lanes`) is the byte layout the v2 snapshot format
stores: a row-major little-endian ``uint64[items × words]`` buffer plus the
sorted item-id list, ``words = ceil(size / 64)``.  Reopening a session
rebuilds the masks from it with one ``int.from_bytes`` per item instead of a
pass over every transaction.

:class:`~repro.db.transaction_db.TransactionDatabase` owns one of these and
keeps it current through every mutation, so a k-batch maintenance session
builds the index once and then pays only O(Σ dᵢ) for all subsequent batches
— the paper's Figure-2 claim applied to our own data structures.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from typing import Iterable, Iterator, Sequence

from ..itemsets import Item, Itemset

Transaction = tuple[Item, ...]

__all__ = ["VerticalIndex", "lane_words"]


def lane_words(size: int) -> int:
    """Number of 64-bit lane words covering *size* transaction bits."""
    return (size + 63) >> 6


class VerticalIndex(Mapping):
    """Item → TID-bitmask index maintained by delta instead of rebuilt.

    Invariant: for every item, bit ``t`` of its mask is set exactly when
    transaction ``t`` of the indexed sequence contains the item, and items
    appearing in no transaction carry no entry at all (so two indexes over
    equal transaction sequences compare equal).  ``size`` is the number of
    indexed transactions — one more than the highest usable bit position.
    """

    __slots__ = ("_masks", "_size")

    def __init__(self, masks: dict[Item, int] | None = None, size: int = 0) -> None:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        self._masks: dict[Item, int] = {
            item: mask for item, mask in (masks or {}).items() if mask
        }
        self._size = size

    @classmethod
    def _wrap(cls, masks: dict[Item, int], size: int) -> "VerticalIndex":
        """Internal: adopt *masks* (no zero masks, not shared) without a copy."""
        index = cls.__new__(cls)
        index._masks = masks
        index._size = size
        return index

    @classmethod
    def build(cls, transactions: Sequence[Transaction]) -> "VerticalIndex":
        """Build the index from scratch in one pass over *transactions*."""
        masks: dict[Item, int] = {}
        for tid, transaction in enumerate(transactions):
            bit = 1 << tid
            for item in transaction:
                masks[item] = masks.get(item, 0) | bit
        return cls._wrap(masks, len(transactions))

    # ------------------------------------------------------------------ #
    # Lane interchange (the v2 snapshot layout)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_lanes(
        cls, items: Sequence[Item], lanes: bytes | memoryview, size: int
    ) -> "VerticalIndex":
        """Build the index from a lane buffer (see :meth:`export_lanes`).

        *lanes* holds ``len(items) × lane_words(size)`` little-endian
        ``uint64`` words, row-major, rows ordered like *items*.  The buffer
        is parsed once; the index keeps no reference to it.
        """
        row_bytes = lane_words(size) * 8
        view = memoryview(lanes)
        masks: dict[Item, int] = {}
        for row, item in enumerate(items):
            mask = int.from_bytes(view[row * row_bytes : (row + 1) * row_bytes], "little")
            if mask:
                masks[item] = mask
        return cls._wrap(masks, size)

    def export_lanes(self) -> tuple[list[Item], int, bytes]:
        """Lane form: ``(sorted items, words, row-major uint64 buffer)``.

        The buffer holds ``len(items) × words`` little-endian 64-bit words;
        row ``i`` is the bitmap of ``items[i]``.  This is the byte layout the
        v2 snapshot format stores verbatim.
        """
        items = sorted(self._masks)
        words = lane_words(self._size)
        row_bytes = words * 8
        buffer = bytearray(len(items) * row_bytes)
        for row, item in enumerate(items):
            chunk = self._masks[item].to_bytes(row_bytes, "little")
            buffer[row * row_bytes : (row + 1) * row_bytes] = chunk
        return items, words, bytes(buffer)

    # ------------------------------------------------------------------ #
    # Mapping protocol (read side)
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of indexed transactions (bit positions in use)."""
        return self._size

    def __getitem__(self, item: Item) -> int:
        return self._masks[item]

    def __iter__(self) -> Iterator[Item]:
        return iter(self._masks)

    def __len__(self) -> int:
        return len(self._masks)

    def __contains__(self, item: object) -> bool:
        return item in self._masks

    def get(self, item: Item, default: int = 0) -> int:
        """Mask of *item*, or *default* when the item appears nowhere."""
        return self._masks.get(item, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VerticalIndex items={len(self._masks)} size={self._size}>"

    # ------------------------------------------------------------------ #
    # Counting queries
    # ------------------------------------------------------------------ #
    def support(self, candidate: Itemset) -> int:
        """Number of indexed transactions containing every item of *candidate*.

        An empty candidate counts as contained in every transaction,
        matching ``set.issubset`` semantics.
        """
        bits = -1  # all-ones: the identity of bitwise AND
        for item in candidate:
            item_bits = self._masks.get(item)
            if not item_bits:
                return 0
            bits &= item_bits
            if not bits:
                return 0
        # An empty candidate leaves ``bits == -1``: contained in every
        # transaction.
        return self._size if bits < 0 else bits.bit_count()

    def count_candidates(self, candidates: Sequence[Itemset]) -> dict[Itemset, int]:
        """Batched :meth:`support` over a whole candidate pool.

        Returns exactly ``{c: support(c) for c in candidates}``; one call per
        candidate level is the vertical engine's hot path.
        """
        masks = self._masks
        counts: dict[Itemset, int] = {}
        for candidate in candidates:
            bits = -1
            for item in candidate:
                item_bits = masks.get(item)
                if not item_bits:
                    bits = 0
                    break
                bits &= item_bits
                if not bits:
                    break
            # ``(0).bit_count()`` is already 0, so no zero-guard is needed;
            # only the empty-candidate sentinel (-1) needs special casing.
            counts[candidate] = self._size if bits < 0 else bits.bit_count()
        return counts

    def item_counts(self) -> Counter[Item]:
        """Per-item support counts (one popcount per item)."""
        return Counter({item: mask.bit_count() for item, mask in self._masks.items()})

    # ------------------------------------------------------------------ #
    # Delta maintenance (mutating)
    # ------------------------------------------------------------------ #
    def append(self, transaction: Transaction) -> None:
        """OR one new transaction's bits in at position ``size``."""
        bit = 1 << self._size
        masks = self._masks
        for item in transaction:
            masks[item] = masks.get(item, 0) | bit
        self._size += 1

    def extend(self, transactions: Iterable[Transaction]) -> None:
        """OR an increment's bits in, shifted past the current size."""
        masks = self._masks
        tid = self._size
        for transaction in transactions:
            bit = 1 << tid
            for item in transaction:
                masks[item] = masks.get(item, 0) | bit
            tid += 1
        self._size = tid

    def delete_tids(self, tids: Sequence[int]) -> None:
        """Compact the given TID bits out of every mask.

        *tids* must be strictly increasing and within ``range(size)`` — the
        order :meth:`TransactionDatabase.remove_batch` discovers them in.
        Every surviving bit above a deleted position slides down so that bit
        ``t`` keeps meaning "transaction ``t``" of the compacted sequence.
        The cost is O(segments × items) whole-mask operations, where the
        segments are the maximal runs of surviving TIDs between deletions —
        a contiguous deleted range (the sliding-window case) is a single
        shift per mask, while heavily scattered deletions approach the cost
        of a rebuild.
        """
        if not tids:
            return
        size = self._size
        previous = -1
        for tid in tids:
            if tid <= previous:
                raise ValueError(f"tids must be strictly increasing, got {list(tids)!r}")
            if tid >= size:
                raise ValueError(f"tid {tid} out of range for size {size}")
            previous = tid

        # Kept segments between deletions: (start, window-mask, width).
        segments: list[tuple[int, int, int]] = []
        previous = 0
        for tid in tids:
            if tid > previous:
                width = tid - previous
                segments.append((previous, (1 << width) - 1, width))
            previous = tid + 1
        tail_start = previous  # everything at or above this survives unbounded

        masks = self._masks
        if not segments:
            # Contiguous prefix deletion (the sliding-window case): every
            # mask compacts with a single shift.
            self._masks = {
                item: shifted
                for item, mask in masks.items()
                if (shifted := mask >> tail_start)
            }
        elif len(segments) == 1 and segments[0][0] == 0:
            # One contiguous deleted range: keep the low window, slide the
            # tail down — two shifts and an OR per mask.
            _, window, width = segments[0]
            self._masks = {
                item: compacted
                for item, mask in masks.items()
                if (compacted := (mask & window) | ((mask >> tail_start) << width))
            }
        else:
            first_deleted = 1 << tids[0]
            for item in list(masks):
                mask = masks[item]
                if mask < first_deleted:
                    continue  # every set bit sits below the first deletion
                compacted = 0
                offset = 0
                for start, window, width in segments:
                    compacted |= ((mask >> start) & window) << offset
                    offset += width
                compacted |= (mask >> tail_start) << offset
                if compacted:
                    masks[item] = compacted
                else:
                    del masks[item]
        self._size -= len(tids)

    # ------------------------------------------------------------------ #
    # Derivation (non-mutating)
    # ------------------------------------------------------------------ #
    def copy(self) -> "VerticalIndex":
        """Independent clone (the table is copied, the masks are shared)."""
        return self._wrap(dict(self._masks), self._size)

    def concatenate(self, other: "VerticalIndex") -> "VerticalIndex":
        """Index of ``self's transactions + other's transactions``."""
        masks = dict(self._masks)
        shift = self._size
        for item, mask in other._masks.items():
            masks[item] = masks.get(item, 0) | (mask << shift)
        return self._wrap(masks, self._size + other._size)

    def slice(self, start: int, stop: int | None = None) -> "VerticalIndex":
        """Index of transactions ``[start:stop)`` (list-slicing semantics)."""
        start, stop, _ = slice(start, stop).indices(self._size)
        width = max(0, stop - start)
        window = (1 << width) - 1
        masks: dict[Item, int] = {}
        for item, mask in self._masks.items():
            part = (mask >> start) & window
            if part:
                masks[item] = part
        return self._wrap(masks, width)
