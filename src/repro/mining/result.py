"""Mining results: the itemset lattice and the per-run summary.

Every miner in the library (Apriori, DHP, FUP, FUP2) returns a
:class:`MiningResult`.  Its heart is the :class:`ItemsetLattice` — the set of
large itemsets organised by size, with their absolute support counts.  FUP
consumes the lattice of the *previous* mining run as its starting state, so
the lattice also records the database size the counts were measured against;
that is what lets :class:`~repro.core.maintenance.RuleMaintainer` detect stale
state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Iterable, Iterator, Mapping

from ..errors import InvalidItemsetError, InvalidThresholdError
from ..itemsets import Itemset, is_canonical, itemset, support_fraction

__all__ = [
    "ItemsetLattice",
    "MiningResult",
    "validate_min_support",
    "required_support_count",
]

#: Tolerance used when converting a relative support threshold into an
#: absolute count.  ``s * D`` computed in floating point can land a hair above
#: the true product (e.g. ``0.03 * 1100 == 33.000000000000004``); without the
#: tolerance an itemset with exactly the threshold count would be rejected.
_THRESHOLD_EPSILON = 1e-9


def required_support_count(min_support: float, database_size: int) -> int:
    """Smallest absolute support count that satisfies ``count >= s * D``.

    This is the paper's largeness test ``X.support >= s × D`` turned into an
    integer threshold, guarded against floating-point round-up.
    """
    if database_size <= 0:
        return 0
    return max(0, ceil(min_support * database_size - _THRESHOLD_EPSILON))


def validate_min_support(min_support: float) -> float:
    """Validate a relative minimum-support threshold (``0 < s <= 1``)."""
    if not isinstance(min_support, (int, float)) or isinstance(min_support, bool):
        raise InvalidThresholdError(f"minimum support must be a number, got {min_support!r}")
    if not 0.0 < float(min_support) <= 1.0:
        raise InvalidThresholdError(
            f"minimum support must be in (0, 1], got {min_support!r}"
        )
    return float(min_support)


class ItemsetLattice:
    """Large itemsets organised by size, with absolute support counts.

    Parameters
    ----------
    supports:
        Mapping from canonical itemset to its support *count* (number of
        transactions containing it).
    database_size:
        Number of transactions the counts were measured against (``D`` or
        ``D + d`` in the paper's notation).
    """

    __slots__ = ("_levels", "_supports", "database_size")

    def __init__(
        self,
        supports: Mapping[Itemset, int] | None = None,
        database_size: int = 0,
    ) -> None:
        self._supports: dict[Itemset, int] = {}
        self._levels: dict[int, set[Itemset]] = {}
        self.database_size = int(database_size)
        if supports:
            for candidate, count in supports.items():
                self.add(candidate, count)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, candidate: Itemset, support_count: int) -> None:
        """Insert (or overwrite) *candidate* with its absolute support count."""
        if not is_canonical(candidate):
            candidate = itemset(candidate)
        if support_count < 0:
            raise InvalidItemsetError(
                f"support count must be non-negative, got {support_count} for {candidate}"
            )
        self._supports[candidate] = int(support_count)
        self._levels.setdefault(len(candidate), set()).add(candidate)

    def discard(self, candidate: Itemset) -> None:
        """Remove *candidate* if present (no error when absent)."""
        if candidate in self._supports:
            del self._supports[candidate]
            level = self._levels.get(len(candidate))
            if level is not None:
                level.discard(candidate)
                if not level:
                    del self._levels[len(candidate)]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __contains__(self, candidate: Itemset) -> bool:
        return candidate in self._supports

    def __len__(self) -> int:
        return len(self._supports)

    def __iter__(self) -> Iterator[Itemset]:
        return iter(self._supports)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ItemsetLattice):
            return NotImplemented
        return self._supports == other._supports

    def support_count(self, candidate: Itemset) -> int:
        """Absolute support count of *candidate* (0 when not recorded)."""
        return self._supports.get(candidate, 0)

    def support(self, candidate: Itemset) -> float:
        """Relative support of *candidate* with respect to ``database_size``."""
        return support_fraction(self._supports.get(candidate, 0), self.database_size)

    def level(self, size: int) -> set[Itemset]:
        """Return the set of recorded itemsets of the given *size* (``L_k``)."""
        return set(self._levels.get(size, set()))

    def max_size(self) -> int:
        """Largest itemset size present (0 for an empty lattice)."""
        return max(self._levels) if self._levels else 0

    def sizes(self) -> list[int]:
        """Sorted list of the sizes present in the lattice."""
        return sorted(self._levels)

    def itemsets(self) -> list[Itemset]:
        """All recorded itemsets, sorted by (size, lexicographic order)."""
        return sorted(self._supports, key=lambda candidate: (len(candidate), candidate))

    def supports(self) -> dict[Itemset, int]:
        """A copy of the itemset → support-count mapping."""
        return dict(self._supports)

    def copy(self) -> "ItemsetLattice":
        """Return an independent copy of the lattice."""
        clone = ItemsetLattice(database_size=self.database_size)
        clone._supports = dict(self._supports)
        clone._levels = {size: set(level) for size, level in self._levels.items()}
        return clone

    # ------------------------------------------------------------------ #
    # Invariant checks (used heavily by the test suite)
    # ------------------------------------------------------------------ #
    def violates_downward_closure(self) -> list[Itemset]:
        """Return itemsets that have a missing proper subset (should be empty)."""
        offenders: list[Itemset] = []
        for candidate in self._supports:
            if len(candidate) == 1:
                continue
            for index in range(len(candidate)):
                subset = candidate[:index] + candidate[index + 1 :]
                if subset not in self._supports:
                    offenders.append(candidate)
                    break
        return offenders


@dataclass
class MiningResult:
    """Outcome of one mining (or maintenance) run.

    Attributes
    ----------
    lattice:
        The large itemsets found, with support counts measured against
        ``lattice.database_size`` transactions.
    min_support:
        The relative minimum support threshold used.
    algorithm:
        Short algorithm label (``"apriori"``, ``"dhp"``, ``"fup"``, ...).
    candidates_generated:
        Total number of candidate itemsets whose support was counted against
        the original database, summed over every iteration — the quantity
        Figure 3 of the paper compares.  For the miners that is every
        candidate they count; for FUP and FUP2 it is the pool that survives
        the increment-side prune (Lemma 5, or FUP2's db+ floor).  Itemsets
        counted only in the increment or the deletion batch — the old large
        itemsets being refreshed, and candidates the increment rules out —
        are not part of it.
    candidates_per_level:
        Breakdown of ``candidates_generated`` per itemset size.
    database_scans:
        Number of full passes over the original database performed.
    increment_scans:
        Number of passes over the increment (0 for the non-incremental miners).
    transactions_read:
        Total transactions touched across all scans (a proxy for I/O).
    elapsed_seconds:
        Wall-clock time of the run.
    """

    lattice: ItemsetLattice
    min_support: float
    algorithm: str
    candidates_generated: int = 0
    candidates_per_level: dict[int, int] = field(default_factory=dict)
    database_scans: int = 0
    increment_scans: int = 0
    transactions_read: int = 0
    elapsed_seconds: float = 0.0

    @property
    def large_itemsets(self) -> list[Itemset]:
        """All large itemsets, sorted by size then lexicographically."""
        return self.lattice.itemsets()

    @property
    def database_size(self) -> int:
        """Number of transactions the result's support counts refer to."""
        return self.lattice.database_size

    def level(self, size: int) -> set[Itemset]:
        """Return ``L_k`` for the given size ``k``."""
        return self.lattice.level(size)

    def support_count(self, candidate: Iterable[int]) -> int:
        """Absolute support count of *candidate* in this result."""
        return self.lattice.support_count(itemset(candidate))

    def support(self, candidate: Iterable[int]) -> float:
        """Relative support of *candidate* in this result."""
        return self.lattice.support(itemset(candidate))

    def summary(self) -> dict[str, float | int | str]:
        """Compact run summary used by the experiment harness reports."""
        return {
            "algorithm": self.algorithm,
            "min_support": self.min_support,
            "database_size": self.database_size,
            "large_itemsets": len(self.lattice),
            "max_itemset_size": self.lattice.max_size(),
            "candidates_generated": self.candidates_generated,
            "database_scans": self.database_scans,
            "increment_scans": self.increment_scans,
            "transactions_read": self.transactions_read,
            "elapsed_seconds": self.elapsed_seconds,
        }
