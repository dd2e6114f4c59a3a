"""Immutable, versioned snapshots of a maintained rule set.

A :class:`RuleSnapshot` freezes everything a query needs at one maintenance
sequence number: the strong rules, an inverted antecedent-item index for
basket matching, and the itemset-support table.  A snapshot is built once
(by the writer, off the request path) and never mutated afterwards, so any
number of reader threads can query it without synchronisation — the
lock-free contract of :class:`~repro.serve.store.RuleStore` rests on this
immutability.

Basket matching
---------------

``rules_for_basket`` must find every rule whose antecedent is a subset of
the basket.  The naive approach tests all ``R`` rules per query.  The index
instead assigns each rule to **one representative antecedent item — its
rarest one** (smallest support count in the lattice): a rule can only apply
when *all* its antecedent items are in the basket, so in particular its
representative is, and scanning the posting lists of just the basket's items
visits every applicable rule.  Choosing the *rarest* item keeps posting
lists short where baskets are likely to probe (frequent items would
otherwise accumulate most rules).  Each visited candidate is then verified
with a real subset test, so the index is purely an accelerator — the result
is identical to the linear scan (``rules_for_basket_linear``, kept as the
benchmark baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from ..itemsets import Item, Itemset, format_itemset
from ..mining.result import ItemsetLattice
from ..mining.rules import AssociationRule, RulesDiff, diff_rules, rule_as_dict

__all__ = ["Recommendation", "RuleSnapshot"]


@dataclass(frozen=True)
class Recommendation:
    """One recommended item with the statistics of the rule that backs it."""

    item: Item
    confidence: float
    lift: float
    support: float
    rule: AssociationRule

    def as_dict(self) -> dict[str, object]:
        """JSON-safe form served by the ``/recommend`` endpoint."""
        return {
            "item": self.item,
            "confidence": self.confidence,
            "lift": self.lift,
            "support": self.support,
            "rule": str(self.rule),
        }


class RuleSnapshot:
    """One immutable, versioned view of a maintained rule set.

    Parameters
    ----------
    version:
        The maintenance sequence number that produced this state (for a
        durable session: the journal sequence number).
    rules:
        The strong rules, in :func:`~repro.mining.rules.generate_rules`
        order (descending confidence, then support).
    lattice:
        The large-itemset state backing the rules; its support table is
        copied into the snapshot so later lattice mutations cannot leak in.
    min_support, min_confidence:
        The thresholds the state was maintained at (served by ``/health``).
    policy:
        JSON-safe maintenance-policy description
        (:meth:`~repro.core.policy.MaintenancePolicy.info` output: policy
        spec and bounds), served by ``/health``.
        ``None`` for snapshots built without a policy-aware publisher.
    """

    __slots__ = (
        "version",
        "database_size",
        "min_support",
        "min_confidence",
        "policy",
        "rules",
        "_supports",
        "_antecedent_sets",
        "_postings",
    )

    def __init__(
        self,
        version: int,
        rules: Iterable[AssociationRule],
        lattice: ItemsetLattice,
        min_support: float,
        min_confidence: float,
        policy: Mapping[str, object] | None = None,
    ) -> None:
        self.version = int(version)
        self.policy: dict[str, object] | None = dict(policy) if policy is not None else None
        self.rules: tuple[AssociationRule, ...] = tuple(rules)
        self.database_size = lattice.database_size
        self.min_support = min_support
        self.min_confidence = min_confidence
        # A private copy: the lattice keeps evolving under maintenance, the
        # snapshot must not.
        self._supports: dict[Itemset, int] = dict(lattice.supports())
        self._antecedent_sets: tuple[frozenset[Item], ...] = tuple(
            frozenset(rule.antecedent) for rule in self.rules
        )
        postings: dict[Item, list[int]] = {}
        for index, rule in enumerate(self.rules):
            representative = min(
                rule.antecedent,
                key=lambda item: (self._supports.get((item,), 0), item),
            )
            postings.setdefault(representative, []).append(index)
        self._postings: dict[Item, tuple[int, ...]] = {
            item: tuple(indexes) for item, indexes in postings.items()
        }

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def rule_count(self) -> int:
        """Number of strong rules in the snapshot."""
        return len(self.rules)

    @property
    def itemset_count(self) -> int:
        """Number of large itemsets in the snapshot's support table."""
        return len(self._supports)

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RuleSnapshot(version={self.version}, rules={self.rule_count}, "
            f"itemsets={self.itemset_count}, database_size={self.database_size})"
        )

    # ------------------------------------------------------------------ #
    # Itemset support lookups
    # ------------------------------------------------------------------ #
    def support_count(self, items: Iterable[Item]) -> int:
        """Absolute support of *items*, 0 when the itemset is not large."""
        return self._supports.get(tuple(sorted(set(items))), 0)

    def support(self, items: Iterable[Item]) -> float:
        """Relative support of *items* with respect to the database size."""
        if self.database_size <= 0:
            return 0.0
        return self.support_count(items) / self.database_size

    def is_large(self, items: Iterable[Item]) -> bool:
        """True when *items* is one of the maintained large itemsets."""
        return tuple(sorted(set(items))) in self._supports

    def supports(self) -> Mapping[Itemset, int]:
        """The full itemset-support table (read-only view)."""
        return MappingProxyType(self._supports)

    # ------------------------------------------------------------------ #
    # Basket queries
    # ------------------------------------------------------------------ #
    def rules_for_basket(self, basket: Iterable[Item]) -> list[AssociationRule]:
        """Every rule whose antecedent is contained in *basket* (indexed).

        Rules come back in snapshot order (descending confidence, then
        support) — identical to :meth:`rules_for_basket_linear`.
        """
        members = frozenset(basket)
        matched: list[int] = []
        for item in members:
            for index in self._postings.get(item, ()):
                if self._antecedent_sets[index] <= members:
                    matched.append(index)
        matched.sort()
        return [self.rules[index] for index in matched]

    def rules_for_basket_linear(self, basket: Iterable[Item]) -> list[AssociationRule]:
        """The unindexed baseline: test every rule's antecedent against *basket*."""
        members = frozenset(basket)
        return [
            rule
            for rule, antecedent in zip(self.rules, self._antecedent_sets, strict=True)
            if antecedent <= members
        ]

    def recommend(self, basket: Iterable[Item], k: int = 5) -> list[Recommendation]:
        """Top-*k* items to add to *basket*, scored by confidence then lift.

        Each applicable rule votes for the consequent items the basket does
        not already own; an item's score is its best backing rule's
        ``(confidence, lift, support)``.  Ties break on the item id, so the
        ranking is deterministic.
        """
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        members = frozenset(basket)
        best: dict[Item, AssociationRule] = {}
        for rule in self.rules_for_basket(members):
            for item in rule.consequent:
                if item in members:
                    continue
                current = best.get(item)
                if current is None or (
                    (rule.confidence, rule.lift, rule.support)
                    > (current.confidence, current.lift, current.support)
                ):
                    best[item] = rule
        ranked = sorted(
            best.items(),
            key=lambda entry: (
                -entry[1].confidence,
                -entry[1].lift,
                -entry[1].support,
                entry[0],
            ),
        )
        return [
            Recommendation(
                item=item,
                confidence=rule.confidence,
                lift=rule.lift,
                support=rule.support,
                rule=rule,
            )
            for item, rule in ranked[:k]
        ]

    # ------------------------------------------------------------------ #
    # Diffing and serialization
    # ------------------------------------------------------------------ #
    def diff(self, previous: "RuleSnapshot") -> RulesDiff:
        """What changed since *previous* — including pure statistics drift.

        Built on :func:`~repro.mining.rules.diff_rules`, so a rule whose
        antecedent/consequent pair survived but whose confidence, support or
        support count moved shows up in ``updated`` instead of being
        silently reported as unchanged.
        """
        return diff_rules(previous.rules, self.rules)

    def as_dict(self, limit: int | None = None) -> dict[str, object]:
        """JSON-safe form of the snapshot (optionally truncating the rules)."""
        rules = self.rules if limit is None else self.rules[:limit]
        return {
            "version": self.version,
            "database_size": self.database_size,
            "min_support": self.min_support,
            "min_confidence": self.min_confidence,
            "rule_count": self.rule_count,
            "itemset_count": self.itemset_count,
            "rules": [rule_as_dict(rule) for rule in rules],
        }

    def describe(self) -> str:
        """One-line human description (the serve CLI's startup banner)."""
        top = (
            f"; top rule {format_itemset(self.rules[0].antecedent)} => "
            f"{format_itemset(self.rules[0].consequent)}"
            if self.rules
            else ""
        )
        return (
            f"snapshot v{self.version}: {self.rule_count} rules over "
            f"{self.itemset_count} itemsets, |DB|={self.database_size}{top}"
        )
