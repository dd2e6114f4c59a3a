"""High-level rule maintenance: the API a downstream application uses.

:class:`RuleMaintainer` owns a transaction database together with its mined
state (large itemsets + association rules) and keeps that state current as
update batches arrive:

* the initial state is mined with Apriori or DHP (caller's choice),
* insert-only batches are applied with **FUP** (the paper's algorithm),
* batches containing deletions are applied with the **FUP2**-style updater,
* optionally, when an increment is much larger than the maintained database,
  the maintainer falls back to a full re-mine (the paper shows FUP keeps its
  edge up to increments ~3.5× the database, so the default threshold is
  generous).

Every applied batch produces a :class:`MaintenanceReport` describing what
changed — which itemsets and rules appeared or disappeared — which is the
piece of information the paper's motivation (updates "may not only invalidate
some existing strong rules but also turn some weak rules into strong ones")
says users care about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Literal

from ..db.transaction_db import TransactionDatabase
from ..db.update import UpdateBatch, UpdateLog
from ..errors import EmptyDatabaseError, StaleStateError
from ..itemsets import Item, Itemset
from ..mining.apriori import AprioriMiner
from ..mining.dhp import DhpMiner, DhpOptions
from ..mining.result import ItemsetLattice, MiningResult, validate_min_support
from ..mining.rules import (
    AssociationRule,
    diff_rules,
    generate_rules,
    validate_min_confidence,
)
from .fup import FupUpdater
from .fup2 import Fup2Updater
from .options import FupOptions
from .policy import MaintenancePolicy, UnboundedPolicy

__all__ = ["MaintenanceReport", "RuleMaintainer"]

MinerName = Literal["apriori", "dhp"]


@dataclass
class MaintenanceReport:
    """What one update batch changed in the maintained state."""

    batch_label: str
    algorithm: str
    inserted_transactions: int
    deleted_transactions: int
    database_size: int
    itemsets_added: list[Itemset] = field(default_factory=list)
    itemsets_removed: list[Itemset] = field(default_factory=list)
    rules_added: list[AssociationRule] = field(default_factory=list)
    rules_removed: list[AssociationRule] = field(default_factory=list)
    #: Rules whose antecedent/consequent pair survived the batch but whose
    #: statistics (confidence, support, support count, derived measures)
    #: changed, as ``(before, after)`` pairs.  Without this field a rule whose
    #: numbers drifted would be reported as unchanged and any consumer caching
    #: rule statistics would silently serve stale values.
    rules_updated: list[tuple[AssociationRule, AssociationRule]] = field(default_factory=list)
    result: MiningResult | None = None
    #: Which maintenance policy planned this batch (``--policy`` spec form).
    policy: str = "unbounded"
    #: Transactions the policy evicted beyond the caller's own deletions.
    evicted_transactions: int = 0
    #: Caller insertions the policy dropped before counting (window overflow).
    trimmed_insertions: int = 0

    @property
    def itemsets_changed(self) -> bool:
        """True when the set of large itemsets changed at all."""
        return bool(self.itemsets_added or self.itemsets_removed)

    @property
    def rules_changed(self) -> bool:
        """True when the strong rules changed at all — membership *or* statistics."""
        return bool(self.rules_added or self.rules_removed or self.rules_updated)

    def summary(self) -> dict[str, int | str]:
        """Compact description used by the examples and the harness."""
        return {
            "batch": self.batch_label,
            "algorithm": self.algorithm,
            "inserted": self.inserted_transactions,
            "deleted": self.deleted_transactions,
            "database_size": self.database_size,
            "itemsets_added": len(self.itemsets_added),
            "itemsets_removed": len(self.itemsets_removed),
            "rules_added": len(self.rules_added),
            "rules_removed": len(self.rules_removed),
            "rules_updated": len(self.rules_updated),
            "policy": self.policy,
            "evicted": self.evicted_transactions,
        }


class RuleMaintainer:
    """Owns a database plus its mined rules and keeps them current under updates.

    Parameters
    ----------
    min_support:
        Relative minimum support for large itemsets.
    min_confidence:
        Minimum confidence for strong rules.
    miner:
        Which algorithm mines the initial state (and performs any full
        re-mine): ``"apriori"`` or ``"dhp"``.
    fup_options:
        Feature switches forwarded to the FUP updater; its ``backend``
        selection also drives the FUP2 updater and any full
        re-mine, so a single counting engine serves the whole maintenance
        session (and its per-database index is reused across batches).
    remine_increment_factor:
        If an insert-only batch is larger than this multiple of the currently
        maintained database, fall back to a full re-mine instead of FUP.
        ``None`` (the default) never falls back — the paper's measurements
        show FUP stays ahead even for increments several times the database.
    policy:
        The :class:`~repro.core.policy.MaintenancePolicy` every batch is
        planned through (default: unbounded, the pre-policy behaviour).
        The planner may synthesise evictions (sliding window, time decay)
        or bound the served rule list (top-k); the maintained lattice is
        always exact for whatever the policy retains.
    """

    def __init__(
        self,
        min_support: float,
        min_confidence: float,
        miner: MinerName = "apriori",
        fup_options: FupOptions | None = None,
        remine_increment_factor: float | None = None,
        policy: MaintenancePolicy | None = None,
    ) -> None:
        self.min_support = validate_min_support(min_support)
        # The same validator generate_rules uses, so the two entry points
        # cannot drift (it also rejects booleans, which the hand-rolled check
        # this replaced happily accepted).
        self.min_confidence = validate_min_confidence(min_confidence)
        if miner not in ("apriori", "dhp"):
            raise ValueError(f"miner must be 'apriori' or 'dhp', got {miner!r}")
        self.miner_name: MinerName = miner
        self.fup_options = fup_options or FupOptions()
        if remine_increment_factor is not None and remine_increment_factor <= 0:
            raise ValueError(
                f"remine_increment_factor must be positive, got {remine_increment_factor}"
            )
        self.remine_increment_factor = remine_increment_factor
        self.policy: MaintenancePolicy = policy or UnboundedPolicy()

        self._database: TransactionDatabase | None = None
        self._result: MiningResult | None = None
        self._rules: list[AssociationRule] = []
        self.update_log = UpdateLog()
        #: Monotonic count of update batches folded into the current state
        #: (the durable session seeds it with its checkpoint sequence, so for
        #: a restored session it equals the journal sequence number).  Serving
        #: snapshots are stamped with it.
        self.sequence = 0
        self._subscribers: list[Callable[["RuleMaintainer"], None]] = []
        # One updater of each kind serves every batch of the session, so a
        # single counting engine is built once for the whole session.
        self._fup_updater = FupUpdater(self.min_support, options=self.fup_options)
        self._fup2_updater = Fup2Updater(
            self.min_support, options=self.fup_options.mining_options()
        )

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #
    @property
    def database(self) -> TransactionDatabase:
        """The currently maintained database (raises until initialised)."""
        if self._database is None:
            raise EmptyDatabaseError("RuleMaintainer has not been initialised with a database")
        return self._database

    @property
    def result(self) -> MiningResult:
        """The current mining result (large itemsets + counters)."""
        if self._result is None:
            raise EmptyDatabaseError("RuleMaintainer has not been initialised with a database")
        return self._result

    @property
    def large_itemsets(self) -> list[Itemset]:
        """The currently large itemsets."""
        return self.result.large_itemsets

    @property
    def rules(self) -> list[AssociationRule]:
        """The currently strong association rules."""
        if self._result is None:
            raise EmptyDatabaseError("RuleMaintainer has not been initialised with a database")
        return list(self._rules)

    @property
    def is_initialised(self) -> bool:
        """True once :meth:`initialise` has mined an initial state."""
        return self._result is not None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def subscribe(self, callback: Callable[["RuleMaintainer"], None]) -> None:
        """Register *callback* to run after every state change (the serving hook).

        The callback receives this maintainer after ``initialise``,
        ``restore`` and every state-changing ``apply`` — at a point where the
        database, mining result, rules and :attr:`sequence` are mutually
        consistent, which is what lets a subscriber build an atomic snapshot.
        If the maintainer is already initialised the callback fires
        immediately, so late subscribers never miss the current state.

        A callback that raises does so *after* the state change has
        committed: the exception propagates to the ``apply`` caller, but the
        batch is applied, the sequence has advanced, and (in a durable
        session) the journal record is kept — snapshots are complete states,
        so the next successful publication self-heals whatever the failed
        callback missed.
        """
        self._subscribers.append(callback)
        if self.is_initialised:
            callback(self)

    def _publish(self) -> None:
        for callback in self._subscribers:
            callback(self)

    def initialise(self, database: TransactionDatabase | Iterable[Iterable[Item]]) -> MiningResult:
        """Mine the initial state from *database* with the configured miner."""
        if not isinstance(database, TransactionDatabase):
            database = TransactionDatabase(database)
        self._database = database.copy()
        # Admit the database through the policy first: a bounded policy trims
        # it to within bounds *before* the initial mine, so the mined state
        # matches what the policy retains (e.g. the last W transactions).
        plan = self.policy.admit(self._database)
        if plan.batch.deletions:
            self._database.remove_batch(plan.batch.deletions, strict=True)
        self.policy.commit(plan)
        self._result = self._full_mine(self._database)
        self._rules = self.policy.bound_rules(
            generate_rules(self._result.lattice, self.min_confidence)
        )
        self.sequence = 0
        self._publish()
        return self._result

    def restore(
        self,
        database: TransactionDatabase,
        lattice: ItemsetLattice,
        algorithm: str = "restored",
        sequence: int = 0,
    ) -> MiningResult:
        """Adopt previously-mined state instead of mining it (the session hook).

        *database* is taken over as the maintained database (no copy — the
        caller hands over ownership, typically a database just loaded from a
        snapshot) and *lattice* as the current large-itemset state; rules are
        regenerated from the lattice, which is deterministic, so a restored
        maintainer is bit-for-bit equivalent to the one that saved the state.
        *sequence* seeds :attr:`sequence` (the durable session passes its
        checkpoint sequence so snapshot versions keep counting from there).

        Raises
        ------
        StaleStateError
            If the lattice's recorded database size disagrees with *database*.
        """
        if lattice.database_size != len(database):
            raise StaleStateError(
                f"itemset state was measured against {lattice.database_size} "
                f"transactions but the snapshot database holds {len(database)}"
            )
        self._database = database
        self._result = MiningResult(
            lattice=lattice,
            min_support=self.min_support,
            algorithm=algorithm,
        )
        self._rules = self.policy.bound_rules(generate_rules(lattice, self.min_confidence))
        self.sequence = int(sequence)
        self._publish()
        return self._result

    def _full_mine(self, database: TransactionDatabase) -> MiningResult:
        mining = self.fup_options.mining_options()
        if self.miner_name == "dhp":
            return DhpMiner(
                self.min_support, options=DhpOptions.from_mining(mining)
            ).mine(database)
        return AprioriMiner(self.min_support, options=mining).mine(database)

    # ------------------------------------------------------------------ #
    # Applying updates
    # ------------------------------------------------------------------ #
    def validate_batch(self, batch: UpdateBatch) -> None:
        """Refuse *batch* up front if it cannot be applied to the current state.

        FUP2 subtracts the deletion batch's counts from the maintained
        supports, assuming every listed transaction actually exists; deleting
        a phantom row would silently corrupt the supports (and desynchronise
        the recorded database size).  The check runs in O(d) against the
        database's delta-maintained transaction multiset — never a
        full-database rebuild — so a k-batch deletion session costs O(Σ dᵢ),
        not k·O(|DB|).  The durable session runs this *before* journaling a
        batch, so a crash can never leave an unapplyable record in the
        journal.
        """
        if not batch.deletions:
            return
        missing = self.database.missing_transactions(batch.deletions)
        if missing:
            raise StaleStateError(
                f"deletion batch {batch.label or '?'!r} lists "
                f"{sum(missing.values())} transaction(s) not present in the "
                f"maintained database (e.g. {next(iter(missing))!r}); "
                f"deletions must name existing transactions"
            )

    def apply(self, batch: UpdateBatch) -> MaintenanceReport:
        """Apply one update batch and return a report of what changed.

        Every non-empty batch is first routed through the configured
        :class:`~repro.core.policy.MaintenancePolicy` planner, which may
        trim insertions and synthesise evictions (handled as deletions by
        FUP2).  Insert-only batches use FUP; batches with deletions use the
        FUP2-style updater.
        Empty batches short-circuit to a no-op report *before* planning:
        the unchanged lattice is not re-derived into rules, nothing is
        recorded in the update log (so durable-session journals stay free
        of empty records), no policy clock advances, and :attr:`sequence`
        does not advance.
        """
        database = self.database
        previous = self.result

        if batch.is_empty:
            return MaintenanceReport(
                batch_label=batch.label,
                algorithm="noop",
                inserted_transactions=0,
                deleted_transactions=0,
                database_size=len(database),
                result=previous,
                policy=self.policy.describe(),
            )

        plan = self.policy.plan(batch, database)
        effective = plan.batch

        previous_rules = list(self._rules)
        previous_itemsets = set(previous.lattice.itemsets())

        if effective.deletions:
            self.validate_batch(effective)
            new_result = self._fup2_updater.update(
                database,
                previous,
                effective.insertions_database(),
                effective.deletions_database(),
            )
            algorithm = new_result.algorithm
        else:
            increment = effective.insertions_database()
            if self._should_remine(increment):
                updated = database.concatenate(increment)
                new_result = self._full_mine(updated)
                algorithm = f"remine-{self.miner_name}"
            else:
                new_result = self._fup_updater.update(database, previous, increment)
                algorithm = new_result.algorithm

        # Mutate the maintained database only after the updater succeeded, so a
        # failed update leaves the maintainer consistent.  The strict removal
        # re-validates and removes in one pass (raising with the database
        # untouched if it somehow disagrees with the pre-check above).
        if effective.deletions:
            database.remove_batch(effective.deletions, strict=True)
        if effective.insertions:
            database.extend(effective.insertions)
        self._result = new_result
        self._rules = self.policy.bound_rules(
            generate_rules(new_result.lattice, self.min_confidence)
        )
        self.update_log.record(effective)
        self.policy.commit(plan)
        self.sequence += 1

        new_itemsets = set(new_result.lattice.itemsets())
        rules_diff = diff_rules(previous_rules, self._rules)
        report = MaintenanceReport(
            batch_label=batch.label,
            algorithm=algorithm,
            inserted_transactions=len(effective.insertions),
            deleted_transactions=len(effective.deletions),
            database_size=len(database),
            itemsets_added=sorted(new_itemsets - previous_itemsets),
            itemsets_removed=sorted(previous_itemsets - new_itemsets),
            rules_added=rules_diff.added,
            rules_removed=rules_diff.removed,
            rules_updated=rules_diff.updated,
            result=new_result,
            policy=self.policy.describe(),
            evicted_transactions=plan.evicted,
            trimmed_insertions=plan.trimmed_insertions,
        )
        self._publish()
        return report

    def add_transactions(
        self, transactions: Iterable[Iterable[Item]], label: str = ""
    ) -> MaintenanceReport:
        """Convenience wrapper: apply an insert-only batch."""
        return self.apply(UpdateBatch.from_iterables(insertions=transactions, label=label))

    def remove_transactions(
        self, transactions: Iterable[Iterable[Item]], label: str = ""
    ) -> MaintenanceReport:
        """Convenience wrapper: apply a delete-only batch."""
        return self.apply(UpdateBatch.from_iterables(deletions=transactions, label=label))

    # ------------------------------------------------------------------ #
    def _should_remine(self, increment: TransactionDatabase) -> bool:
        if self.remine_increment_factor is None:
            return False
        database_size = len(self.database)
        if database_size == 0:
            return True
        return len(increment) > self.remine_increment_factor * database_size
