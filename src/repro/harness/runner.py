"""Experiment runner: the update-vs-re-mine comparisons the paper reports.

Every evaluation in the paper follows the same template: mine the original
database once (that state is a given — it exists before the update arrives),
then, when the increment shows up, either

* run **FUP** with the saved state (the paper's proposal), or
* re-run **Apriori** / **DHP** from scratch on the updated database
  (the baselines).

:func:`compare_update_strategies` performs exactly that template and returns
the timings and candidate counts of all three strategies;
:func:`measure_fup_overhead` implements the Section 4.5 overhead metric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from ..ingest.readers import IngestEvent

from ..core.fup import FupUpdater
from ..core.options import FupOptions
from ..core.session import DEFAULT_CHECKPOINT_INTERVAL, MANIFEST_NAME, MaintenanceSession
from ..db.transaction_db import TransactionDatabase
from ..db.update import UpdateBatch
from ..errors import ExperimentError
from ..mining.apriori import AprioriMiner
from ..mining.backends import MiningOptions
from ..mining.dhp import DhpMiner, DhpOptions
from ..mining.result import MiningResult
from .metrics import ComparisonRecord, QueryThroughputRecord, RunRecord, speedup

__all__ = [
    "run_miner",
    "run_fup_update",
    "UpdateComparison",
    "compare_update_strategies",
    "OverheadRecord",
    "measure_fup_overhead",
    "measure_query_throughput",
    "ExperimentRunner",
    "SessionBatchRecord",
    "run_durable_session",
    "IngestThroughputRecord",
    "measure_ingest_throughput",
]


def _dhp_options(mining: MiningOptions | None) -> DhpOptions | None:
    """Project a MiningOptions engine selection onto DhpOptions (None-safe)."""
    return DhpOptions.from_mining(mining) if mining is not None else None


def run_miner(
    algorithm: str,
    database: TransactionDatabase,
    min_support: float,
    mining: MiningOptions | None = None,
) -> MiningResult:
    """Run one of the from-scratch miners (``"apriori"`` or ``"dhp"``).

    *mining* selects the counting engine (default: horizontal hash-tree).
    """
    if algorithm == "apriori":
        return AprioriMiner(min_support, options=mining).mine(database)
    if algorithm == "dhp":
        return DhpMiner(min_support, options=_dhp_options(mining)).mine(database)
    raise ExperimentError(f"unknown miner {algorithm!r}; expected 'apriori' or 'dhp'")


def run_fup_update(
    original: TransactionDatabase,
    previous: MiningResult,
    increment: TransactionDatabase,
    min_support: float,
    options: FupOptions | None = None,
) -> MiningResult:
    """Run the FUP update step (the previous mining result is reused, not re-timed)."""
    return FupUpdater(min_support, options=options).update(
        original, previous, increment
    )


@dataclass(frozen=True)
class UpdateComparison:
    """Timings of FUP vs. re-running the baselines on one update instance."""

    workload: str
    min_support: float
    fup: MiningResult
    apriori: MiningResult
    dhp: MiningResult
    initial: MiningResult

    @property
    def against_apriori(self) -> ComparisonRecord:
        """FUP compared with re-running Apriori on the updated database."""
        return ComparisonRecord(
            workload=self.workload,
            min_support=self.min_support,
            baseline="apriori",
            baseline_seconds=self.apriori.elapsed_seconds,
            fup_seconds=self.fup.elapsed_seconds,
            baseline_candidates=self.apriori.candidates_generated,
            fup_candidates=self.fup.candidates_generated,
        )

    @property
    def against_dhp(self) -> ComparisonRecord:
        """FUP compared with re-running DHP on the updated database."""
        return ComparisonRecord(
            workload=self.workload,
            min_support=self.min_support,
            baseline="dhp",
            baseline_seconds=self.dhp.elapsed_seconds,
            fup_seconds=self.fup.elapsed_seconds,
            baseline_candidates=self.dhp.candidates_generated,
            fup_candidates=self.fup.candidates_generated,
        )

    def consistent(self) -> bool:
        """True when all three strategies found the same large itemsets."""
        return (
            self.fup.lattice.supports() == self.apriori.lattice.supports()
            and self.apriori.lattice.supports() == self.dhp.lattice.supports()
        )


def compare_update_strategies(
    original: TransactionDatabase,
    increment: TransactionDatabase,
    min_support: float,
    workload: str = "",
    options: FupOptions | None = None,
    initial: MiningResult | None = None,
    mining: MiningOptions | None = None,
) -> UpdateComparison:
    """Run the paper's comparison template on one update instance.

    Parameters
    ----------
    original, increment:
        The original database ``DB`` and the increment ``db``.
    min_support:
        The (unchanged) minimum support threshold.
    workload:
        Label used in the records.
    options:
        FUP feature switches.
    mining:
        Counting-engine configuration applied to every strategy (when
        *options* is given it wins for the FUP leg).
    initial:
        The mining result of the original database, if already available;
        when omitted it is mined here with Apriori (its time is *not* part of
        the comparison — the paper treats the old large itemsets as given).
    """
    if initial is None:
        initial = AprioriMiner(min_support, options=mining).mine(original)
    updated = original.concatenate(increment)
    if options is None and mining is not None:
        options = FupOptions.from_mining(mining)
    fup_result = run_fup_update(original, initial, increment, min_support, options=options)
    apriori_result = AprioriMiner(min_support, options=mining).mine(updated)
    dhp_result = DhpMiner(min_support, options=_dhp_options(mining)).mine(updated)
    return UpdateComparison(
        workload=workload or original.name or "workload",
        min_support=min_support,
        fup=fup_result,
        apriori=apriori_result,
        dhp=dhp_result,
        initial=initial,
    )


@dataclass(frozen=True)
class OverheadRecord:
    """The Section 4.5 overhead measurement for one update instance.

    The overhead of maintaining (rather than mining once at the end) is
    ``[t(mine DB) + t(FUP update)] − t(mine DB ∪ db)`` expressed as a fraction
    of ``t(mine DB ∪ db)``.
    """

    workload: str
    min_support: float
    mine_original_seconds: float
    fup_update_seconds: float
    mine_updated_seconds: float

    @property
    def overhead_seconds(self) -> float:
        """Absolute overhead of the maintain-then-update path."""
        return self.mine_original_seconds + self.fup_update_seconds - self.mine_updated_seconds

    @property
    def overhead_fraction(self) -> float:
        """Overhead relative to mining the updated database once."""
        if self.mine_updated_seconds <= 0:
            return 0.0
        return self.overhead_seconds / self.mine_updated_seconds

    def as_dict(self) -> dict[str, float | str]:
        """Flat dictionary form used by the report renderer."""
        return {
            "workload": self.workload,
            "min_support": self.min_support,
            "mine_original_s": round(self.mine_original_seconds, 6),
            "fup_update_s": round(self.fup_update_seconds, 6),
            "mine_updated_s": round(self.mine_updated_seconds, 6),
            "overhead_fraction": round(self.overhead_fraction, 4),
        }


def measure_fup_overhead(
    original: TransactionDatabase,
    increment: TransactionDatabase,
    min_support: float,
    workload: str = "",
    miner: str = "apriori",
    options: FupOptions | None = None,
) -> OverheadRecord:
    """Measure the Section 4.5 overhead of FUP for one update instance."""
    initial = run_miner(miner, original, min_support)
    fup_result = run_fup_update(original, initial, increment, min_support, options=options)
    updated = original.concatenate(increment)
    remined = run_miner(miner, updated, min_support)
    return OverheadRecord(
        workload=workload or original.name or "workload",
        min_support=min_support,
        mine_original_seconds=initial.elapsed_seconds,
        fup_update_seconds=fup_result.elapsed_seconds,
        mine_updated_seconds=remined.elapsed_seconds,
    )


def measure_query_throughput(
    snapshot,
    baskets: Iterable[Iterable[int]],
    *,
    mode: str = "indexed",
    repeat: int = 1,
    workload: str = "",
) -> QueryThroughputRecord:
    """Measure basket-query throughput of a serving snapshot.

    Runs every basket through the snapshot's basket-matching path *repeat*
    times and times the whole sweep once (per-query timing at these rates
    would measure the clock, not the query).  ``mode`` selects the measured
    path: ``"indexed"`` (:meth:`~repro.serve.snapshot.RuleSnapshot.rules_for_basket`)
    or ``"linear"``
    (:meth:`~repro.serve.snapshot.RuleSnapshot.rules_for_basket_linear`).
    The returned record carries the total match count, so two modes measured
    on the same snapshot and baskets can be asserted to have done identical
    work.
    """
    if mode == "indexed":
        query = snapshot.rules_for_basket
    elif mode == "linear":
        query = snapshot.rules_for_basket_linear
    else:
        raise ExperimentError(f"unknown query mode {mode!r}; expected 'indexed' or 'linear'")
    if repeat < 1:
        raise ExperimentError(f"repeat must be positive, got {repeat}")
    prepared = [frozenset(basket) for basket in baskets]
    matches = 0
    queries = 0
    began = time.perf_counter()
    for _ in range(repeat):
        for basket in prepared:
            matches += len(query(basket))
            queries += 1
    seconds = time.perf_counter() - began
    return QueryThroughputRecord(
        workload=workload or "workload",
        mode=mode,
        snapshot_version=snapshot.version,
        rules=snapshot.rule_count,
        queries=queries,
        seconds=seconds,
        matches=matches,
    )


@dataclass(frozen=True)
class SessionBatchRecord:
    """Per-batch outcome of a durable-session run (one table row)."""

    seq: int
    label: str
    algorithm: str
    seconds: float
    database_size: int
    itemsets: int
    rules: int

    def as_dict(self) -> dict[str, object]:
        """Flat dictionary form used by the report renderer."""
        return {
            "seq": self.seq,
            "label": self.label,
            "algorithm": self.algorithm,
            "seconds": round(self.seconds, 6),
            "database_size": self.database_size,
            "itemsets": self.itemsets,
            "rules": self.rules,
        }


def run_durable_session(
    directory: str | Path,
    batches: Iterable[UpdateBatch],
    *,
    database: TransactionDatabase | None = None,
    min_support: float | None = None,
    min_confidence: float = 0.5,
    miner: str = "apriori",
    options: FupOptions | None = None,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
) -> list[SessionBatchRecord]:
    """Create-or-resume a durable session at *directory* and apply *batches*.

    When *directory* holds no session yet, *database* and *min_support* must
    be given and are mined into a fresh session; when it does, the session is
    reopened (recovering any interrupted run by strict journal replay) and
    those arguments are ignored.  This is the harness entry point the
    streaming examples and the CI smoke job drive: each call is one process
    lifetime, so calling it repeatedly against the same directory exercises
    exactly the crash/resume path a production deployment relies on.
    """
    directory = Path(directory)
    if (directory / MANIFEST_NAME).exists():
        # A corrupted session raises its real diagnosis here instead of being
        # masked by a doomed create attempt.
        session = MaintenanceSession.open(directory)
    else:
        if database is None or min_support is None:
            raise ExperimentError(
                f"{directory} holds no session; pass database= and min_support= "
                f"to create one"
            )
        session = MaintenanceSession.create(
            directory,
            database,
            min_support=min_support,
            min_confidence=min_confidence,
            miner=miner,  # type: ignore[arg-type]
            fup_options=options,
            checkpoint_interval=checkpoint_interval,
        )
    records: list[SessionBatchRecord] = []
    with session:
        for batch in batches:
            began = time.perf_counter()
            report = session.apply(batch)
            seconds = time.perf_counter() - began
            records.append(
                SessionBatchRecord(
                    seq=session.applied_seq,
                    label=report.batch_label,
                    algorithm=report.algorithm,
                    seconds=seconds,
                    database_size=report.database_size,
                    itemsets=len(session.result.lattice),
                    rules=len(session.rules),
                )
            )
    return records


@dataclass(frozen=True)
class IngestThroughputRecord:
    """Outcome of pushing one event stream through the intake pipeline."""

    events: int
    applied: int
    duplicates: int
    batches: int
    seconds: float
    events_per_second: float
    database_size: int
    itemsets: int

    def as_dict(self) -> dict[str, object]:
        """Flat dictionary form used by the report renderer."""
        return {
            "events": self.events,
            "applied": self.applied,
            "duplicates": self.duplicates,
            "batches": self.batches,
            "seconds": round(self.seconds, 6),
            "events_per_second": round(self.events_per_second, 2),
            "database_size": self.database_size,
            "itemsets": self.itemsets,
        }


def measure_ingest_throughput(
    directory: str | Path,
    events: Iterable["IngestEvent"],
    *,
    database: TransactionDatabase | None = None,
    min_support: float | None = None,
    min_confidence: float = 0.5,
    options: FupOptions | None = None,
    batch_events: int = 500,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
) -> IngestThroughputRecord:
    """Create-or-resume a session at *directory* and ingest *events* through it.

    Wraps the full intake path — micro-batching, ledger dedup, journaled
    apply — so the measured rate is the end-to-end events-per-second a
    producer sees, not just the counting cost.  Like
    :func:`run_durable_session`, a fresh directory needs *database* and
    *min_support*; an existing session is resumed (with its ledger, so
    redelivered streams dedup across calls).
    """
    from ..ingest import MicroBatcher, TransactionIntake

    directory = Path(directory)
    if (directory / MANIFEST_NAME).exists():
        session = MaintenanceSession.open(directory)
    else:
        if database is None or min_support is None:
            raise ExperimentError(
                f"{directory} holds no session; pass database= and min_support= "
                f"to create one"
            )
        session = MaintenanceSession.create(
            directory,
            database,
            min_support=min_support,
            min_confidence=min_confidence,
            fup_options=options,
            checkpoint_interval=checkpoint_interval,
        )
    with session:
        intake = TransactionIntake(session)
        batcher = MicroBatcher(max_events=batch_events)
        total = applied = duplicates = batches = 0
        began = time.perf_counter()
        for event in events:
            for cut in batcher.offer(event):
                report = intake.submit(cut)
                total += report.events
                applied += report.applied
                duplicates += report.duplicates
                batches += 1
        tail = batcher.flush()
        if tail:
            report = intake.submit(tail)
            total += report.events
            applied += report.applied
            duplicates += report.duplicates
            batches += 1
        seconds = time.perf_counter() - began
        return IngestThroughputRecord(
            events=total,
            applied=applied,
            duplicates=duplicates,
            batches=batches,
            seconds=seconds,
            events_per_second=(total / seconds) if seconds > 0 else 0.0,
            database_size=len(session.database),
            itemsets=len(session.result.lattice),
        )


class ExperimentRunner:
    """Convenience object bundling a workload with the comparison helpers.

    Keeps the initial mining result cached so a support-level sweep over the
    same workload does not re-mine the original database more than once per
    support value, mirroring how the paper's experiments are set up.
    """

    def __init__(
        self,
        original: TransactionDatabase,
        increment: TransactionDatabase,
        workload: str = "",
        options: FupOptions | None = None,
        mining: MiningOptions | None = None,
    ) -> None:
        self.original = original
        self.increment = increment
        self.workload = workload or original.name or "workload"
        self.options = options
        self.mining = mining
        self._initial_cache: dict[float, MiningResult] = {}

    def initial_result(self, min_support: float) -> MiningResult:
        """Mining result of the original database at *min_support* (cached).

        Runs on the configured counting engine; with an index-caching engine
        the original database's vertical index is built here once and then
        reused by every comparison of the sweep (the database object is
        shared, and its index survives — it is maintained, not rebuilt).
        """
        if min_support not in self._initial_cache:
            self._initial_cache[min_support] = AprioriMiner(
                min_support, options=self.mining
            ).mine(self.original)
        return self._initial_cache[min_support]

    def compare(self, min_support: float) -> UpdateComparison:
        """Run the three-way comparison at one support level."""
        return compare_update_strategies(
            self.original,
            self.increment,
            min_support,
            workload=self.workload,
            options=self.options,
            initial=self.initial_result(min_support),
            mining=self.mining,
        )

    def sweep(self, supports: list[float]) -> list[UpdateComparison]:
        """Run the comparison across a list of support levels (Figure 2 / 3 sweeps)."""
        return [self.compare(min_support) for min_support in supports]

    def run_records(self, min_support: float) -> list[RunRecord]:
        """Per-algorithm run records at one support level."""
        comparison = self.compare(min_support)
        return [
            RunRecord.from_result(self.workload, comparison.fup),
            RunRecord.from_result(self.workload, comparison.apriori),
            RunRecord.from_result(self.workload, comparison.dhp),
        ]
