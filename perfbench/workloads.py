"""The benchmark's workloads: what each feeds the maintenance loop.

Why each one exists is stated in ``BENCHMARK.json`` and README.md.

A run is a whole number of checkpoint cycles: the program's default
checkpoint interval of 16 micro-batches, which every run keeps.  Half-way
through each cycle, with 8 batches journaled, the feed refreshes and the
server answers a burst of queries; every refresh therefore replays the same
journal length, and the median of the refreshes rests on like samples.
After the last cycle, 4 more batches stay journaled for the final recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The program's default checkpoint interval, which every run keeps.
CHECKPOINT_INTERVAL = 16
#: Seconds one cycle takes on the reference host: a run plays
#: ``round(seconds / CYCLE_SECONDS)`` cycles (at least one), so a given
#: ``--seconds`` is the same work on every commit.
CYCLE_SECONDS = 2.5
#: Journaled batches when the feed refreshes (batch count modulo the cycle).
REFRESH_AT = 8
#: Batches left journaled (applied, not checkpointed) when the stream ends.
#: Recovery is also sampled whenever this many batches are journaled, on a
#: copy of the live session, so its samples spread over the whole run.
TAIL_BATCHES = 4
#: An extra set-up is timed whenever the batch count modulo SETUP_PERIOD is
#: SETUP_OFFSET, beside the one before the loop, for the same reason.
SETUP_PERIOD = 32
SETUP_OFFSET = 12
#: Events per micro-batch: the batcher's count watermark.
BATCH_EVENTS = 200
#: Redelivered (duplicate-key) events in each batch: 3 %.
DUPLICATES = 6
#: Closed-loop ``GET /recommend`` queries after each feed refresh.
QUERIES_PER_REFRESH = 200
#: Distinct query baskets; 200 draws from 40 baskets repeat most of them, so
#: the response cache serves the repeats until the next publication.
BASKET_POOL = 40
#: Recommendations asked per query.
QUERY_K = 5


@dataclass(frozen=True)
class Workload:
    name: str
    #: Seed of the fixed pattern pool (the data's shape, not the sample).
    pattern_seed: int
    items: int
    patterns: int
    mean_size: float
    mean_pattern: float
    initial_rows: int
    #: Deletions of rows present before the batch, per batch.
    deletes: int
    #: ``window:W`` policy when set; unbounded otherwise.
    window: int | None
    min_support: float
    min_confidence: float


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="insert-large",
            pattern_seed=1001,
            items=1000,
            patterns=2000,
            mean_size=10.0,
            mean_pattern=4.0,
            initial_rows=40_000,
            deletes=0,
            window=None,
            min_support=0.015,
            min_confidence=0.3,
        ),
        Workload(
            name="window-churn",
            pattern_seed=2002,
            items=1000,
            patterns=2000,
            mean_size=10.0,
            mean_pattern=4.0,
            initial_rows=10_000,
            deletes=30,
            window=10_000,
            min_support=0.02,
            min_confidence=0.2,
        ),
        Workload(
            name="dense-rules",
            pattern_seed=3003,
            items=60,
            patterns=1000,
            mean_size=5.0,
            mean_pattern=3.0,
            initial_rows=20_000,
            deletes=0,
            window=None,
            min_support=0.008,
            min_confidence=0.45,
        ),
    )
}
