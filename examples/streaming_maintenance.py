#!/usr/bin/env python3
"""Streaming maintenance: nightly increments over a month of activity.

The paper argues that mined rules only become stable when "a large volume of
data [is] collected over a substantial period of time", which means the
database — and the rules — must be maintained as new data keeps arriving.
This example simulates a month of nightly batch loads: each night a new chunk
of transactions lands and the RuleMaintainer brings the rule set up to date
with FUP.  At the end it verifies the maintained state against a from-scratch
mine of the whole month and compares the cumulative cost of the two policies.

Run it with::

    python examples/streaming_maintenance.py
"""

from __future__ import annotations

import time

from repro import (
    AprioriMiner,
    RuleMaintainer,
    SyntheticConfig,
    SyntheticDataGenerator,
)
from repro.harness.reporting import format_table

MIN_SUPPORT = 0.02
MIN_CONFIDENCE = 0.5
DAYS = 10


def main() -> None:
    # One generation run supplies the initial month plus every nightly load,
    # so the whole stream follows one statistical pattern (as in the paper).
    config = SyntheticConfig(
        database_size=4_000,
        increment_size=2_000,
        mean_transaction_size=8,
        mean_pattern_size=3,
        pattern_count=250,
        item_count=250,
        seed=314,
    )
    original, stream = SyntheticDataGenerator(config).generate()
    nightly = max(1, len(stream) // DAYS)

    maintainer = RuleMaintainer(MIN_SUPPORT, MIN_CONFIDENCE)
    began = time.perf_counter()
    maintainer.initialise(original)
    initial_seconds = time.perf_counter() - began
    print(
        f"initial mine of {len(original)} transactions: "
        f"{len(maintainer.large_itemsets)} large itemsets, "
        f"{len(maintainer.rules)} rules in {initial_seconds:.2f}s"
    )

    rows = []
    incremental_seconds = 0.0
    naive_seconds = 0.0
    grown = original.copy()
    for day in range(DAYS):
        start = day * nightly
        stop = start + nightly if day < DAYS - 1 else len(stream)
        batch = [list(t) for t in stream.transactions()[start:stop]]

        began = time.perf_counter()
        report = maintainer.add_transactions(batch, label=f"night-{day + 1:02d}")
        fup_seconds = time.perf_counter() - began
        incremental_seconds += fup_seconds

        # The policy the paper compares against: re-mine everything nightly.
        grown.extend(batch)
        began = time.perf_counter()
        AprioriMiner(MIN_SUPPORT).mine(grown)
        naive_seconds += time.perf_counter() - began

        rows.append(
            {
                "night": report.batch_label,
                "loaded": report.inserted_transactions,
                "db_size": report.database_size,
                "fup_seconds": fup_seconds,
                "rules": len(maintainer.rules),
                "rules_added": len(report.rules_added),
                "rules_removed": len(report.rules_removed),
            }
        )

    print()
    print(format_table(rows, title="nightly maintenance log"))

    # Verify the maintained state is exactly what a from-scratch mine finds.
    final = AprioriMiner(MIN_SUPPORT).mine(original.concatenate(stream))
    assert maintainer.result.lattice.supports() == final.lattice.supports()

    print()
    print(f"cumulative maintenance cost with FUP:        {incremental_seconds:.2f}s")
    print(f"cumulative cost of re-mining every night:    {naive_seconds:.2f}s")
    print(f"saving from incremental maintenance:         {naive_seconds / max(incremental_seconds, 1e-9):.1f}x")


if __name__ == "__main__":
    main()
