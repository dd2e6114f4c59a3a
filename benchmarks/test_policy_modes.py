"""Policy-mode benchmark: sliding window vs unbounded.

The same insert stream is driven through an unbounded maintainer and a
sliding-window maintainer whose window equals the original database size.
The window twin pays FUP2 deletion work for every batch's evictions; the
benchmark records both costs and asserts the pinned invariant (window
lattice ≡ re-mining the window from scratch) so the numbers describe
identical-by-construction maintenance.

When ``REPRO_BENCH_ARTIFACT`` is set the measurement lands in the
``policy_modes`` section of ``BENCH_maintenance.json``.
"""

from __future__ import annotations

import time

import pytest

from repro import (
    AprioriMiner,
    RuleMaintainer,
    SlidingWindowPolicy,
    TransactionDatabase,
    UpdateBatch,
)

from .conftest import (
    build_workload,
    print_report,
    update_bench_artifact,
)

BATCHES = 6
POLICY_SUPPORT = 0.02
POLICY_CONFIDENCE = 0.5


def _insert_batches(increment, batches: int):
    rows = increment.transactions()
    size = max(1, len(rows) // batches)
    return [
        rows[index * size : (index + 1) * size if index < batches - 1 else len(rows)]
        for index in range(batches)
    ]


@pytest.mark.benchmark(group="maintenance")
def test_window_policy_vs_unbounded(benchmark):
    """Identical insert stream; the window twin also pays for its evictions."""
    workload = build_workload("T10.I4.D100.d10", seed=73)
    inserts = _insert_batches(workload.increment, BATCHES)
    window = len(workload.original)

    def run_both() -> dict:
        timings: dict[str, float] = {}
        maintainers = {
            "unbounded": RuleMaintainer(POLICY_SUPPORT, POLICY_CONFIDENCE),
            "window": RuleMaintainer(
                POLICY_SUPPORT, POLICY_CONFIDENCE, policy=SlidingWindowPolicy(window)
            ),
        }
        evicted = 0
        for mode, maintainer in maintainers.items():
            maintainer.initialise(workload.original)
            start = time.perf_counter()
            for index, rows in enumerate(inserts):
                report = maintainer.apply(
                    UpdateBatch.from_iterables(insertions=rows, label=f"batch-{index}")
                )
                if mode == "window":
                    evicted += report.evicted_transactions
            timings[mode] = time.perf_counter() - start
        return {"timings": timings, "maintainers": maintainers, "evicted": evicted}

    measured = benchmark.pedantic(run_both, rounds=1)
    windowed = measured["maintainers"]["window"]

    # The pinned invariant: the window twin's lattice is exactly what mining
    # the final window contents from scratch produces.
    assert len(windowed.database) == window
    remined = AprioriMiner(POLICY_SUPPORT).mine(
        TransactionDatabase(windowed.database.transactions())
    )
    assert windowed.result.lattice.supports() == remined.lattice.supports()

    timings = measured["timings"]
    payload = {
        "workload": workload.name,
        "batches": BATCHES,
        "window": window,
        "min_support": POLICY_SUPPORT,
        "evicted": measured["evicted"],
        "unbounded_s": round(timings["unbounded"], 6),
        "window_s": round(timings["window"], 6),
        "window_invariant_checked": True,
    }
    update_bench_artifact(
        "BENCH_maintenance.json", "maintenance_session", "policy_modes", {"window": payload}
    )
    print_report(
        f"window vs unbounded on {workload.name} ({BATCHES} batches, window {window})",
        [
            {"mode": mode, "seconds": round(seconds, 4)}
            for mode, seconds in timings.items()
        ],
    )
    assert measured["evicted"] == len(workload.increment)
