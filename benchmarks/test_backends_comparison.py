"""Counting-backend comparison on the Figure-2 workload.

Every algorithm in the library funnels through one hot path — the support
count of a candidate pool over a transaction database — so this benchmark
races the two counting engines on exactly that path, using the same
``T10.I4.D100.d1`` workload as the paper's Figure 2:

* the **counting phase**: support-count the full ``C_2`` candidate pool (the
  counting-dominated step that dominates Apriori/DHP/FUP runtime), and
* **end-to-end mining**: a complete Apriori run per engine, asserting that
  all engines produce identical large itemsets.

The vertical TID-set engine is expected to beat the horizontal hash-tree
scan by a wide margin on the counting phase; at the default benchmark scale
(or larger) that expectation is asserted (>= 1.5x).  At smaller smoke-test
scales the timings are recorded but not asserted — tiny databases measure
constant overheads, not scan costs.

When the environment variable ``REPRO_BENCH_ARTIFACT`` is set, the measured
timings are written to ``BENCH_backends.json`` at the repo root (or to the
path the variable names) so CI can upload them and future PRs have a perf
trajectory to compare against.  Plain local test runs leave the committed
baseline untouched.
"""

from __future__ import annotations

import time

import pytest

from repro import AprioriMiner, MiningOptions, make_backend
from repro.mining.backends import BACKEND_NAMES
from repro.mining.candidates import apriori_gen
from repro.mining.result import required_support_count

from .conftest import (
    BENCH_SCALE,
    print_report,
    timing_asserts_enabled,
    update_bench_artifact,
)

#: Support level of the counting race — low enough that C_2 is a real pool.
COUNT_SUPPORT = 0.01
#: Minimum speed-up of the vertical engine over the horizontal hash-tree
#: scan on the counting-dominated phase.
MIN_VERTICAL_SPEEDUP = 1.5


def _level2_candidates(database) -> list[tuple[int, ...]]:
    """The full C_2 pool of *database* at ``COUNT_SUPPORT`` (paper's level 2)."""
    threshold = required_support_count(COUNT_SUPPORT, len(database))
    item_counts = database.item_counts()
    level_one = {(item,) for item, count in item_counts.items() if count >= threshold}
    return sorted(apriori_gen(level_one))


def _best_of(repeats: int, run) -> float:
    """Best-of-N wall time of *run* (minimum filters scheduler noise).

    Runs lasting over a second are measured once — at that duration the
    quantity of interest (an order-of-magnitude engine gap) dwarfs timer
    noise, and repeating them would dominate the suite's wall time.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
        if best > 1.0:
            break
    return best


@pytest.mark.benchmark(group="backends")
def test_backend_comparison(benchmark, figure2_workload):
    """Race the engines on the C_2 counting phase and on end-to-end mining."""
    database = figure2_workload.original
    candidates = _level2_candidates(database)
    assert candidates, "the workload must produce a non-trivial C_2 pool"

    def run_comparison() -> dict:
        counting: dict[str, float] = {}
        reference_counts = None
        for name in BACKEND_NAMES:
            engine = make_backend(name)
            if name == "vertical":
                database.vertical()  # prime the cached index: built once per
                # database and amortised over every scan, it is not part of
                # the per-scan counting cost being raced here.
            counts = engine.count_candidates(database, candidates)
            if reference_counts is None:
                reference_counts = counts
            assert counts == reference_counts, f"{name} disagrees with the reference"
            counting[name] = _best_of(
                3, lambda engine=engine: engine.count_candidates(database, candidates)
            )

        mining: dict[str, float] = {}
        reference_supports = None
        for name in BACKEND_NAMES:
            miner = AprioriMiner(COUNT_SUPPORT, options=MiningOptions(backend=name))
            start = time.perf_counter()
            result = miner.mine(database)
            mining[name] = time.perf_counter() - start
            supports = result.lattice.supports()
            if reference_supports is None:
                reference_supports = supports
            assert supports == reference_supports, f"{name} mined different itemsets"
        return {"counting": counting, "mining": mining}

    timings = benchmark.pedantic(run_comparison, rounds=1)
    counting = timings["counting"]
    speedup = counting["horizontal"] / max(counting["vertical"], 1e-9)

    # Merged (not overwritten) at the top level: the snapshot-open benchmark
    # in test_snapshot_open.py contributes a sibling section to the same
    # document.
    update_bench_artifact(
        "BENCH_backends.json",
        "backends_comparison",
        None,
        {
            "workload": figure2_workload.name,
            "scale": BENCH_SCALE,
            "transactions": len(database),
            "min_support": COUNT_SUPPORT,
            "candidates_level2": len(candidates),
            "counting_seconds": {
                name: round(value, 6) for name, value in counting.items()
            },
            "mining_seconds": {
                name: round(value, 6) for name, value in timings["mining"].items()
            },
            "vertical_speedup_vs_horizontal": round(speedup, 3),
        },
    )

    print_report(
        f"counting backends on {figure2_workload.name} "
        f"(|C2| = {len(candidates)}, D = {len(database)})",
        [
            {
                "backend": name,
                "count_C2_s": round(counting[name], 5),
                "mine_s": round(timings["mining"][name], 5),
            }
            for name in BACKEND_NAMES
        ],
    )

    if timing_asserts_enabled():
        assert speedup >= MIN_VERTICAL_SPEEDUP, (
            f"vertical engine only {speedup:.2f}x faster than the horizontal "
            f"hash-tree scan on the counting phase (need {MIN_VERTICAL_SPEEDUP}x)"
        )
