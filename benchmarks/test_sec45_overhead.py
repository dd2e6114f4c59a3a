"""E6 — Section 4.5: the overhead of maintaining instead of mining once.

The paper defines the overhead of FUP as

    [ t(mine DB) + t(FUP update) ] − t(mine DB ∪ db)

expressed as a fraction of ``t(mine DB ∪ db)`` — i.e. how much extra work the
"mine early, then maintain" path costs compared with waiting and mining the
final database once.  It reports an overhead of roughly 10-15% for increments
much smaller than the database, dropping to about 5% once the increment is
larger than the original database.

The quantity is a small difference of full-mine timings that swing by 2×
between identical runs on a shared host, so the series runs
:data:`REPEATS` times, interleaved, and the overhead is formed from each
leg's fastest time: a fixed cost under additive noise is best estimated by
its minimum.  ``t(mine DB)`` is the same mine at every increment size, so
its fastest time is taken over the whole series.
"""

from __future__ import annotations

import pytest

from repro.harness.runner import OverheadRecord, measure_fup_overhead

from .conftest import build_workload, print_report, timing_asserts_enabled

#: Increment sizes (relative to the database) probed for the overhead curve.
INCREMENT_FRACTIONS = [0.05, 0.25, 1.0, 2.0]
MIN_SUPPORT = 0.02
#: Interleaved repetitions of the whole series; each leg keeps its minimum.
REPEATS = 3


def fastest_legs(records: list[OverheadRecord], mine_original_seconds: float) -> OverheadRecord:
    """One record from the fastest FUP and re-mine legs of *records*.

    *mine_original_seconds* is the fastest ``t(mine DB)`` of the series.
    """
    return OverheadRecord(
        workload=records[0].workload,
        min_support=records[0].min_support,
        mine_original_seconds=mine_original_seconds,
        fup_update_seconds=min(r.fup_update_seconds for r in records),
        mine_updated_seconds=min(r.mine_updated_seconds for r in records),
    )


@pytest.mark.benchmark(group="section4.5")
def test_section45_overhead_of_fup(benchmark):
    """Reproduce the Section 4.5 overhead measurements."""
    base = build_workload("T10.I4.D100.d1")
    original = base.original
    database_size = len(original)
    pool = build_workload("T10.I4.D100.d200", seed=21).increment

    increments = {
        fraction: pool.slice(0, max(1, int(round(fraction * database_size))))
        for fraction in INCREMENT_FRACTIONS
    }

    def run_series():
        runs: dict[float, list[OverheadRecord]] = {f: [] for f in INCREMENT_FRACTIONS}
        for _ in range(REPEATS):  # rounds outermost: noise spreads over every point
            for fraction in INCREMENT_FRACTIONS:
                runs[fraction].append(
                    measure_fup_overhead(
                        original,
                        increments[fraction],
                        MIN_SUPPORT,
                        workload=f"{base.name}+{fraction:g}x",
                    )
                )
        mine_original = min(r.mine_original_seconds for rs in runs.values() for r in rs)
        return [
            (fraction, fastest_legs(runs[fraction], mine_original))
            for fraction in INCREMENT_FRACTIONS
        ]

    records = benchmark.pedantic(run_series, rounds=1, iterations=1)

    rows = []
    for fraction, record in records:
        rows.append(
            {
                "increment/DB": fraction,
                "mine_DB_s": record.mine_original_seconds,
                "fup_update_s": record.fup_update_seconds,
                "mine_updated_s": record.mine_updated_seconds,
                "overhead": f"{record.overhead_fraction:.1%}",
            }
        )
    print_report("Section 4.5 - overhead of the maintain-then-update path", rows)

    # Shape checks.  The paper's band for small increments is 10-15%; we check
    # that the small-increment overhead stays modest and that no point blows
    # past a generous envelope.  The paper's *decreasing* trend for very large
    # increments does not fully reproduce at bench scale (see EXPERIMENTS.md):
    # in pure Python the per-level scans of a multi-thousand-transaction
    # increment grow FUP's own cost faster than re-mining grows, so the trend
    # is only asserted loosely here and the measured curve is recorded instead.
    fractions = {fraction: record.overhead_fraction for fraction, record in records}
    if timing_asserts_enabled():
        assert fractions[INCREMENT_FRACTIONS[0]] < 0.25
        assert all(value < 0.6 for value in fractions.values())
