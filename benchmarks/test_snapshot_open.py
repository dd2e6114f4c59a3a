"""Snapshot-open latency: v1 record-stream parse vs v2 memory map.

Opening a v1 record-stream snapshot costs a full O(D) parse, while the v2
memory-mapped format opens in O(items) — a header read, an ``mmap``, and
one ``int.from_bytes`` per item to rebuild the vertical index's masks from
the lane section — and defers the transaction rows entirely.  Every session
recovery and every serving-feed refresh opens a checkpoint this way, which
is why the lane section stays in the format.

The workload is the Figure-2 database at **10× the suite scale** (the
default 0.01 suite scale measures D = 10 000 transactions), large enough
that the parse dominates the per-call constants.  Every artifact row stamps
``cpus`` and ``assertion_active``; the ≥5× floor is asserted only when
timing asserts are enabled.
"""

from __future__ import annotations

import pytest

from repro.db.store import load_database, open_snapshot, save_database, write_snapshot

from .check_regression import usable_cpus
from .conftest import build_workload, print_report, timing_asserts_enabled, update_bench_artifact
from .test_backends_comparison import _best_of

#: The benchmark runs this many times the suite's base scale.
SCALE_FACTOR = 10.0
#: Floor for the v2 mmap open vs the v1 full parse — the gap is architectural
#: (O(items) vs O(D)), so even a noisy machine clears this by a wide margin.
MIN_SNAPSHOT_OPEN_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def snapshot_workload():
    """The Figure-2 workload at snapshot-benchmark scale (built once)."""
    from .conftest import BENCH_SCALE

    return build_workload("T10.I4.D100.d1", scale=BENCH_SCALE * SCALE_FACTOR, seed=96)


@pytest.mark.benchmark(group="snapshots")
def test_snapshot_open_latency(benchmark, snapshot_workload, tmp_path):
    """v2 mmap open is O(items); v1 open pays the full record-stream parse."""
    database = snapshot_workload.original
    database.vertical()  # prime the index so v2 includes the lane section
    v1_path = tmp_path / "snapshot_v1.bin"
    v2_path = tmp_path / "snapshot_v2.bin"
    save_database(database, v1_path, binary=True)
    write_snapshot(database, v2_path, include_lanes=True)

    def measure() -> dict:
        return {
            "v1_parse_open_s": _best_of(3, lambda: load_database(v1_path, binary=True)),
            "v2_mmap_open_s": _best_of(5, lambda: open_snapshot(v2_path)),
        }

    timings = benchmark.pedantic(measure, rounds=1)

    # Correctness outside the timers: both formats reopen to the same
    # database, and the v2 open really is lazy until transactions are asked
    # for.
    reopened = open_snapshot(v2_path)
    assert not reopened.transactions_loaded
    assert dict(reopened.vertical()) == dict(database.vertical())
    assert reopened.transactions() == database.transactions()
    assert load_database(v1_path, binary=True).transactions() == database.transactions()

    speedup = timings["v1_parse_open_s"] / max(timings["v2_mmap_open_s"], 1e-9)
    payload = {
        "transactions": len(database),
        "v1_bytes": v1_path.stat().st_size,
        "v2_bytes": v2_path.stat().st_size,
        "cpus": usable_cpus(),
        "assertion_active": timing_asserts_enabled(),
        **{key: round(value, 6) for key, value in timings.items()},
        "speedup_v2_open_vs_v1": round(speedup, 3),
    }
    update_bench_artifact(
        "BENCH_backends.json", "backends_comparison", "snapshot_open", payload
    )

    print_report(
        f"snapshot open latency on {snapshot_workload.name} (D = {len(database)})",
        [
            {"format": key.removesuffix("_s"), "open_s": round(value, 6)}
            for key, value in timings.items()
        ],
    )

    if timing_asserts_enabled():
        assert speedup >= MIN_SNAPSHOT_OPEN_SPEEDUP, (
            f"v2 mmap open only {speedup:.2f}x faster than the v1 parse "
            f"(need {MIN_SNAPSHOT_OPEN_SPEEDUP}x — the gap is architectural)"
        )
