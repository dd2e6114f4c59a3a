"""Shared fixtures and helpers for the paper-reproduction benchmarks.

Every benchmark module regenerates one table or figure of the paper's
evaluation section (see DESIGN.md's per-experiment index and EXPERIMENTS.md
for the recorded results).  The workloads are scaled-down versions of the
paper's ``Tx.Iy.Dm.dn`` databases so that the whole suite runs in minutes of
pure-Python time; set the environment variable ``REPRO_BENCH_SCALE`` (for
example to ``1.0``) to run closer to the paper's sizes.

The benchmarks use ``benchmark.pedantic(..., rounds=1)`` because each "round"
is itself a full multi-algorithm experiment — the quantity of interest is the
*ratio between algorithms inside one run*, not nanosecond-level timing noise.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro import AprioriMiner, TransactionDatabase
from repro.datagen.workloads import scaled_paper_workload
from repro.harness.reporting import format_table
from repro.mining.result import MiningResult

#: Scale factor applied to the paper's transaction counts (paper: 1.0).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.01"))
#: Item-universe and pattern-pool sizes.  These stay at the paper's values
#: (N = 1000, |L| = 2000) even at reduced scale: the Quest model makes an
#: itemset's *relative* support roughly independent of the number of
#: transactions, so keeping the item density fixed and scaling only |D| and
#: |d| preserves the support-level behaviour of the paper's sweeps.
BENCH_ITEM_COUNT = int(os.environ.get("REPRO_BENCH_ITEMS", "1000"))
BENCH_PATTERN_COUNT = int(os.environ.get("REPRO_BENCH_PATTERNS", "2000"))

#: The support levels of Figures 2 and 3.
PAPER_SUPPORTS = [0.06, 0.04, 0.02, 0.01, 0.0075]

#: Scale at which timing/ratio assertions are meaningful.  Below this (the
#: CI smoke job runs at 0.002) the workloads are so small that constant
#: overheads dominate the scan costs the assertions are about, so the
#: benchmarks record their measurements but skip the asserts.
TIMING_ASSERT_SCALE = 0.01


def timing_asserts_enabled() -> bool:
    """True when the current scale is large enough to assert on timings."""
    return BENCH_SCALE >= TIMING_ASSERT_SCALE


@dataclass(frozen=True)
class BenchWorkload:
    """A generated workload plus its label, shared across benchmark modules."""

    name: str
    original: TransactionDatabase
    increment: TransactionDatabase

    @property
    def updated(self) -> TransactionDatabase:
        return self.original.concatenate(self.increment)


def build_workload(name: str, scale: float | None = None, seed: int | None = None) -> BenchWorkload:
    """Build a scaled paper workload for the benchmarks."""
    workload = scaled_paper_workload(
        name,
        scale=BENCH_SCALE if scale is None else scale,
        seed=seed,
        item_count=BENCH_ITEM_COUNT,
        pattern_count=BENCH_PATTERN_COUNT,
    )
    return BenchWorkload(
        name=workload.name, original=workload.original, increment=workload.increment
    )


@pytest.fixture(scope="session")
def figure2_workload() -> BenchWorkload:
    """The T10.I4.D100.d1 workload used by Figures 2 and 3."""
    return BenchWorkload(*_figure2_cached())


_FIGURE2_CACHE: list[tuple[str, TransactionDatabase, TransactionDatabase]] = []


def _figure2_cached() -> tuple[str, TransactionDatabase, TransactionDatabase]:
    if not _FIGURE2_CACHE:
        workload = build_workload("T10.I4.D100.d1")
        _FIGURE2_CACHE.append((workload.name, workload.original, workload.increment))
    return _FIGURE2_CACHE[0]


@pytest.fixture(scope="session")
def figure2_sweep(figure2_workload, initial_results_cache):
    """The Figure 2/3 support sweep, computed once and shared by both modules.

    Figures 2 and 3 of the paper are two views of the same experiment (times
    and candidate counts of one sweep), so the comparisons are computed once
    per session.
    """
    from repro.harness.runner import compare_update_strategies

    comparisons = []
    for min_support in PAPER_SUPPORTS:
        initial = initial_results_cache(figure2_workload.original, min_support)
        comparisons.append(
            compare_update_strategies(
                figure2_workload.original,
                figure2_workload.increment,
                min_support,
                workload=figure2_workload.name,
                initial=initial,
            )
        )
    return comparisons


def nontrivial(comparison) -> bool:
    """True when the updated database has enough large itemsets for the
    comparison to be meaningful.

    At the largest supports of the sweep the scaled-down workload has only a
    handful of large itemsets, so every strategy finishes in fractions of a
    millisecond and the time ratio is dominated by constant overheads rather
    than by the scan/candidate costs the paper's figures are about.  The
    paper's qualitative claims are therefore asserted only where the mining
    problem has real work in it.
    """
    return len(comparison.apriori.lattice) >= 25


@pytest.fixture(scope="session")
def initial_results_cache():
    """Session cache of AprioriMiner results keyed by (workload id, support)."""
    cache: dict[tuple[int, float], MiningResult] = {}

    def get(original: TransactionDatabase, min_support: float) -> MiningResult:
        key = (id(original), min_support)
        if key not in cache:
            cache[key] = AprioriMiner(min_support).mine(original)
        return cache[key]

    return get


def print_report(title: str, rows: list[dict[str, object]], columns: list[str] | None = None) -> None:
    """Print a benchmark report table (captured by pytest, shown with ``-s``)."""
    print()
    print(format_table(rows, columns=columns, title=title))


def bench_artifact_path(filename: str) -> "Path | None":
    """Where the named ``BENCH_*.json`` artifact lands, or None to skip it.

    ``REPRO_BENCH_ARTIFACT=1`` selects the repo root; any other value names
    the *directory* (the env var is shared across benchmark modules, so each
    module keeps its canonical file name and the artifacts never clobber
    each other).
    """
    value = os.environ.get("REPRO_BENCH_ARTIFACT", "")
    if not value:
        return None
    if value == "1":
        return Path(__file__).resolve().parents[1] / filename
    path = Path(value)
    if path.name != filename:
        return path.with_name(filename)
    return path


def update_bench_artifact(
    filename: str, benchmark: str, section: str | None, payload: dict
) -> None:
    """Merge *payload* into the named artifact without clobbering siblings.

    Several benchmark modules contribute sections to one document (the
    backends artifact holds the engine race plus the snapshot-open row; the
    serving artifact holds every serving measurement), so writes
    are read-merge-write: an existing document of the same ``benchmark``
    kind keeps its other sections.  ``section=None`` merges *payload* at the
    top level (the artifact's historical flat shape); a name nests it.
    """
    artifact = bench_artifact_path(filename)
    if artifact is None:
        return
    document: dict = {"benchmark": benchmark, "scale": BENCH_SCALE}
    if artifact.exists():
        try:
            existing = json.loads(artifact.read_text(encoding="ascii"))
        except (OSError, ValueError):
            existing = {}
        if existing.get("benchmark") == benchmark:
            document = existing
    document["scale"] = BENCH_SCALE
    if section is None:
        document.update(payload)
    else:
        document[section] = payload
    artifact.parent.mkdir(parents=True, exist_ok=True)
    artifact.write_text(json.dumps(document, indent=2) + "\n", encoding="ascii")


def serving_artifact_path() -> "Path | None":
    """Where ``BENCH_serving.json`` lands, or None to skip writing it."""
    return bench_artifact_path("BENCH_serving.json")


def update_serving_artifact(section: str, payload: dict) -> None:
    """Merge *payload* under *section* into ``BENCH_serving.json``."""
    update_bench_artifact("BENCH_serving.json", "serving", section, payload)
