"""Benchmark-regression gate: fresh BENCH artifacts vs committed baselines.

CI regenerates ``BENCH_serving.json``, ``BENCH_backends.json`` and
``BENCH_maintenance.json`` on every run (``REPRO_BENCH_ARTIFACT=1``); this
script compares the throughput numbers of that fresh run against the
baselines committed in git and fails
(exit 1) when a metric fell below ``tolerance × baseline`` — a generous
band, because shared CI runners are noisy and the gate exists to catch
*collapses* (an accidentally quadratic code path, a lost index), not
single-digit-percent drift.

The gate **skips instead of failing** whenever the comparison would not be
apples-to-apples, mirroring the ``assertion_active`` discipline of the
benchmarks themselves:

* a file or section is missing on either side (a new section has no
  baseline yet; an old baseline predates a section),
* the two runs used different ``REPRO_BENCH_SCALE``,
* the row was recorded with ``assertion_active: false`` (1-core runner or
  smoke scale — the numbers are a trajectory, not a promise),
* the machine running the gate has fewer than 2 usable cores.

Every metric is reported in a table with its verdict so a skip is visible
in the log, never silent.

Usage::

    python benchmarks/check_regression.py \
        --baseline-dir /tmp/bench-baseline --fresh-dir . [--tolerance 0.4]

Pure standard library; no repro import needed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Comparison", "check", "collect_comparisons", "main", "usable_cpus"]

#: Fresh value must reach this fraction of the baseline (default gate).
DEFAULT_TOLERANCE = 0.4

#: path-into-document → metric, per artifact file.  Every metric is a
#: throughput or speedup where *bigger is better*; latency-style metrics
#: would need an inverted gate, so they are deliberately not listed.
METRICS: dict[str, tuple[tuple[str, ...], ...]] = {
    "BENCH_serving.json": (
        ("basket_queries", "indexed", "queries_per_second"),
        ("basket_queries", "speedup_indexed_vs_linear"),
        ("closed_loop", "async", "queries_per_second"),
        ("open_loop", "async", "queries_per_second"),
    ),
    "BENCH_backends.json": (
        ("vertical_speedup_vs_horizontal",),
        ("snapshot_open", "speedup_v2_open_vs_v1"),
    ),
    "BENCH_maintenance.json": (
        ("index_maintenance", "speedup_delta_vs_rebuild"),
        ("deletion_validation", "validation_speedup_vs_rebuild"),
    ),
}

#: Sections whose rows carry an ``assertion_active`` flag; a false flag on
#: either side downgrades that section's metrics to SKIP.
GATED_SECTIONS = ("closed_loop", "open_loop", "snapshot_open")


@dataclass(frozen=True)
class Comparison:
    """One metric's verdict: ``ok``, ``regression`` or ``skip``."""

    metric: str
    verdict: str
    detail: str
    baseline: float | None = None
    fresh: float | None = None

    @property
    def row(self) -> dict[str, object]:
        return {
            "metric": self.metric,
            "baseline": "-" if self.baseline is None else f"{self.baseline:,.1f}",
            "fresh": "-" if self.fresh is None else f"{self.fresh:,.1f}",
            "verdict": self.verdict.upper(),
            "detail": self.detail,
        }


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware where possible)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _load(path: Path) -> dict | None:
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


def _dig(document: dict, path: tuple[str, ...]):
    value: object = document
    for key in path:
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def _assertion_inactive(document: dict, path: tuple[str, ...]) -> bool:
    """True when the metric's section says its numbers are not gate-worthy."""
    if path[0] not in GATED_SECTIONS:
        return False
    section = document.get(path[0])
    return isinstance(section, dict) and section.get("assertion_active") is False


def collect_comparisons(
    baseline_dir: Path, fresh_dir: Path, tolerance: float
) -> list[Comparison]:
    """Compare every known metric; one :class:`Comparison` per metric."""
    comparisons: list[Comparison] = []
    for filename, metric_paths in METRICS.items():
        baseline_doc = _load(baseline_dir / filename)
        fresh_doc = _load(fresh_dir / filename)
        for path in metric_paths:
            name = f"{filename.removeprefix('BENCH_').removesuffix('.json')}:" + ".".join(path)
            if baseline_doc is None or fresh_doc is None:
                side = "baseline" if baseline_doc is None else "fresh"
                comparisons.append(Comparison(name, "skip", f"no {side} {filename}"))
                continue
            if baseline_doc.get("scale") != fresh_doc.get("scale"):
                comparisons.append(
                    Comparison(
                        name,
                        "skip",
                        f"scale mismatch (baseline {baseline_doc.get('scale')}, "
                        f"fresh {fresh_doc.get('scale')})",
                    )
                )
                continue
            baseline_value = _dig(baseline_doc, path)
            fresh_value = _dig(fresh_doc, path)
            if not isinstance(baseline_value, (int, float)) or not isinstance(
                fresh_value, (int, float)
            ):
                side = "baseline" if not isinstance(baseline_value, (int, float)) else "fresh"
                comparisons.append(Comparison(name, "skip", f"metric missing in {side}"))
                continue
            if _assertion_inactive(baseline_doc, path) or _assertion_inactive(fresh_doc, path):
                comparisons.append(
                    Comparison(
                        name,
                        "skip",
                        "assertion_active=false (1-core or smoke-scale run)",
                        float(baseline_value),
                        float(fresh_value),
                    )
                )
                continue
            floor = tolerance * float(baseline_value)
            if float(fresh_value) >= floor:
                verdict, detail = "ok", f"≥ {tolerance:.0%} of baseline"
            else:
                verdict = "regression"
                detail = f"below {tolerance:.0%} of baseline (floor {floor:,.1f})"
            comparisons.append(
                Comparison(name, verdict, detail, float(baseline_value), float(fresh_value))
            )
    return comparisons


def check(baseline_dir: Path, fresh_dir: Path, tolerance: float) -> tuple[int, list[Comparison]]:
    """Exit code (0 pass/skip, 1 regression) plus the per-metric verdicts."""
    cpus = usable_cpus()
    if cpus < 2:
        return 0, [
            Comparison(
                "*", "skip", f"only {cpus} usable core(s): throughput gating is meaningless"
            )
        ]
    comparisons = collect_comparisons(baseline_dir, fresh_dir, tolerance)
    failed = any(comparison.verdict == "regression" for comparison in comparisons)
    return (1 if failed else 0), comparisons


def _print_table(comparisons: list[Comparison]) -> None:
    rows = [comparison.row for comparison in comparisons]
    columns = ["metric", "baseline", "fresh", "verdict", "detail"]
    widths = {
        column: max(len(column), *(len(str(row[column])) for row in rows))
        for column in columns
    }
    header = "  ".join(column.ljust(widths[column]) for column in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(row[column]).ljust(widths[column]) for column in columns))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate fresh BENCH_*.json throughput against committed baselines."
    )
    parser.add_argument(
        "--baseline-dir",
        required=True,
        type=Path,
        help="directory holding the committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--fresh-dir",
        required=True,
        type=Path,
        help="directory holding the freshly regenerated BENCH_*.json files",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="fresh value must reach this fraction of the baseline "
        f"(default {DEFAULT_TOLERANCE})",
    )
    args = parser.parse_args(argv)
    if not 0 < args.tolerance <= 1:
        parser.error(f"--tolerance must be in (0, 1], got {args.tolerance}")
    if not args.baseline_dir.is_dir() or not args.fresh_dir.is_dir():
        missing = args.baseline_dir if not args.baseline_dir.is_dir() else args.fresh_dir
        parser.error(f"not a directory: {missing}")

    exit_code, comparisons = check(args.baseline_dir, args.fresh_dir, args.tolerance)
    _print_table(comparisons)
    if exit_code:
        print("\nFAIL: benchmark regression detected", file=sys.stderr)
    else:
        print("\nbenchmark gate passed")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
