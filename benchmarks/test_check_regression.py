"""Unit tests for the benchmark-regression gate (``check_regression.py``).

The gate is CI-critical in the failure direction *and* in the skip
direction: a false failure blocks merges on runner noise, a silent skip
would let a real collapse through unreported.  These tests pin both edges
with synthetic artifact documents.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from . import check_regression


def _write(directory: Path, filename: str, document: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / filename).write_text(json.dumps(document), encoding="utf-8")


def _serving(indexed_qps: float, *, scale: float = 0.01, speedup: float = 8.0) -> dict:
    return {
        "benchmark": "serving",
        "scale": scale,
        "basket_queries": {
            "indexed": {"queries_per_second": indexed_qps},
            "speedup_indexed_vs_linear": speedup,
        },
    }


def _backends(speedup: float, *, scale: float = 0.01) -> dict:
    return {
        "benchmark": "backends_comparison",
        "scale": scale,
        "vertical_speedup_vs_horizontal": speedup,
    }


def _verdicts(comparisons) -> dict[str, str]:
    return {comparison.metric: comparison.verdict for comparison in comparisons}


@pytest.fixture
def dirs(tmp_path: Path) -> tuple[Path, Path]:
    return tmp_path / "baseline", tmp_path / "fresh"


def test_passes_within_tolerance(dirs) -> None:
    baseline, fresh = dirs
    _write(baseline, "BENCH_serving.json", _serving(100_000.0))
    _write(fresh, "BENCH_serving.json", _serving(45_000.0))  # 45% of baseline
    comparisons = check_regression.collect_comparisons(baseline, fresh, tolerance=0.4)
    verdicts = _verdicts(comparisons)
    assert verdicts["serving:basket_queries.indexed.queries_per_second"] == "ok"
    assert not any(verdict == "regression" for verdict in verdicts.values())


def test_detects_collapse(dirs) -> None:
    baseline, fresh = dirs
    _write(baseline, "BENCH_serving.json", _serving(100_000.0))
    _write(fresh, "BENCH_serving.json", _serving(10_000.0))  # 10% of baseline
    comparisons = check_regression.collect_comparisons(baseline, fresh, tolerance=0.4)
    verdicts = _verdicts(comparisons)
    assert verdicts["serving:basket_queries.indexed.queries_per_second"] == "regression"


def test_backends_speedup_is_gated(dirs) -> None:
    baseline, fresh = dirs
    _write(baseline, "BENCH_backends.json", _backends(400.0))
    _write(fresh, "BENCH_backends.json", _backends(2.0))
    comparisons = check_regression.collect_comparisons(baseline, fresh, tolerance=0.4)
    assert _verdicts(comparisons)["backends:vertical_speedup_vs_horizontal"] == "regression"


def test_retired_kernel_sections_are_not_gated(dirs) -> None:
    """Baselines recorded before the numpy kernel left still carry its rows;
    the gate reads only the metrics it lists, so they neither fail nor skip."""
    baseline, fresh = dirs
    old = {**_backends(400.0), "kernels": {"speedup_numpy_vs_bigint": 1.3}}
    _write(baseline, "BENCH_backends.json", old)
    _write(fresh, "BENCH_backends.json", _backends(400.0))
    comparisons = check_regression.collect_comparisons(baseline, fresh, tolerance=0.4)
    assert not any("kernels" in comparison.metric for comparison in comparisons)
    assert "kernels" not in check_regression.GATED_SECTIONS
    assert _verdicts(comparisons)["backends:vertical_speedup_vs_horizontal"] == "ok"


def test_missing_file_skips_not_fails(dirs) -> None:
    baseline, fresh = dirs
    _write(fresh, "BENCH_serving.json", _serving(100.0))
    fresh.mkdir(exist_ok=True)
    baseline.mkdir(exist_ok=True)  # baseline dir exists but has no artifacts
    comparisons = check_regression.collect_comparisons(baseline, fresh, tolerance=0.4)
    assert set(_verdicts(comparisons).values()) == {"skip"}


def test_missing_section_skips_that_metric_only(dirs) -> None:
    baseline, fresh = dirs
    # Neither side has closed_loop/open_loop sections: those skip, the
    # basket_queries metrics still gate.
    _write(baseline, "BENCH_serving.json", _serving(100_000.0))
    _write(fresh, "BENCH_serving.json", _serving(90_000.0))
    verdicts = _verdicts(check_regression.collect_comparisons(baseline, fresh, tolerance=0.4))
    assert verdicts["serving:basket_queries.indexed.queries_per_second"] == "ok"
    assert verdicts["serving:closed_loop.async.queries_per_second"] == "skip"


def test_scale_mismatch_skips(dirs) -> None:
    baseline, fresh = dirs
    _write(baseline, "BENCH_serving.json", _serving(100_000.0, scale=0.01))
    _write(fresh, "BENCH_serving.json", _serving(50.0, scale=0.002))
    comparisons = check_regression.collect_comparisons(baseline, fresh, tolerance=0.4)
    assert set(_verdicts(comparisons).values()) == {"skip"}
    detail = next(c.detail for c in comparisons if c.metric.startswith("serving:"))
    assert "scale mismatch" in detail


def test_assertion_inactive_row_skips(dirs) -> None:
    baseline, fresh = dirs
    document = _serving(100_000.0)
    document["closed_loop"] = {
        "assertion_active": False,
        "async": {"queries_per_second": 5000.0},
    }
    degraded = _serving(100_000.0)
    degraded["closed_loop"] = {
        "assertion_active": False,
        "async": {"queries_per_second": 1.0},  # collapse, but flagged inactive
    }
    _write(baseline, "BENCH_serving.json", document)
    _write(fresh, "BENCH_serving.json", degraded)
    verdicts = _verdicts(check_regression.collect_comparisons(baseline, fresh, tolerance=0.4))
    assert verdicts["serving:closed_loop.async.queries_per_second"] == "skip"
    assert verdicts["serving:basket_queries.indexed.queries_per_second"] == "ok"


def test_check_skips_wholesale_on_one_core(dirs, monkeypatch) -> None:
    baseline, fresh = dirs
    _write(baseline, "BENCH_serving.json", _serving(100_000.0))
    _write(fresh, "BENCH_serving.json", _serving(1.0))  # would be a regression
    monkeypatch.setattr(check_regression, "usable_cpus", lambda: 1)
    exit_code, comparisons = check_regression.check(baseline, fresh, tolerance=0.4)
    assert exit_code == 0
    assert [comparison.verdict for comparison in comparisons] == ["skip"]


def test_check_fails_on_regression_with_cores(dirs, monkeypatch) -> None:
    baseline, fresh = dirs
    _write(baseline, "BENCH_serving.json", _serving(100_000.0))
    _write(fresh, "BENCH_serving.json", _serving(1.0))
    monkeypatch.setattr(check_regression, "usable_cpus", lambda: 4)
    exit_code, comparisons = check_regression.check(baseline, fresh, tolerance=0.4)
    assert exit_code == 1
    assert any(comparison.verdict == "regression" for comparison in comparisons)


def test_main_reports_and_exits(dirs, monkeypatch, capsys) -> None:
    baseline, fresh = dirs
    _write(baseline, "BENCH_serving.json", _serving(100_000.0))
    _write(fresh, "BENCH_serving.json", _serving(80_000.0))
    monkeypatch.setattr(check_regression, "usable_cpus", lambda: 4)
    exit_code = check_regression.main(
        ["--baseline-dir", str(baseline), "--fresh-dir", str(fresh)]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "benchmark gate passed" in captured.out
    assert "serving:basket_queries.indexed.queries_per_second" in captured.out


def test_main_rejects_bad_tolerance(dirs) -> None:
    baseline, fresh = dirs
    baseline.mkdir()
    fresh.mkdir()
    with pytest.raises(SystemExit) as excinfo:
        check_regression.main(
            ["--baseline-dir", str(baseline), "--fresh-dir", str(fresh), "--tolerance", "1.5"]
        )
    assert excinfo.value.code == 2
