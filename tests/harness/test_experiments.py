"""Tests of the declarative paper-reproduction experiment suite."""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.harness.experiments import (
    DOCS_BEGIN,
    DOCS_END,
    EngineSpec,
    ExperimentMatrix,
    ReproductionReport,
    embed_generated_block,
    generated_block_drift,
    run_matrix,
    work_speedup,
)

#: A deliberately tiny matrix so the full pipeline runs in well under a second.
TINY = ExperimentMatrix(
    workload="T5.I2.D1.d1",
    scale=0.2,  # |DB| = 200, |d| = 200
    supports=(0.1,),
    increment_fractions=(0.25, 1.0),
    engines=(EngineSpec("horizontal"), EngineSpec("vertical")),
    label="tiny",
)


@pytest.fixture(scope="module")
def tiny_report() -> ReproductionReport:
    return run_matrix(TINY)


# --------------------------------------------------------------------- #
# EngineSpec
# --------------------------------------------------------------------- #
def test_engine_spec_parse_round_trip():
    for text in ("horizontal", "vertical", " vertical "):
        assert EngineSpec.parse(text).label == text.strip()
    assert EngineSpec.parse("vertical").mining_options().backend == "vertical"


@pytest.mark.parametrize(
    "text",
    ["columnar", "", "partitioned:4:processes", "partitioned", "vertical:4", "vertical:"],
)
def test_engine_spec_rejects_nonsense(text):
    with pytest.raises(ExperimentError) as excinfo:
        EngineSpec.parse(text)
    if text:
        assert "expected one of horizontal, vertical" in str(excinfo.value)


def test_cli_arguments_reproduce_the_matrix():
    assert ExperimentMatrix.quick().cli_arguments() == "--quick"
    assert ExperimentMatrix().cli_arguments() == ""
    flags = TINY.cli_arguments()
    assert "--workload T5.I2.D1.d1" in flags
    assert "--scale 0.2" in flags
    assert "--supports 0.1" in flags
    assert "--increments 0.25,1" in flags
    assert "--engines horizontal,vertical" in flags


def test_work_speedup_guards_zero():
    assert work_speedup(100, 0) == 100.0
    assert work_speedup(0, 50) == 0.0


# --------------------------------------------------------------------- #
# run_matrix
# --------------------------------------------------------------------- #
def test_matrix_runs_every_cell(tiny_report):
    assert len(tiny_report.cells) == (
        len(TINY.supports) * len(TINY.increment_fractions) * len(TINY.engines)
    )
    for cell in tiny_report.cells:
        assert cell.comparison.consistent()
        assert cell.increment_size >= 1


def test_progress_callback_fires():
    messages: list[str] = []
    run_matrix(TINY, progress=messages.append)
    assert len(messages) == len(TINY.supports) * len(TINY.increment_fractions) * len(
        TINY.engines
    )
    assert any("mining initial state" in message for message in messages)
    assert any("cached initial state" in message for message in messages)


def test_work_rows_identical_across_engines(tiny_report):
    """Engines change how counting runs, never what is counted."""
    by_key: dict[tuple[float, float], set[tuple]] = {}
    for cell in tiny_report.cells:
        row = cell.work_row()
        key = (cell.increment_fraction, cell.min_support)
        row_without_engine = tuple(
            value for label, value in row.items() if label != "engine"
        )
        by_key.setdefault(key, set()).add(row_without_engine)
    for key, variants in by_key.items():
        assert len(variants) == 1, f"work ratios differ across engines at {key}"


def test_report_renders_and_serialises(tiny_report, tmp_path):
    assert "work ratios at |d| =" in tiny_report.work_tables()
    assert "candidate-pool ratio" in tiny_report.work_chart()
    assert "measured speedups" in tiny_report.timing_tables()
    assert "measured FUP speedup" in tiny_report.timing_chart()
    markdown = tiny_report.deterministic_markdown()
    assert "Do **not** edit between the markers" in markdown

    path = tiny_report.write_json(tmp_path / "BENCH_reproduction.json")
    payload = json.loads(path.read_text())
    assert payload["benchmark"] == "paper_reproduction"
    assert payload["matrix"]["label"] == "tiny"
    assert len(payload["rows"]) == 3 * len(tiny_report.cells)  # fup/apriori/dhp
    strategies = {row["strategy"] for row in payload["rows"]}
    assert strategies == {"fup", "apriori", "dhp"}


def test_deterministic_markdown_is_stable(tiny_report):
    again = run_matrix(TINY)
    assert again.deterministic_markdown() == tiny_report.deterministic_markdown()


# --------------------------------------------------------------------- #
# Docs embedding
# --------------------------------------------------------------------- #
DOC = f"intro\n\n{DOCS_BEGIN}\nstale tables\n{DOCS_END}\n\noutro\n"


def test_embed_generated_block_replaces_only_the_block():
    updated = embed_generated_block(DOC, "fresh tables")
    assert updated.startswith("intro\n")
    assert updated.endswith("outro\n")
    assert "stale tables" not in updated
    assert f"{DOCS_BEGIN}\nfresh tables\n{DOCS_END}" in updated
    # Idempotent: embedding the same text again changes nothing.
    assert embed_generated_block(updated, "fresh tables") == updated


def test_embed_requires_markers():
    with pytest.raises(ExperimentError):
        embed_generated_block("no markers here", "tables")


def test_generated_block_drift_reporting():
    in_sync = embed_generated_block(DOC, "line one\nline two")
    assert generated_block_drift(in_sync, "line one\nline two") is None
    drift = generated_block_drift(in_sync, "line one\nline 2")
    assert drift is not None and "line 2" in drift
    longer = generated_block_drift(in_sync, "line one\nline two\nline three")
    assert longer is not None and "length changed" in longer
