"""Tier-1 gate: the committed tree passes its own invariant checkers.

This is the test that gives every ``RPR0xx`` rule teeth — a PR that
introduces a lock-discipline, durability, layout, policy-purity, or
exception-hygiene violation fails here before CI even reaches the
dedicated lint job.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import Baseline, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_committed_tree_lints_clean():
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    report = run_lint([REPO_ROOT / "src"], baseline=baseline)
    assert report.files_checked > 0
    assert report.clean, "new lint findings:\n" + "\n".join(
        f"  {finding.path}:{finding.line} {finding.code} {finding.message}"
        for finding in report.findings
    )


def test_committed_baseline_stays_near_empty():
    # The baseline exists to absorb *historical* findings during an
    # incident, not to become a landfill; keep it effectively empty.
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    assert len(baseline.entries) <= 5
