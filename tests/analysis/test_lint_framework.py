"""Framework semantics: suppressions, baseline, select, reporters, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import Baseline, render_json, render_text, run_lint, rules_catalog
from repro.analysis.framework import JSON_REPORT_VERSION
from repro.cli import main
from repro.errors import AnalysisError

BAD_MODULE = (
    "def risky():\n"
    "    try:\n"
    "        return work()\n"
    "    except:\n"
    "        return None\n"
)


@pytest.fixture
def bad_tree(tmp_path):
    (tmp_path / "bad.py").write_text(BAD_MODULE)
    return tmp_path


# --------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------- #
class TestSuppressions:
    def test_matching_code_suppresses(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            BAD_MODULE.replace("except:", "except:  # repro: ignore[RPR040]")
        )
        report = run_lint([tmp_path])
        assert report.clean
        assert report.suppressed == 1

    def test_wrong_code_does_not_suppress(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            BAD_MODULE.replace("except:", "except:  # repro: ignore[RPR041]")
        )
        report = run_lint([tmp_path])
        assert [finding.code for finding in report.findings] == ["RPR040"]

    def test_comma_separated_codes(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "def feed():\n"
            "    while True:\n"
            "        try:\n"
            "            tick()\n"
            "        except Exception:  # repro: ignore[RPR041, RPR042]\n"
            "            pass\n"
        )
        report = run_lint([tmp_path])
        assert report.clean
        assert report.suppressed == 2


# --------------------------------------------------------------------- #
# Baseline
# --------------------------------------------------------------------- #
class TestBaseline:
    def test_baseline_grandfathers_existing_findings(self, bad_tree, tmp_path):
        first = run_lint([bad_tree])
        assert len(first.findings) == 1
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(Baseline.render(first.findings))

        second = run_lint([bad_tree], baseline=Baseline.load(baseline_path))
        assert second.clean
        assert len(second.baselined) == 1

    def test_baseline_survives_line_drift(self, bad_tree, tmp_path):
        first = run_lint([bad_tree])
        baseline = Baseline(finding.identity for finding in first.findings)
        # Shift the violation down two lines; the identity ignores position.
        (bad_tree / "bad.py").write_text("import os\nimport sys\n" + BAD_MODULE)
        second = run_lint([bad_tree], baseline=baseline)
        assert second.clean

    def test_new_findings_still_fail(self, bad_tree):
        baseline = Baseline()  # empty
        report = run_lint([bad_tree], baseline=baseline)
        assert not report.clean

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert Baseline.load(tmp_path / "absent.json").entries == frozenset()

    def test_corrupt_baseline_raises_analysis_error(self, tmp_path):
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        with pytest.raises(AnalysisError):
            Baseline.load(corrupt)


# --------------------------------------------------------------------- #
# Select
# --------------------------------------------------------------------- #
class TestSelect:
    def test_select_filters_other_codes(self, bad_tree):
        report = run_lint([bad_tree], select={"RPR041"})
        assert report.clean
        report = run_lint([bad_tree], select={"RPR040"})
        assert [finding.code for finding in report.findings] == ["RPR040"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(AnalysisError):
            run_lint([tmp_path / "nowhere"])


# --------------------------------------------------------------------- #
# Reporters
# --------------------------------------------------------------------- #
class TestReporters:
    def test_text_report_lists_location_and_code(self, bad_tree):
        text = render_text(run_lint([bad_tree]))
        assert "bad.py:4:5: RPR040" in text
        assert "1 finding(s)" in text

    def test_json_report_schema(self, bad_tree):
        payload = json.loads(render_json(run_lint([bad_tree])))
        assert payload["version"] == JSON_REPORT_VERSION
        assert payload["tool"] == "repro lint"
        assert payload["files_checked"] == 1
        assert payload["summary"] == {"new": 1, "baselined": 0, "suppressed": 0}
        codes = {rule["code"] for rule in payload["rules"]}
        assert {"RPR000", "RPR001", "RPR030", "RPR040"} <= codes
        assert not {"RPR020", "RPR021"} & codes  # left with the lane kernel
        (finding,) = payload["findings"]
        assert set(finding) == {
            "code",
            "message",
            "path",
            "line",
            "column",
            "symbol",
            "baselined",
        }
        assert finding["code"] == "RPR040"
        assert finding["baselined"] is False

    def test_rules_catalog_is_sorted_and_unique(self):
        catalog = rules_catalog()
        codes = [rule.code for rule in catalog]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))
        assert len(codes) >= 14  # parse-error + 13 project rules


# --------------------------------------------------------------------- #
# CLI plumbing
# --------------------------------------------------------------------- #
class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "fine.py").write_text("VALUE = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_two(self, bad_tree, capsys):
        assert main(["lint", str(bad_tree)]) == 2
        assert "RPR040" in capsys.readouterr().out

    def test_json_format_and_out_file(self, bad_tree, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["lint", str(bad_tree), "--format", "json", "--out", str(out)]) == 2
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["summary"]["new"] == 1

    def test_select_flag(self, bad_tree, capsys):
        assert main(["lint", str(bad_tree), "--select", "RPR041,RPR042"]) == 0
        capsys.readouterr()

    def test_baseline_flag(self, bad_tree, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(Baseline.render(run_lint([bad_tree]).findings))
        assert main(["lint", str(bad_tree), "--baseline", str(baseline_path)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_missing_path_is_a_clean_cli_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nowhere")]) == 2
        assert "error:" in capsys.readouterr().err
