"""The ``repro analyze`` command: exit codes, formats, self-check.

Exit contract: 0 when every finding is baselined and no baseline
entry is stale, 1 on any new finding *or* stale entry, 2 on usage
errors (unknown rule, missing baseline file) via the standard
ReproError path.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import REPORT_FORMAT, REPORT_FORMAT_VERSION, RULE_IDS
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).parents[2]

BAD = str(FIXTURES / "flip003" / "data" / "bad_write_text.py")
GOOD = str(FIXTURES / "flip003" / "data" / "good.py")


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["analyze", "--rule", "FLIP003", GOOD]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main(["analyze", "--rule", "FLIP003", BAD]) == 1
        out = capsys.readouterr().out
        assert "FLIP003" in out
        assert "bad_write_text.py" in out

    def test_fully_baselined_exits_zero(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "analyze",
                    "--rule",
                    "FLIP003",
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                    BAD,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "analyze",
                    "--rule",
                    "FLIP003",
                    "--baseline",
                    str(baseline),
                    BAD,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[baselined]" in out
        assert "0 new" in out

    def test_stale_baseline_entry_exits_one(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        main(
            [
                "analyze",
                "--rule",
                "FLIP003",
                "--baseline",
                str(baseline),
                "--write-baseline",
                BAD,
            ]
        )
        capsys.readouterr()
        # the violations got fixed but the baseline kept its entries
        assert (
            main(
                [
                    "analyze",
                    "--rule",
                    "FLIP003",
                    "--baseline",
                    str(baseline),
                    GOOD,
                ]
            )
            == 1
        )
        assert "stale baseline entry" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["analyze", "--rule", "FLIP999", GOOD]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_baseline_file_exits_two(self, capsys):
        assert (
            main(["analyze", "--baseline", "/no/such/file.json", GOOD])
            == 2
        )
        assert "no such baseline" in capsys.readouterr().err


class TestJsonReport:
    def test_schema_is_stable(self, capsys):
        assert (
            main(
                ["analyze", "--format", "json", "--rule", "FLIP003", BAD]
            )
            == 1
        )
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "format",
            "version",
            "rules",
            "counts",
            "findings",
            "stale_baseline",
        }
        assert report["format"] == REPORT_FORMAT
        assert report["version"] == REPORT_FORMAT_VERSION
        assert report["rules"] == ["FLIP003"]
        assert set(report["counts"]) == {
            "total",
            "new",
            "baselined",
            "stale_baseline",
        }
        assert report["counts"]["total"] == len(report["findings"])
        assert report["counts"]["new"] >= 2
        for finding in report["findings"]:
            assert set(finding) == {
                "path",
                "line",
                "col",
                "rule",
                "message",
                "baselined",
            }

    def test_counts_reflect_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        main(
            [
                "analyze",
                "--rule",
                "FLIP003",
                "--baseline",
                str(baseline),
                "--write-baseline",
                BAD,
            ]
        )
        capsys.readouterr()
        main(
            [
                "analyze",
                "--format",
                "json",
                "--rule",
                "FLIP003",
                "--baseline",
                str(baseline),
                BAD,
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["new"] == 0
        assert report["counts"]["baselined"] == report["counts"]["total"]


class TestCatalogue:
    def test_list_rules(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out

    def test_help_mentions_analyze(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "analyze" in capsys.readouterr().out


class TestSelfCheck:
    def test_live_tree_is_clean_modulo_baseline(self, capsys, monkeypatch):
        """``repro analyze`` over the real src tree must pass with the
        committed baseline — the invariants hold live."""
        monkeypatch.chdir(REPO_ROOT)
        assert main(["analyze"]) == 0, capsys.readouterr().out
