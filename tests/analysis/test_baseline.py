"""Baseline ratchet behavior: add, match, stale detection, round-trip."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    BASELINE_FORMAT,
    BASELINE_FORMAT_VERSION,
    Baseline,
    BaselineEntry,
    analyze_paths,
)
from repro.errors import DataError

FIXTURES = Path(__file__).parent / "fixtures"


def _findings():
    return analyze_paths(
        ["flip003/data/bad_write_text.py"],
        root=FIXTURES,
        rules=["FLIP003"],
    )


class TestMatch:
    def test_baselined_findings_are_stamped(self):
        findings = _findings()
        baseline = Baseline.from_findings(findings)
        matched, stale = baseline.match(_findings())
        assert all(f.baselined for f in matched)
        assert stale == []

    def test_new_finding_stays_unbaselined(self):
        findings = _findings()
        baseline = Baseline.from_findings(findings[:1])
        matched, stale = baseline.match(_findings())
        assert [f.baselined for f in matched].count(False) == len(findings) - 1
        assert stale == []

    def test_fixed_finding_leaves_stale_entry(self):
        baseline = Baseline(
            [
                BaselineEntry(
                    path="flip003/data/bad_write_text.py",
                    rule="FLIP003",
                    line_content="this_line_no_longer_exists()",
                    justification="was fixed",
                )
            ]
        )
        matched, stale = baseline.match(_findings())
        assert len(stale) == 1
        assert stale[0].line_content == "this_line_no_longer_exists()"
        assert not any(f.baselined for f in matched)

    def test_match_is_content_keyed_not_line_keyed(self):
        findings = _findings()
        baseline = Baseline.from_findings(findings)
        # simulate the file shifting: line numbers change, text stays
        shifted = _findings()
        for finding in shifted:
            finding.line += 40
        matched, stale = baseline.match(shifted)
        assert all(f.baselined for f in matched)
        assert stale == []


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        baseline = Baseline.from_findings(_findings(), "legacy writer")
        target = tmp_path / "baseline.json"
        baseline.write(target)
        loaded = Baseline.load(target)
        assert [e.key() for e in loaded.entries] == [
            e.key() for e in baseline.entries
        ]
        assert all(e.justification == "legacy writer" for e in loaded.entries)

    def test_duplicate_entries_rejected(self):
        entry = BaselineEntry("a.py", "FLIP003", "x = 1")
        with pytest.raises(DataError, match="duplicate"):
            Baseline([entry, entry])

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            Baseline.load(tmp_path / "nope.json")

    def test_load_malformed_json(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text("{nope")
        with pytest.raises(DataError, match="not valid JSON"):
            Baseline.load(target)

    def test_load_wrong_format(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(DataError, match=BASELINE_FORMAT):
            Baseline.load(target)

    def test_load_wrong_version(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(
            json.dumps(
                {
                    "format": BASELINE_FORMAT,
                    "version": BASELINE_FORMAT_VERSION + 1,
                    "entries": [],
                }
            )
        )
        with pytest.raises(DataError, match="version"):
            Baseline.load(target)

    def test_load_entry_missing_key(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(
            json.dumps(
                {
                    "format": BASELINE_FORMAT,
                    "version": BASELINE_FORMAT_VERSION,
                    "entries": [{"path": "a.py"}],
                }
            )
        )
        with pytest.raises(DataError, match="entry 0"):
            Baseline.load(target)

    def test_committed_baseline_is_valid_and_fresh(self):
        """The repo's own baseline file loads, and every entry still
        matches a live finding (no stale grandfathering)."""
        root = Path(__file__).parents[2]
        baseline = Baseline.load(root / "analysis_baseline.json")
        findings = analyze_paths(["src"], root=root)
        _, stale = baseline.match(findings)
        assert stale == [], [e.to_dict() for e in stale]
        for entry in baseline.entries:
            assert entry.justification.strip(), (
                f"baseline entry for {entry.path} needs a "
                "one-line justification"
            )
