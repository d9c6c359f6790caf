"""Per-rule fixture tests: every rule proven in both directions.

Each rule has a known-good fixture (must stay silent) and at least
two known-bad fixtures (must flag).  Fixture directories mimic the
live tree's layout (``serve/``, ``data/``, ``core/``) so the rules'
path-scoping runs exactly as it does in production.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import RULE_IDS, RULES, analyze_paths
from repro.analysis.rules import SNAPSHOT_FIELDS
from repro.errors import ConfigError, DataError
from repro.serve.store import StoreSnapshot

FIXTURES = Path(__file__).parent / "fixtures"

#: rule -> (good fixtures, {bad fixture -> minimum finding count})
CORPUS = {
    "FLIP001": (
        ["flip001/serve/good.py"],
        {
            "flip001/serve/bad_mutation.py": 3,
            "flip001/serve/bad_call.py": 4,
        },
    ),
    "FLIP002": (
        ["flip002/good.py"],
        {
            "flip002/bad_sleep.py": 2,
            "flip002/bad_sync_io.py": 4,
        },
    ),
    "FLIP003": (
        ["flip003/data/good.py"],
        {
            "flip003/data/bad_open.py": 2,
            "flip003/data/bad_write_text.py": 2,
        },
    ),
    "FLIP004": (
        ["flip004/data/good.py"],
        {
            "flip004/data/bad_bare_except.py": 1,
            "flip004/data/bad_leak.py": 3,
        },
    ),
    "FLIP005": (
        ["flip005/core/good.py"],
        {
            "flip005/core/bad_fingerprint.py": 2,
            "flip005/core/serialize.py": 2,
        },
    ),
    "FLIP006": (
        ["flip006/serve/good.py"],
        {
            "flip006/serve/bad_rebind.py": 2,
            "flip006/serve/bad_mutate.py": 3,
        },
    ),
    "FLIP007": (
        ["flip007/serve/good.py"],
        {
            "flip007/serve/bad_metric_literal.py": 4,
            "flip007/serve/bad_span_literal.py": 2,
        },
    ),
}


def _run(rule_id: str, fixture: str):
    return analyze_paths([fixture], root=FIXTURES, rules=[rule_id])


class TestCorpusCoverage:
    def test_every_rule_has_fixtures_both_ways(self):
        assert set(CORPUS) == set(RULE_IDS)
        for good, bad in CORPUS.values():
            assert len(good) >= 1
            assert len(bad) >= 2

    def test_fixture_files_exist(self):
        for good, bad in CORPUS.values():
            for rel in [*good, *bad]:
                assert (FIXTURES / rel).is_file(), rel


@pytest.mark.parametrize(
    "rule_id,fixture",
    [
        (rule_id, fixture)
        for rule_id, (good, _) in CORPUS.items()
        for fixture in good
    ],
)
def test_good_fixture_is_silent(rule_id, fixture):
    assert _run(rule_id, fixture) == []


@pytest.mark.parametrize(
    "rule_id,fixture,minimum",
    [
        (rule_id, fixture, minimum)
        for rule_id, (_, bad) in CORPUS.items()
        for fixture, minimum in bad.items()
    ],
)
def test_bad_fixture_is_flagged(rule_id, fixture, minimum):
    findings = _run(rule_id, fixture)
    assert len(findings) >= minimum, [f.location() for f in findings]
    for finding in findings:
        assert finding.rule == rule_id
        assert finding.path == fixture
        assert finding.line >= 1
        assert finding.message
        # the baseline key is the live source line
        source = (FIXTURES / fixture).read_text().splitlines()
        assert finding.line_content == source[finding.line - 1].strip()


class TestSnapshotFields:
    def test_flip001_guards_every_snapshot_slot(self):
        # a slot the rule does not know is a field it cannot protect
        assert SNAPSHOT_FIELDS == frozenset(StoreSnapshot.__slots__)


class TestScoping:
    def test_serve_rules_skip_other_layers(self):
        for rule_id in ("FLIP001", "FLIP006"):
            assert not RULES[rule_id].applies_to("engine/stages.py")
            assert RULES[rule_id].applies_to("serve/store.py")

    def test_async_rule_applies_everywhere(self):
        assert RULES["FLIP002"].applies_to("bench/serve.py")
        assert RULES["FLIP002"].applies_to("flip002/bad_sleep.py")

    def test_error_contract_scope(self):
        rule = RULES["FLIP004"]
        assert rule.applies_to("data/io.py")
        assert rule.applies_to("core/serialize.py")
        assert not rule.applies_to("core/flipper.py")

    def test_metric_catalog_rule_exempts_obs_package(self):
        rule = RULES["FLIP007"]
        assert rule.applies_to("serve/api.py")
        assert rule.applies_to("engine/plan.py")
        assert not rule.applies_to("obs/catalog.py")
        assert not rule.applies_to("obs/metrics.py")

    def test_awaited_acquire_is_not_blocking(self):
        findings = _run("FLIP002", "flip002/good.py")
        assert findings == []

    def test_atomic_helper_module_is_exempt(self):
        # the helper itself necessarily opens files in write mode
        live = analyze_paths(
            ["src/repro/core/atomicio.py"],
            root=Path(__file__).parents[2],
            rules=["FLIP003"],
        )
        assert live == []


class TestRunner:
    def test_unknown_rule_is_config_error(self):
        with pytest.raises(ConfigError, match="FLIP999"):
            analyze_paths(
                ["flip002/good.py"], root=FIXTURES, rules=["FLIP999"]
            )

    def test_rule_ids_are_case_insensitive(self):
        findings = analyze_paths(
            ["flip002/bad_sleep.py"], root=FIXTURES, rules=["flip002"]
        )
        assert findings and findings[0].rule == "FLIP002"

    def test_missing_path_is_loud(self):
        with pytest.raises(DataError, match="no such file"):
            analyze_paths(["nope/"], root=FIXTURES)

    def test_syntax_error_is_loud(self, tmp_path):
        target = tmp_path / "serve" / "broken.py"
        target.parent.mkdir()
        target.write_text("def broken(:\n")
        with pytest.raises(DataError, match="cannot parse"):
            analyze_paths(["serve"], root=tmp_path)

    def test_findings_sorted_and_deduped_discovery(self):
        findings = analyze_paths(
            ["flip001", "flip001/serve/bad_mutation.py"],
            root=FIXTURES,
            rules=["FLIP001"],
        )
        keys = [(f.path, f.line, f.col, f.rule) for f in findings]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys)), "duplicate findings"
