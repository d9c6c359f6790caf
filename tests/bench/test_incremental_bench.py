"""End-to-end smoke of the incremental bench (tiny scale).

The speedup and pattern-count checks are scale-dependent (the delta
counting trade only shows at real sizes, which CI's perf-gate job
runs at the default scale), so this smoke asserts the *exactness*
properties — update/full pattern parity, incremental mode — and the
baseline file shape, not ``checks_pass``.
"""

from __future__ import annotations

import json

import pytest


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.001")


def test_incremental_bench_writes_baseline(tmp_path):
    from repro.bench import run_incremental_bench

    out = tmp_path / "BENCH_incremental.json"
    report, data = run_incremental_bench(out_path=out)
    assert "Incremental bench" in report
    assert data["bench"] == "incremental"
    on_disk = json.loads(out.read_text())
    assert set(on_disk["runs"]) == {"delta=1%", "delta=10%"}
    assert on_disk["speedup_10pct"] > 0
    for run in on_disk["runs"].values():
        # exactness holds at every scale
        assert run["patterns_identical"] is True
        assert run["mode"] == "incremental"
        assert run["update_seconds"] > 0
        assert run["full_seconds"] > 0


def test_committed_baseline_passes_its_own_checks():
    """The committed BENCH_incremental.json (produced at the default
    scale) must satisfy its internal checks, including the 3x
    speedup floor the CI gate enforces."""
    from pathlib import Path

    committed = json.loads(
        (
            Path(__file__).resolve().parents[2] / "BENCH_incremental.json"
        ).read_text()
    )
    assert committed["checks_pass"] is True
    assert committed["speedup_10pct"] >= committed["min_speedup_10pct"]
