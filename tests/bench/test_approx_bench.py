"""End-to-end smoke of the approx bench (quick mode).

The wall-clock speedup floor is scale-dependent (CI runs the full
bench at the default scale, where ``python -m repro bench approx``
exits 1 below the floor), so this smoke runs the bench's ``quick``
mode — which skips the floor but keeps every correctness check — and
asserts the exactness properties plus the output file shape.
Everything in the quick run is deterministic (fixed dataset seed,
fixed sample seed), so its recall check is stable.
"""

from __future__ import annotations

import json

import pytest


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.001")


def test_approx_bench_quick_writes_baseline(tmp_path):
    from repro.bench import run_approx_bench

    out = tmp_path / "BENCH_approx.json"
    report, data = run_approx_bench(out_path=out, quick=True)
    assert "Approx bench" in report
    assert "quick" in report
    assert data["bench"] == "approx"
    on_disk = json.loads(out.read_text())
    assert on_disk["quick"] is True
    # correctness holds at every scale: full recall, no fabrications
    assert on_disk["checks_pass"] is True
    assert on_disk["recall"] == 1.0
    assert on_disk["n_verified"] <= on_disk["n_candidates"]
    assert on_disk["exact_seconds"] > 0
    assert on_disk["approx_seconds"] > 0
    # out-of-core regime: evicted shards were re-admitted, via
    # parse-and-rebuild or via persisted backend images
    assert on_disk["exact_pool_refaults"] > 0
    assert on_disk["exact_pool_refaults"] == (
        on_disk["exact_pool_rebuilds"]
        + on_disk["exact_pool_image_admits"]
    )
    assert set(on_disk["phase_seconds"]) == {
        "sample",
        "screen",
        "verify",
    }

