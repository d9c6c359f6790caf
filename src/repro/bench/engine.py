"""Engine bench: in-memory vs partitioned mining smoke on one profile.

One question, answered quickly enough for CI: do the default in-memory
mine and a ``partitions=3`` mine of the same groceries corpus produce
byte-identical pattern sets — and what does each cost end to end?

``run_engine_smoke`` measures both, renders a report, and writes the
machine-readable baseline ``BENCH_engine.json`` (path overridable via
``REPRO_BENCH_ENGINE_OUT``); CI's perf-regression gate diffs the
in-memory run's stage totals against the committed baseline.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.bench.profiles import bench_scale
from repro.bench.report import ShapeCheck, format_table, render_checks
from repro.core.flipper import FlipperMiner
from repro.core.patterns import MiningResult
from repro.datasets.groceries import GROCERIES_THRESHOLDS, generate_groceries

__all__ = ["run_engine_smoke", "DEFAULT_OUT_PATH"]

DEFAULT_OUT_PATH = "BENCH_engine.json"


def _pattern_fingerprint(result: MiningResult) -> str:
    return json.dumps(
        [pattern.to_dict() for pattern in result.patterns], sort_keys=True
    )


def run_engine_smoke(
    out_path: str | os.PathLike[str] | None = None,
) -> tuple[str, dict[str, object]]:
    """Run the engine smoke bench and write ``BENCH_engine.json``."""
    if out_path is None:
        out_path = os.environ.get("REPRO_BENCH_ENGINE_OUT", DEFAULT_OUT_PATH)
    # The synthetic profile has no planted flips at tiny scales; the
    # groceries simulator does, so parity is checked on real patterns.
    grocery_db = generate_groceries(
        scale=min(1.0, max(0.1, bench_scale() * 10))
    )
    runs: dict[str, dict[str, object]] = {}
    fingerprints: dict[str, str] = {}
    for name, partitions in (("in_memory", None), ("partitions_3", 3)):
        result = FlipperMiner(
            grocery_db, GROCERIES_THRESHOLDS, partitions=partitions
        ).mine()
        fingerprints[name] = _pattern_fingerprint(result)
        runs[name] = {
            "seconds": result.stats.elapsed_seconds,
            "n_patterns": len(result.patterns),
            "partitions": result.config["partitions"],
            "stage_seconds": dict(
                result.stats.extra.get("stage_seconds", {})
            ),
        }
    identical = fingerprints["in_memory"] == fingerprints["partitions_3"]

    checks = [
        ShapeCheck(
            "in-memory and 3-shard runs agree byte-for-byte",
            identical and runs["in_memory"]["n_patterns"] > 0,  # type: ignore[operator]
            f"{runs['in_memory']['n_patterns']} vs "
            f"{runs['partitions_3']['n_patterns']} patterns",
        ),
    ]
    data: dict[str, object] = {
        "bench": "engine_smoke",
        "scale": bench_scale(),
        "runs": runs,
        "patterns_identical": identical,
        "checks_pass": all(check.passed for check in checks),
    }
    Path(out_path).write_text(json.dumps(data, indent=2) + "\n")

    rows = [
        [name, f"{run['seconds']:.3f}", run["n_patterns"], run["partitions"]]
        for name, run in runs.items()
    ]
    report = "\n".join(
        [
            f"== Engine smoke (bench scale {bench_scale():g}) ==",
            format_table(["run", "seconds", "patterns", "partitions"], rows),
            "",
            render_checks(checks),
            f"baseline written to {out_path}",
        ]
    )
    return report, data
