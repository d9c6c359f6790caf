"""Window bench: sliding-window update vs. cold re-mine of the window.

Windowed mode's bargain is that sliding the window — append the new
shard, retire the oldest, refresh — builds one backend for the new
shard plus an exact node-support subtraction, and re-mines over the
shard backends already resident, instead of re-reading the window.
This bench drives a non-stationary stream (alternating generator
seeds, so the pattern set actually flips as the window slides)
through an :class:`~repro.engine.incremental.IncrementalMiner` with
``window_shards=`` and asserts the properties that make the mode
trustworthy:

* every step's patterns are **byte-identical** to a cold mine of only
  the surviving in-window rows,
* every step stays in ``windowed`` mode and the store never exceeds
  the window bound,
* the windowed update beats the cold re-mine by at least
  :data:`MIN_SPEEDUP` on average, and
* the sliding window emits flip lifecycle events through
  :meth:`~repro.serve.store.PatternStore.apply_result` (the streamed
  segments starve the strongest initial pattern's head item — solo
  spike rows dilute its correlation — so chains genuinely stop
  flipping as the window fills with spiked segments).

``run_window_bench`` renders a report and writes the machine-readable
``BENCH_window.json`` (path overridable via
``REPRO_BENCH_WINDOW_OUT``), which
``scripts/check_bench_regression.py`` gates in CI.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro.bench.profiles import (
    DEFAULT_MINSUP,
    bench_config,
    bench_scale,
    thresholds_for_profile,
)
from repro.bench.report import ShapeCheck, format_table, render_checks
from repro.core.flipper import FlipperMiner
from repro.core.patterns import MiningResult
from repro.data.database import TransactionDatabase
from repro.data.shards import ShardedTransactionStore
from repro.datasets.synthetic import generate_synthetic
from repro.engine.incremental import IncrementalMiner
from repro.serve.store import PatternStore

__all__ = ["run_window_bench", "DEFAULT_OUT_PATH", "MIN_SPEEDUP"]

DEFAULT_OUT_PATH = "BENCH_window.json"

#: acceptance floor: sliding the window must beat a cold re-mine of
#: the surviving rows by at least this factor on average (the CI gate
#: enforces it on every PR)
MIN_SPEEDUP = 1.2

#: shards the window keeps alive
_WINDOW_SHARDS = 4

#: window slides measured
_STEPS = 4


def _fingerprint(result: MiningResult) -> str:
    return json.dumps(
        [pattern.to_dict() for pattern in result.patterns], sort_keys=True
    )


def _stream_segments(
    n_rows: int,
) -> tuple[list[list[tuple[str, ...]]], TransactionDatabase]:
    """``_WINDOW_SHARDS + _STEPS`` row segments from two alternating
    generator seeds (the taxonomy is seed-independent, the seed
    itemsets are not — so supports genuinely drift as the window
    slides and flip events have something to report)."""
    config = bench_config(n_transactions=n_rows)
    databases = [
        generate_synthetic(config.scaled(seed=config.seed + parity))
        for parity in (0, 1)
    ]
    segments = [
        [
            databases[index % 2].transaction_names(row)
            for row in range(n_rows)
        ]
        for index in range(_WINDOW_SHARDS + _STEPS)
    ]
    return segments, databases[0]


def run_window_bench(
    out_path: str | os.PathLike[str] | None = None,
) -> tuple[str, dict[str, object]]:
    """Run the window bench and write ``BENCH_window.json``."""
    if out_path is None:
        out_path = os.environ.get("REPRO_BENCH_WINDOW_OUT", DEFAULT_OUT_PATH)
    scale = bench_scale()
    # 2x the global bench scale per shard: the trade this bench
    # measures — delta counting + exact subtraction vs. re-counting
    # the whole window — only shows where counting dominates.
    n_rows = min(25_000, max(500, round(100_000 * scale * 2)))
    segments, database = _stream_segments(n_rows)
    taxonomy = database.taxonomy
    window_rows = _WINDOW_SHARDS * n_rows
    # Absolute minimum supports (resolved once against the full
    # window) keep every slide on the windowed path: fractional
    # supports would re-resolve against the fluctuating N and force
    # the full-re-mine fallback.  2x the Fig. 8 default keeps a
    # handful of live patterns at bench scale without the power-set
    # regime.
    profile = tuple(min(0.2, fraction * 2) for fraction in DEFAULT_MINSUP)
    thresholds = thresholds_for_profile(
        profile, gamma=0.2, epsilon=0.1, n_transactions=window_rows
    )

    steps: list[dict[str, object]] = []
    events_total = 0
    with tempfile.TemporaryDirectory(prefix="repro-bench-window-") as tmp:
        base_rows = [
            row
            for segment in segments[:_WINDOW_SHARDS]
            for row in segment
        ]
        store = ShardedTransactionStore.partition_database(
            TransactionDatabase(base_rows, taxonomy), tmp, _WINDOW_SHARDS
        )
        miner = IncrementalMiner(
            store, thresholds, window_shards=_WINDOW_SHARDS
        )
        initial = miner.mine()
        pattern_store = PatternStore.build(initial)
        # The streamed segments starve the strongest initial pattern:
        # solo rows of its head item dilute the item's correlations,
        # so its chains stop flipping as the window fills with spiked
        # segments and the event path has real flips to report.
        spike: list[tuple[str, ...]] = []
        if initial.patterns:
            head = initial.patterns[0].to_dict()["items"][0]
            spike = [(head,)] * (n_rows // 5)
        history = list(segments[:_WINDOW_SHARDS])
        for index in range(_STEPS):
            batch = segments[_WINDOW_SHARDS + index] + spike
            history.append(batch)
            started = time.perf_counter()
            result = miner.update(batch)
            update_seconds = time.perf_counter() - started

            version_before = pattern_store.version
            started = time.perf_counter()
            pattern_store.apply_result(result)
            apply_seconds = time.perf_counter() - started
            events, _truncated = pattern_store.events_since(version_before)

            # Cold mine of only the surviving rows — what serving
            # fresh windowed results would cost without retirement.
            survivors = history[index + 1 : _WINDOW_SHARDS + index + 1]
            cold_db = TransactionDatabase(
                [row for segment in survivors for row in segment], taxonomy
            )
            started = time.perf_counter()
            cold = FlipperMiner(cold_db, thresholds).mine()
            full_seconds = time.perf_counter() - started

            incremental = result.config["incremental"]
            steps.append(
                {
                    "mode": incremental["mode"],
                    "retired_shards": incremental["retired_shards"],
                    "retired_rows": incremental["retired_rows"],
                    "n_shards": store.n_shards,
                    "update_seconds": update_seconds,
                    "full_seconds": full_seconds,
                    "speedup": full_seconds / max(update_seconds, 1e-9),
                    "event_apply_ms": apply_seconds * 1000.0,
                    "n_events": len(events),
                    "n_patterns": len(result.patterns),
                    "patterns_identical": (
                        _fingerprint(result) == _fingerprint(cold)
                    ),
                }
            )
            events_total += len(events)

    mean_update = sum(
        float(step["update_seconds"]) for step in steps  # type: ignore[arg-type]
    ) / len(steps)
    mean_full = sum(
        float(step["full_seconds"]) for step in steps  # type: ignore[arg-type]
    ) / len(steps)
    speedup = mean_full / max(mean_update, 1e-9)
    checks = [
        ShapeCheck(
            "windowed patterns byte-identical to a cold mine of the "
            "window",
            all(bool(step["patterns_identical"]) for step in steps),
            ", ".join(f"{step['n_patterns']} patterns" for step in steps),
        ),
        ShapeCheck(
            "every slide stayed in windowed mode",
            all(step["mode"] == "windowed" for step in steps),
            ", ".join(str(step["mode"]) for step in steps),
        ),
        ShapeCheck(
            f"window stayed bounded at {_WINDOW_SHARDS} shards",
            all(step["n_shards"] == _WINDOW_SHARDS for step in steps),
            ", ".join(str(step["n_shards"]) for step in steps),
        ),
        ShapeCheck(
            f"windowed update >= {MIN_SPEEDUP:g}x faster than cold "
            "re-mine (mean)",
            speedup >= MIN_SPEEDUP,
            f"{speedup:.1f}x",
        ),
        ShapeCheck(
            "flip lifecycle events were emitted",
            events_total > 0,
            f"{events_total} event(s)",
        ),
    ]
    data: dict[str, object] = {
        "bench": "window",
        "scale": scale,
        "n_rows_per_shard": n_rows,
        "window_shards": _WINDOW_SHARDS,
        "steps": _STEPS,
        "min_speedup": MIN_SPEEDUP,
        "runs": {f"step={index}": step for index, step in enumerate(steps)},
        "mean_update_seconds": mean_update,
        "mean_full_seconds": mean_full,
        "speedup": speedup,
        "events_total": events_total,
        "checks_pass": all(check.passed for check in checks),
    }
    Path(out_path).write_text(json.dumps(data, indent=2) + "\n")

    table_rows = [
        [
            f"step={index}",
            step["mode"],
            step["retired_rows"],
            f"{step['full_seconds']:.3f}",
            f"{step['update_seconds']:.3f}",
            f"{step['speedup']:.1f}x",
            step["n_events"],
            step["n_patterns"],
        ]
        for index, step in enumerate(steps)
    ]
    report = "\n".join(
        [
            f"== Window bench (synthetic scale {scale:g}, "
            f"{_WINDOW_SHARDS} x {n_rows} rows in window, "
            f"{_STEPS} slides) ==",
            "full = cold mine of the surviving window; "
            "update = windowed slide (append + retire + refresh)",
            "",
            format_table(
                ["step", "mode", "retired", "full s", "update s",
                 "speedup", "events", "patterns"],
                table_rows,
            ),
            "",
            render_checks(checks),
            f"baseline written to {out_path}",
        ]
    )
    return report, data
