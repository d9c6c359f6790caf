"""Incremental bench: delta update vs. full re-mine wall-clock.

The incremental subsystem's bargain is that appending a delta batch
and refreshing the results builds a backend for the delta only and
re-counts over shard backends already resident, instead of re-reading
the whole store.  This bench quantifies the bargain on the synthetic
benchmark dataset at +1% and +10% deltas and asserts the two
properties that make it trustworthy:

* the updated patterns are **byte-identical** to a from-scratch full
  re-mine of the grown store, and
* the +10% delta update is at least :data:`MIN_SPEEDUP_10PCT` times
  faster than the full re-mine.

Protocol, per delta size: partition the base transactions into
:data:`_N_SHARDS` on-disk shards, full-mine once through an
:class:`~repro.engine.incremental.IncrementalMiner` (building every
shard backend of its :class:`~repro.core.counting.DeltaCounter` —
this is the run a serving deployment has already paid for), then
time ``update(delta)`` against a cold full re-mine of the *same grown
store*.  Thresholds
use absolute counts (resolved against the final size), so the
update stays on the incremental path and both runs label against
identical minimum supports.

``run_incremental_bench`` renders a report and writes the
machine-readable ``BENCH_incremental.json`` (path overridable via
``REPRO_BENCH_INCREMENTAL_OUT``), which
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
from repro.core.thresholds import Thresholds
from repro.data.database import TransactionDatabase
from repro.data.shards import ShardedTransactionStore
from repro.datasets.synthetic import generate_synthetic
from repro.engine.incremental import IncrementalMiner

__all__ = ["run_incremental_bench", "DEFAULT_OUT_PATH", "MIN_SPEEDUP_10PCT"]

DEFAULT_OUT_PATH = "BENCH_incremental.json"

#: acceptance floor: a +10% delta update must beat a full re-mine by
#: at least this factor (the CI gate enforces it on every PR)
MIN_SPEEDUP_10PCT = 3.0

#: shard count of the base store
_N_SHARDS = 4

#: delta sizes exercised, as a percentage of the base transactions
_DELTA_PCTS = (1, 10)


def _fingerprint(result: MiningResult) -> str:
    return json.dumps(
        [pattern.to_dict() for pattern in result.patterns], sort_keys=True
    )


def _probe(
    base_db: TransactionDatabase,
    delta_rows: list[tuple[str, ...]],
    thresholds: Thresholds,
    directory: str,
) -> dict[str, object]:
    """One delta size: warm incremental update vs. cold full re-mine."""
    store = ShardedTransactionStore.partition_database(
        base_db, directory, _N_SHARDS
    )
    incremental = IncrementalMiner(store, thresholds)
    started = time.perf_counter()
    incremental.mine()
    initial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    updated = incremental.update(delta_rows)
    update_seconds = time.perf_counter() - started

    # Cold full re-mine of the *same grown store* (fresh open, fresh
    # miner, empty caches) — what serving fresh results used to cost.
    grown = ShardedTransactionStore.open(directory, base_db.taxonomy)
    full_miner = FlipperMiner(grown, thresholds)
    started = time.perf_counter()
    full = full_miner.mine()
    full_seconds = time.perf_counter() - started

    return {
        "delta_rows": len(delta_rows),
        "initial_seconds": initial_seconds,
        "update_seconds": update_seconds,
        "full_seconds": full_seconds,
        "speedup": full_seconds / max(update_seconds, 1e-9),
        "n_patterns": len(updated.patterns),
        "mode": updated.config["incremental"]["mode"],
        "patterns_identical": _fingerprint(updated) == _fingerprint(full),
    }


def run_incremental_bench(
    out_path: str | os.PathLike[str] | None = None,
) -> tuple[str, dict[str, object]]:
    """Run the incremental bench and write ``BENCH_incremental.json``."""
    if out_path is None:
        out_path = os.environ.get(
            "REPRO_BENCH_INCREMENTAL_OUT", DEFAULT_OUT_PATH
        )
    scale = bench_scale()
    # 20x the global bench scale (capped at the paper's N = 100K):
    # the trade this bench measures — delta counting vs. full
    # counting — scales with the transaction count, while candidate
    # generation and labeling do not, so it only shows at sizes where
    # counting dominates a cell visit.
    n_base = min(100_000, max(5_000, round(100_000 * scale * 20)))
    config = bench_config(n_transactions=n_base)
    largest_delta = max(_DELTA_PCTS)
    total = n_base + (n_base * largest_delta) // 100
    database = generate_synthetic(config.scaled(n_transactions=total))
    rows = [database.transaction_names(index) for index in range(total)]
    base_db = TransactionDatabase(rows[:n_base], database.taxonomy)
    # Absolute minimum supports resolved against the final size keep
    # every run on identical thresholds (no incremental fallback, and
    # the full re-mine labels against the same counts).  The profile
    # is 7x the Fig. 8 default — a selective candidate space whose
    # labels are stable under stationary deltas — and γ = 0.2 (rather
    # than 0.3) keeps flipping chains alive on the synthetic data.
    profile = tuple(min(0.2, fraction * 7) for fraction in DEFAULT_MINSUP)
    thresholds = thresholds_for_profile(
        profile, gamma=0.2, epsilon=0.1, n_transactions=total
    )

    probes: dict[str, dict[str, object]] = {}
    for pct in _DELTA_PCTS:
        delta = rows[n_base : n_base + (n_base * pct) // 100]
        with tempfile.TemporaryDirectory(
            prefix="repro-bench-incremental-"
        ) as tmp:
            probes[f"delta={pct}%"] = _probe(base_db, delta, thresholds, tmp)

    speedup_10 = float(probes[f"delta={largest_delta}%"]["speedup"])  # type: ignore[arg-type]
    checks = [
        ShapeCheck(
            "updated patterns byte-identical to a full re-mine",
            all(
                bool(probe["patterns_identical"]) for probe in probes.values()
            ),
            ", ".join(
                f"{name}: {probe['n_patterns']} patterns"
                for name, probe in probes.items()
            ),
        ),
        ShapeCheck(
            "updates stayed on the incremental path",
            all(probe["mode"] == "incremental" for probe in probes.values()),
            ", ".join(str(probe["mode"]) for probe in probes.values()),
        ),
        ShapeCheck(
            f"+10% delta update >= {MIN_SPEEDUP_10PCT:g}x faster than "
            "full re-mine",
            speedup_10 >= MIN_SPEEDUP_10PCT,
            f"{speedup_10:.1f}x",
        ),
        ShapeCheck(
            "patterns were found",
            all(int(probe["n_patterns"]) > 0 for probe in probes.values()),  # type: ignore[call-overload]
            ", ".join(
                str(probe["n_patterns"]) for probe in probes.values()
            ),
        ),
    ]
    data: dict[str, object] = {
        "bench": "incremental",
        "scale": scale,
        "n_base_transactions": n_base,
        "n_shards": _N_SHARDS,
        "min_speedup_10pct": MIN_SPEEDUP_10PCT,
        "runs": probes,
        "speedup_10pct": speedup_10,
        "checks_pass": all(check.passed for check in checks),
    }
    Path(out_path).write_text(json.dumps(data, indent=2) + "\n")

    table_rows = [
        [
            name,
            probe["delta_rows"],
            f"{probe['full_seconds']:.3f}",
            f"{probe['update_seconds']:.3f}",
            f"{probe['speedup']:.1f}x",
            probe["n_patterns"],
        ]
        for name, probe in probes.items()
    ]
    report = "\n".join(
        [
            f"== Incremental bench (synthetic scale {scale:g}, "
            f"{n_base} base transactions, {_N_SHARDS} shards) ==",
            "full = cold re-mine of the grown store; "
            "update = warm delta update of the same store",
            "",
            format_table(
                ["config", "rows", "full s", "update s", "speedup",
                 "patterns"],
                table_rows,
            ),
            "",
            render_checks(checks),
            f"baseline written to {out_path}",
        ]
    )
    return report, data
