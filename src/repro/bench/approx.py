"""Approx bench: sample-then-verify vs. exact out-of-core mining.

The approximate subsystem's bargain is that screening a bounded
sample and exactly verifying the survivors costs a sample's worth of
mining plus ~one read of the store, instead of a full mining run —
*and* that on a dataset whose patterns clear the bounds it misses
nothing.  This bench quantifies both halves on the synthetic planted
corpus and asserts the properties that make it trustworthy:

* **recall 1.0** — every pattern the exact miner reports is also
  reported (byte-identically, including exact supports and
  correlations) by the sample-then-verify run at ``sample_rate=0.1``;
* **no fabrications** — the verified set is a subset of the exact set
  (this holds by construction: phase 2 re-counts every candidate
  exactly; the bench re-asserts it anyway);
* **speedup** — the approximate run beats the exact run by at least
  :data:`MIN_SPEEDUP`.

Protocol: both runs are *cold* and *memory-budgeted* — the store is
split into :data:`_N_SHARDS` on-disk shards and the counting pool's
budget admits only ~1-2 shard backends at a time, the out-of-core
regime the partitioned path exists for (paper Section 5's
disk-resident cost model).  The exact miner re-faults evicted shard
backends on every counting batch of every cell; the approximate run
reads the store once to draw its sample, screens the sample entirely
in memory, and verifies all surviving candidate chains in a single
residency pass.  Thresholds use absolute counts so both runs label
against identical minimum supports.  Backend-image persistence is
disabled for *both* runs: re-admitting an evicted shard from its
persisted image is nearly free, which would make the exact run's
churn cost — the very thing sampling avoids — vanish from the
measurement.  The bench isolates the sampling trade.

``run_approx_bench`` renders a report and writes the
machine-readable ``BENCH_approx.json`` (path overridable via
``REPRO_BENCH_APPROX_OUT``).  Its checks are its gate: ``python -m
repro bench approx`` exits 1 when any of them fails, the speedup floor
included.  ``quick=True`` (the per-Python CI smoke: ``repro bench
approx --quick``) shrinks the dataset and skips the wall-clock floor —
timing at smoke scale is scheduler noise — but keeps every
correctness check.
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
from repro.core.counting import DeltaCounter
from repro.core.flipper import FlipperMiner
from repro.core.patterns import MiningResult
from repro.data.shards import ShardedTransactionStore
from repro.datasets.synthetic import generate_synthetic

__all__ = [
    "run_approx_bench",
    "DEFAULT_OUT_PATH",
    "MIN_SPEEDUP",
    "SAMPLE_RATE",
    "CONFIDENCE",
]

DEFAULT_OUT_PATH = "BENCH_approx.json"

#: acceptance floor: the sample-then-verify run must beat the exact
#: out-of-core run by at least this factor
MIN_SPEEDUP = 2.0

#: the acceptance criterion's operating point
SAMPLE_RATE = 0.1
CONFIDENCE = 0.95

#: quick (smoke) operating point: a smaller corpus cannot support the
#: 0.1-rate bounds (the Chernoff tails need expected sample counts
#: well above 1), so the smoke samples half the rows — it checks the
#: correctness machinery, not the full bench's wall-clock trade
_QUICK_SAMPLE_RATE = 0.5

#: shard count of the store (the budget admits only a couple)
_N_SHARDS = 8

#: resident-backend budget, as a multiple of one shard's estimated
#: resident size (the pool's own truthful per-shard estimate)
_BUDGET_SHARDS = 1.6

_SAMPLE_SEED = 7


def _fingerprints(result: MiningResult) -> set[str]:
    return {
        json.dumps(pattern.to_dict(), sort_keys=True)
        for pattern in result.patterns
    }


def _budget_mb(store: ShardedTransactionStore) -> float:
    from repro.core.counting import ShardBackendPool

    probe = ShardBackendPool(store)
    largest = max(
        probe._estimate_bytes(index) for index in range(store.n_shards)
    )
    return (_BUDGET_SHARDS * largest) / (1024 * 1024)


def run_approx_bench(
    out_path: str | os.PathLike[str] | None = None,
    quick: bool = False,
) -> tuple[str, dict[str, object]]:
    """Run the approx bench and write ``BENCH_approx.json``."""
    if out_path is None:
        # A quick run must never silently overwrite a full-scale
        # run's output.
        default = "BENCH_approx_quick.json" if quick else DEFAULT_OUT_PATH
        out_path = os.environ.get("REPRO_BENCH_APPROX_OUT", default)
    scale = bench_scale()
    # 40x the global bench scale (capped at the paper's N = 100K,
    # which the default scale now reaches): the trade measured here —
    # sampled vs. full counting under a memory budget — only shows at
    # sizes where counting and shard residency dominate a run, and
    # the absolute sample must be large enough that the Hoeffding
    # margin stays tight (a loose margin explodes the screen's
    # candidate space, which is the screen's whole cost).
    n = min(100_000, max(5_000, round(100_000 * scale * 40)))
    sample_rate = SAMPLE_RATE
    if quick:
        n = max(12_500, n // 4)
        sample_rate = _QUICK_SAMPLE_RATE
    config = bench_config(n_transactions=n)
    database = generate_synthetic(config)
    # A selective profile (7x the Fig. 8 default, gamma=0.2): a
    # planted-pattern corpus whose flipping chains carry supports
    # well above the per-level thresholds, so the sample bounds have
    # room to work.  Absolute counts keep both runs on identical
    # resolved thresholds.
    profile = tuple(min(0.2, fraction * 7) for fraction in DEFAULT_MINSUP)
    thresholds = thresholds_for_profile(
        profile, gamma=0.2, epsilon=0.1, n_transactions=n
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-approx-") as tmp:
        store = ShardedTransactionStore.partition_database(
            database, tmp, _N_SHARDS
        )
        budget_mb = _budget_mb(store)

        # Controlled comparison: persist_images=False on both runs so
        # re-faults pay the full parse-and-rebuild cost the sampling
        # path is designed to avoid.
        exact_miner = FlipperMiner(
            store,
            thresholds,
            backend=DeltaCounter(
                store, memory_budget_mb=budget_mb, persist_images=False
            ),
        )
        started = time.perf_counter()
        exact = exact_miner.mine()
        exact_seconds = time.perf_counter() - started
        exact_pool = exact_miner.context.backend.pool  # type: ignore[attr-defined]
        rebuilds = exact_pool.rebuilds
        image_admits = exact_pool.image_admits
        # re-faults: evicted shards admitted again, by either path
        refaults = rebuilds + image_admits

        # Cold approximate run over the *same on-disk store* (fresh
        # open, fresh miner, empty pool) under the same budget.
        reopened = ShardedTransactionStore.open(tmp, database.taxonomy)
        approx_miner = FlipperMiner(
            reopened,
            thresholds,
            backend=DeltaCounter(
                reopened,
                memory_budget_mb=budget_mb,
                persist_images=False,
            ),
            sample_rate=sample_rate,
            confidence=CONFIDENCE,
            sample_seed=_SAMPLE_SEED,
        )
        started = time.perf_counter()
        approx = approx_miner.mine()
        approx_seconds = time.perf_counter() - started

    exact_fps = _fingerprints(exact)
    approx_fps = _fingerprints(approx)
    recall = (
        len(approx_fps & exact_fps) / len(exact_fps) if exact_fps else 1.0
    )
    speedup = exact_seconds / max(approx_seconds, 1e-9)
    info = dict(approx.config["approx"])

    checks = [
        ShapeCheck(
            "every exact pattern recalled, byte-identically",
            recall == 1.0 and approx_fps == exact_fps,
            f"recall {recall:.3f} "
            f"({len(approx_fps & exact_fps)}/{len(exact_fps)})",
        ),
        ShapeCheck(
            "no fabricated patterns (verified subset of exact)",
            approx_fps <= exact_fps,
            f"{len(approx_fps - exact_fps)} extra",
        ),
        ShapeCheck(
            "patterns were found",
            len(exact_fps) > 0,
            f"{len(exact_fps)} exact patterns",
        ),
        ShapeCheck(
            "screen produced candidates for every verified pattern",
            int(info["n_candidates"]) >= len(approx.patterns),
            f"{info['n_candidates']} candidates -> "
            f"{info['n_verified']} verified",
        ),
    ]
    if not quick:
        checks.append(
            ShapeCheck(
                f"sample-then-verify >= {MIN_SPEEDUP:g}x faster than "
                "exact out-of-core mining",
                speedup >= MIN_SPEEDUP,
                f"{speedup:.1f}x",
            )
        )
    data: dict[str, object] = {
        "bench": "approx",
        "scale": scale,
        "quick": quick,
        "n_transactions": n,
        "n_shards": _N_SHARDS,
        "memory_budget_mb": budget_mb,
        "persist_images": False,
        "sample_rate": sample_rate,
        "confidence": CONFIDENCE,
        "sample_seed": _SAMPLE_SEED,
        "min_speedup": MIN_SPEEDUP,
        "exact_seconds": exact_seconds,
        "exact_pool_rebuilds": rebuilds,
        "exact_pool_image_admits": image_admits,
        "exact_pool_refaults": refaults,
        "approx_seconds": approx_seconds,
        "speedup": speedup,
        "recall": recall,
        "n_exact": len(exact_fps),
        "n_candidates": info["n_candidates"],
        "n_verified": info["n_verified"],
        "n_rejected": info["n_rejected"],
        "epsilon_support": info["epsilon_support"],
        "sample_min_counts": info["sample_min_counts"],
        "phase_seconds": {
            "sample": info["sample_seconds"],
            "screen": info["screen_seconds"],
            "verify": info["verify_seconds"],
        },
        "checks_pass": all(check.passed for check in checks),
    }
    Path(out_path).write_text(json.dumps(data, indent=2) + "\n")

    table = format_table(
        ["run", "seconds", "patterns", "notes"],
        [
            [
                "exact (out-of-core)",
                f"{exact_seconds:.3f}",
                len(exact_fps),
                f"{rebuilds} rebuilds, {image_admits} image admits",
            ],
            [
                "sample-then-verify",
                f"{approx_seconds:.3f}",
                len(approx_fps),
                f"{info['n_candidates']} candidates, "
                f"{info['n_rejected']} rejected in verify",
            ],
        ],
    )
    report = "\n".join(
        [
            f"== Approx bench (synthetic scale {scale:g}, "
            f"{n} transactions, {_N_SHARDS} shards, "
            f"budget {budget_mb:.1f} MB"
            + (", quick" if quick else "")
            + ") ==",
            f"sample_rate={sample_rate:g} confidence={CONFIDENCE:g} "
            f"(support margin ±{info['epsilon_support']:.4f}, "
            f"sample thresholds {info['sample_min_counts']})",
            "",
            table,
            "",
            f"speedup: {speedup:.1f}x   recall: {recall:.3f}   "
            f"phases: sample {info['sample_seconds']:.2f}s, "
            f"screen {info['screen_seconds']:.2f}s, "
            f"verify {info['verify_seconds']:.2f}s",
            "",
            render_checks(checks),
            f"results written to {out_path}",
        ]
    )
    return report, data
