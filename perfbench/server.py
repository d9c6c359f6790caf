"""The process under test for the HTTP workloads.

    python3 server.py --workload stream-e2e --seed 1 --workdir DIR

Builds the workload's store from the seed, serves it with
:class:`~repro.serve.aserver.AsyncPatternServer` and prints one JSON
line once it answers.  Then it reads commands from stdin: ``trace``
wraps the layers in spans (see :mod:`layers`); ``stop`` (or end of
input) drains the server and prints the final report -- peak RSS
and, when traced, the per-layer numbers only this process can see.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

import layers
from common import peak_rss_mb, ratio
from repro.serve.aserver import AsyncPatternServer
from repro.serve.store import PatternStore


def build_stream(seed: int, workdir: Path) -> tuple[PatternStore, Any]:
    import stream_e2e
    from repro.data.database import TransactionDatabase
    from repro.data.shards import ShardedTransactionStore
    from repro.engine.incremental import IncrementalMiner

    pools, taxonomy = stream_e2e.sources()
    rows = stream_e2e.initial_rows(seed, pools)
    store = ShardedTransactionStore.partition_database(
        TransactionDatabase(rows, taxonomy), workdir / "shards", stream_e2e.WINDOW
    )
    miner = IncrementalMiner(
        store, stream_e2e.thresholds(), window_shards=stream_e2e.WINDOW
    )
    return PatternStore.build(miner.mine()), miner


def build_serve() -> tuple[PatternStore, Any]:
    import serve_read

    base, generations = serve_read.corpus()
    return PatternStore.build(base), serve_read.CyclingMiner(generations)


class Traced:
    """A traced stretch of the run: its spans, and the counter
    baselines taken when it started."""

    def __init__(self, miner: Any) -> None:
        self.recorder = layers.Recorder()
        self.recorder.install()
        counter = getattr(miner, "counter", None)
        self.counter = counter
        self.hits = counter.cache_hits if counter else 0
        self.misses = counter.cache_misses if counter else 0

    def report(self, miner: Any) -> dict[str, float]:
        self.recorder.write()
        summary = layers.SpanSummary(self.recorder.roots)
        values: dict[str, float] = {
            "store.apply_s": ratio(
                summary.self_seconds.get("store.apply_result", 0.0),
                summary.calls("store.apply_result"),
            ),
            "query.execute_ms": summary.median_ms("query.execute"),
            "http.update_service_ms": summary.median_ms("http.run_update"),
        }
        counter = self.counter
        if counter is None:
            return values
        ops = summary.calls("bench.update")
        values.update(layers.engine_metrics(summary, "bench.update"))
        store = miner.store
        on_disk = sum(
            store.shard_bytes(index) + store.image_bytes(index)
            for index in range(store.n_shards)
        )
        values.update(
            {
                "counting.delta.refresh_s": summary.per_op(
                    ("counting.refresh",), ops
                ),
                "counting.delta.retire_s": summary.per_op(
                    ("counting.retire", "retire"), ops
                ),
                "counting.delta.cached_itemsets": counter.cached_itemsets,
                "counting.delta.hit_ratio": ratio(
                    counter.cache_hits - self.hits,
                    counter.cache_hits
                    - self.hits
                    + counter.cache_misses
                    - self.misses,
                ),
                "data.append_s": summary.per_op(("data.append_batch",), ops),
                "data.retire_s": summary.per_op(("data.retire_shards",), ops),
                "data.store_bytes_per_row": ratio(on_disk, store.n_transactions),
            }
        )
        return values


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.workload == "stream-e2e":
        store, miner = build_stream(args.seed, args.workdir)
    else:
        store, miner = build_serve()
    server = AsyncPatternServer(store, miner=miner).start()
    print(json.dumps({"port": server.port, "version": store.version}), flush=True)

    traced: Traced | None = None
    for line in sys.stdin:
        command = line.strip()
        if command == "trace" and traced is None:
            traced = Traced(miner)
        elif command == "stop":
            break
    server.close()
    report: dict[str, Any] = {
        "peak_rss_mb": peak_rss_mb(),
        "layers": traced.report(miner) if traced else {},
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
