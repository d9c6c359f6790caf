"""Workload ``stream-e2e``: deltas through ``POST /v1/update`` into a
windowed miner, with reads beside them.

The server process runs ``AsyncPatternServer`` over
``IncrementalMiner(store, thresholds, window_shards=WINDOW)`` on a
columnar shard store.  The stream has the shape of ``repro bench
window``'s: delta rows come from three synthetic generator seeds in
phases of :data:`PHASE` deltas, and every other phase adds solo rows
of the strongest initial pattern's head item, so flips start and stop
and ``/v1/events`` has something to deliver.  The taxonomy is
narrower than the window bench's (500 items, 3 levels, width 3) so a
slide costs about 0.15 s and a 25 s run holds 50 deltas.
Which rows make up each shard is fixed; the seed shuffles the rows of
every shard and draws the reads.  Drawing the rows themselves from
the seed moved the median delta time by up to 30% between seeds.

op = one delta, timed from its due time to its ``200``: the swap to
the new snapshot happens before the response, so at the ``200``
readers see the new version.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from pathlib import Path
from typing import Any

from common import (
    SETUP_REPEATS,
    Connection,
    emit,
    environment,
    median,
    ratio,
    ServerProcess,
    scrape,
)
import layers
import load as loadgen
from repro.bench.profiles import bench_config, thresholds_for_profile
from repro.core.flipper import mine_flipping_patterns
from repro.core.thresholds import Thresholds
from repro.data.database import TransactionDatabase
from repro.datasets.synthetic import generate_synthetic
from repro.taxonomy.tree import Taxonomy

#: shards the window keeps; each delta is one shard
WINDOW = 4
#: rows of one delta (before the spike rows)
DELTA_ROWS = 1500
#: deltas per phase of the stream (one source, spike on or off)
PHASE = 3
#: rows each source corpus holds: two blocks of DELTA_ROWS
POOL_ROWS = 2 * DELTA_ROWS
SOURCES = 3
SPIKE_ROWS = DELTA_ROWS // 5
#: per-level minimum supports as fractions of the window's rows
PROFILE = (0.03, 0.006, 0.003)
GAMMA = 0.2
EPSILON = 0.1
#: seconds between due times of consecutive deltas (open loop)
INTERVAL = 0.5
#: deltas posted after the timed window, each followed by a check
CHECKED_SLIDES = 1


def sources() -> tuple[list[list[tuple[str, ...]]], Taxonomy]:
    config = bench_config(
        n_transactions=POOL_ROWS, n_items=500, height=3, avg_width=3.0
    )
    databases = [
        generate_synthetic(config.scaled(seed=config.seed + index))
        for index in range(SOURCES)
    ]
    pools = [
        [db.transaction_names(row) for row in range(len(db))] for db in databases
    ]
    return pools, databases[0].taxonomy


def thresholds() -> Thresholds:
    return thresholds_for_profile(
        PROFILE, gamma=GAMMA, epsilon=EPSILON, n_transactions=WINDOW * DELTA_ROWS
    )


def block(
    pools: list[list[tuple[str, ...]]], index: int, rng: random.Random
) -> list[tuple[str, ...]]:
    """Rows of the ``index``-th shard of the stream, shuffled: phases
    of PHASE shards walk the sources, then the second row blocks."""
    phase = index // PHASE
    start = (phase // SOURCES) % 2 * DELTA_ROWS
    rows = pools[phase % SOURCES][start : start + DELTA_ROWS]
    return rng.sample(rows, len(rows))


def initial_rows(seed: int, pools: list[list[tuple[str, ...]]]) -> list[tuple[str, ...]]:
    """The initial window: the stream's last WINDOW shards before 0."""
    rng = random.Random(seed)
    period = 2 * SOURCES * PHASE
    return [
        row
        for index in range(period - WINDOW, period)
        for row in block(pools, index, rng)
    ]


class Inputs:
    """Everything the load generator sends, built from the seed."""

    def __init__(self, seed: int, n_deltas: int) -> None:
        pools, self.taxonomy = sources()
        self.thresholds = thresholds()
        initial = initial_rows(seed, pools)
        #: the server partitions the initial rows into WINDOW
        #: contiguous shards
        self.initial_shards = [
            initial[index * DELTA_ROWS : (index + 1) * DELTA_ROWS]
            for index in range(WINDOW)
        ]
        mined = mine_flipping_patterns(
            TransactionDatabase(initial, self.taxonomy), self.thresholds
        )
        # starve the strongest initial pattern, as repro bench window does
        head = (
            mined.patterns[0].leaf_names[0]
            if mined.patterns
            else self.taxonomy.name_of(self.taxonomy.item_ids[0])
        )
        rng = random.Random(seed + 1)
        self.deltas: list[list[tuple[str, ...]]] = []
        for index in range(n_deltas):
            rows = block(pools, index, rng)
            if index // PHASE % 2:
                rows += [(head,)] * SPIKE_ROWS
            self.deltas.append(rows)
        self.bodies = [
            json.dumps({"transactions": [list(r) for r in rows]}).encode()
            for rows in self.deltas
        ]
        self.targets = read_targets(self.taxonomy)
        self._pick = random.Random(seed + 2)

    def pick(self) -> str:
        """A read target, skewed towards the front of the pool."""
        return self.targets[int(len(self.targets) * self._pick.random() ** 3)]


def read_targets(taxonomy: Taxonomy) -> list[str]:
    rng = random.Random(0)
    items = [taxonomy.name_of(i) for i in taxonomy.item_ids]
    nodes = [
        taxonomy.name_of(node)
        for level in range(1, taxonomy.height)
        for node in taxonomy.nodes_at_level(level)
    ]
    targets = [f"/v1/patterns?items={name}&limit=20" for name in rng.sample(items, 150)]
    targets += [f"/v1/patterns?under={name}&limit=20" for name in nodes]
    targets += [
        "/v1/patterns?signature=%2B-%2B&sort=support",
        "/v1/patterns?signature=-%2B-&sort=support",
        "/v1/patterns?limit=50",
        "/v1/patterns?min_corr=0.5&sort=min_gap&limit=10",
    ]
    rng.shuffle(targets)
    return targets


def canonical(patterns: list[dict[str, Any]]) -> list[str]:
    """Order-free, byte-comparable encoding of a pattern set."""
    return sorted(
        json.dumps({k: v for k, v in p.items() if k != "id"}, sort_keys=True)
        for p in patterns
    )


async def served_matches_cold_mine(
    conn: Connection, inputs: Inputs, posted: int
) -> bool:
    """The served pattern set equals a cold mine of the rows of the
    newest WINDOW shards after ``posted`` deltas."""
    status, body = await conn.request("GET", "/v1/patterns")
    if status != 200:
        return False
    shards = (inputs.initial_shards + inputs.deltas[:posted])[-WINDOW:]
    rows = [row for shard in shards for row in shard]
    cold = mine_flipping_patterns(
        TransactionDatabase(rows, inputs.taxonomy), inputs.thresholds
    )
    return canonical(json.loads(body)["patterns"]) == canonical(
        [p.to_dict() for p in cold.patterns]
    )


async def session(
    server: Any, inputs: Inputs, n_timed: int, seconds: float, tracing: bool
) -> tuple[loadgen.Load, dict[str, bool], dict[str, Any]]:
    writer, reader = Connection(server.port), Connection(server.port)
    try:
        load = await loadgen.drive(
            writer,
            reader,
            inputs.bodies[:n_timed],
            INTERVAL,
            lambda: [inputs.pick()],
            seconds,
            (lambda: server.command("trace")) if tracing else None,
        )
        payloads = [json.loads(w.payload) for w in load.writes if w.status == 200]
        posted = len(load.writes)
        sampled = [await served_matches_cold_mine(reader, inputs, posted)]
        for body in inputs.bodies[posted : posted + CHECKED_SLIDES]:
            status, payload = await writer.request("POST", "/v1/update", body)
            if status == 200:
                payloads.append(json.loads(payload))
            posted += 1
            sampled.append(await served_matches_cold_mine(reader, inputs, posted))
        published = {server.version} | {p["store_version"] for p in payloads}
        status, body = await reader.request("GET", "/v1/events?since_version=0")
        events = json.loads(body)["events"] if status == 200 else []
        status, body = await reader.request("GET", "/v1/metrics?format=json")
        scraped = scrape(json.loads(body)) if status == 200 else {}
    finally:
        writer.close()
        reader.close()
    checks = {
        "every_slide_windowed": bool(payloads)
        and all(p["mode"] == "windowed" for p in payloads),
        "served_equals_cold_mine_of_window": all(sampled),
        "events_delivered": bool(events),
        "event_versions_are_generations": all(
            e["version"] in published for e in events
        ),
    }
    extra = {
        "scraped": scraped,
        "events": len(events),
        "patterns_served": [p["n_patterns"] for p in payloads],
    }
    return load, checks, extra


def run(seed: int, seconds: float, tracing: bool, workdir: Path) -> None:
    n_timed = int(seconds / INTERVAL) + 1
    setups: list[float] = []
    server = None
    for attempt in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        inputs = Inputs(seed, n_timed + CHECKED_SLIDES)
        server = ServerProcess("stream-e2e", seed, workdir / f"server-{attempt}")
        setups.append(time.perf_counter() - started)
    assert server is not None
    try:
        load, checks, extra = asyncio.run(
            session(server, inputs, n_timed, seconds, tracing)
        )
    finally:
        report = server.stop()

    summary = load.summary()
    freshness = load.write_latencies()
    env = environment(
        seed,
        tracing,
        window_shards=WINDOW,
        delta_rows=DELTA_ROWS,
        spike_rows=SPIKE_ROWS,
        deltas_per_s=1.0 / INTERVAL,
        thresholds=list(inputs.thresholds.min_support),
        read_targets=len(inputs.targets),
        connections=2,
    )
    details = dict(
        summary,
        setup_s=setups,
        freshness_ms=[1000.0 * value for value in freshness],
        events=extra["events"],
        patterns_served=extra["patterns_served"],
    )
    if tracing:
        half = seconds / 2
        values = dict(report["layers"])
        values.update(layers.scraped_metrics(extra["scraped"]))
        values["obs.trace_overhead_ratio"] = ratio(
            median(load.write_latencies(since=half)),
            median(load.write_latencies(until=half)),
        )
        metrics = layers.with_defaults(values)
    else:
        metrics = {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
            "op_p50_ms": (summary["write_p50_ms"], "ms"),
            "op_p80_ms": (summary["write_p80_ms"], "ms"),
        }
    emit("stream-e2e", env, details, checks, load.attempted, load.failed, metrics)
