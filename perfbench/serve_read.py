"""Workload ``serve-read``: reads of a large pattern corpus while
snapshot swaps land beside them.  No mining.

The server process holds ``synthetic_serve_result(CORPUS)`` and a
stand-in miner that cycles :data:`GENERATIONS` precomputed
generations, each replacing :data:`SWAP_SHARE` of the patterns; the
writer posts one swap every :data:`INTERVAL` seconds (open loop).
The reader runs a closed loop of pages.  A page is one read of each
query family (:func:`read_families`) sent back to back, like a
dashboard that shows an item, its best patterns, a pair, a group, a
category page and a support band; each read is drawn, skewed towards
the front, from its family's fixed pool of targets.  The pools hold
about 12000 targets in all, far more than the server's 2048-entry
response cache, and every swap invalidates that cache.

The families cost from 0.1 ms to 8 ms a read, so the latency of
single reads is a mixture: drawn from one pool where most targets
are pairs, their 80th percentile sat on the boundary between the
pairs and the rest and moved by 40% from run to run.  Every page
carries the same mix, so page latency has one mode, with the pages
that wait behind a swap above it.

The corpus, its generations and the target pools are fixed; the seed
draws the read sequence and the spot checks, so runs of different
seeds do the same kind of work.

op = one page of six reads, timed by the client from the first
request to the last answer.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from pathlib import Path
from typing import Any
from urllib.parse import parse_qsl, urlsplit

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
from repro.bench.serve import synthetic_serve_result
from repro.core.patterns import MiningResult
from repro.serve.api import ApiResponse, PatternAPI, decode_cursor, encode_cursor, query_from_params
from repro.serve.query import QueryEngine, linear_scan
from repro.serve.store import PatternStore, pattern_id_of

CORPUS = 20_000
GENERATIONS = 4
SWAP_SHARE = 0.04
#: seconds between due times of consecutive swaps (open loop).  A swap
#: holds the interpreter lock for 1.5-2 s and pages beside it take 2-3
#: times as long.  At one swap every 10 s about 6% of the pages wait
#: behind one, so neither the median nor the 80th percentile sits on
#: the boundary between waiting and free pages (at one every 4 s a
#: fifth of the pages waited, and the 80th percentile moved with the
#: length of the swaps)
INTERVAL = 10.0
#: distinct two-item targets; with the other families, 12000 targets
#: in all (the response cache holds 2048)
PAIRS = 7_000
#: targets compared byte for byte after the timed window
SPOT_CHECKS = 8
#: generator seed of the corpus (synthetic_serve_result's default)
CORPUS_SEED = 7


def corpus() -> tuple[MiningResult, list[MiningResult]]:
    """The base corpus and the generations the stand-in miner cycles."""
    base = synthetic_serve_result(CORPUS, seed=CORPUS_SEED)
    by_id = {pattern_id_of(p): p for p in base.patterns}
    generations = []
    for index in range(GENERATIONS):
        variant = synthetic_serve_result(
            int(CORPUS * SWAP_SHARE), seed=5000 + index
        )
        merged = dict(by_id)
        merged.update((pattern_id_of(p), p) for p in variant.patterns)
        generations.append(
            MiningResult(
                patterns=list(merged.values()),
                stats=base.stats,
                config=dict(base.config, generation=index + 1),
            )
        )
    return base, generations


class CyclingMiner:
    """Stands in for a miner: ``update()`` ignores the delta and
    returns the next precomputed generation."""

    def __init__(self, generations: list[MiningResult]) -> None:
        self._generations = generations
        self._round = 0

    def update(self, transactions: object) -> MiningResult:
        result = self._generations[self._round % len(self._generations)]
        self._round += 1
        return result


def read_families() -> list[list[str]]:
    """The query families of a page, each a shuffled list of distinct
    ``/v1/patterns`` targets over the corpus namespace (categories
    ``catNN``, groups ``grpNNN``, items ``itemNNNN``)."""
    rng = random.Random(0)
    items = [f"item{i:04d}" for i in range(1, 601)]
    pairs: set[str] = set()
    while len(pairs) < PAIRS:
        a, b = rng.sample(items, 2)
        pairs.add(f"/v1/patterns?items={a},{b}")
    families = [
        [f"/v1/patterns?items={name}&limit=20" for name in items],
        [f"/v1/patterns?items={name}&sort=support&limit=50" for name in items],
        sorted(pairs),
        [
            f"/v1/patterns?under=grp{g:03d}&min_corr={corr / 100:g}&limit=20"
            for g in range(1, 81)
            for corr in range(50, 100, 5)
        ],
        [
            f"/v1/patterns?under=cat{c:02d}&sort=support&limit=50&offset={offset}"
            for c in range(1, 13)
            for offset in range(0, 2000, 10)
        ],
        [
            f"/v1/patterns?signature={signature}&min_support={lo}"
            f"&max_support={lo + 500}&sort=support&order=asc&limit=50"
            for lo in range(100, 3000, 10)
            for signature in ("%2B-%2B", "-%2B-")
        ],
    ]
    for family in families:
        rng.shuffle(family)
    return families


class Inputs:
    def __init__(self, seed: int) -> None:
        self.families = read_families()
        self.targets = [target for family in self.families for target in family]
        self._pick = random.Random(seed + 2)
        self.body = json.dumps({"transactions": []}).encode()

    def page(self) -> list[str]:
        """One target of each family, skewed towards its front."""
        return [
            family[int(len(family) * self._pick.random() ** 2)]
            for family in self.families
        ]


def expected_bytes(api: PatternAPI, target: str, version: int) -> bytes:
    """What the server must send for ``target`` at ``version``: the
    local (version 1) answer restamped with the served version."""
    payload = api.dispatch("GET", target).payload
    payload["store_version"] = version
    if "next_cursor" in payload:
        _old, offset = decode_cursor(payload["next_cursor"])
        payload["next_cursor"] = encode_cursor(version, offset)
    return ApiResponse(200, payload).encode()


def spot_check(
    swaps: int, version: int, samples: list[tuple[str, int, bytes]]
) -> dict[str, bool]:
    base, generations = corpus()
    result = generations[(swaps - 1) % GENERATIONS] if swaps else base
    store = PatternStore.build(result)
    api = PatternAPI(QueryEngine(store, cache_size=0))
    same_bytes = same_scan = True
    for target, status, body in samples:
        if status != 200:
            return {"served_equals_dispatch": False, "served_equals_linear_scan": False}
        same_bytes &= body == expected_bytes(api, target, version)
        served = json.loads(body)
        params = dict(parse_qsl(urlsplit(target).query))
        scan = linear_scan(store, query_from_params(params))
        same_scan &= (
            [p["id"] for p in served["patterns"]] == scan.ids
            and served["total"] == scan.total
        )
    return {"served_equals_dispatch": same_bytes, "served_equals_linear_scan": same_scan}


async def session(
    server: Any, inputs: Inputs, seed: int, seconds: float, tracing: bool
) -> tuple[loadgen.Load, list[tuple[str, int, bytes]], int, int, dict[str, Any]]:
    writer, reader = Connection(server.port), Connection(server.port)
    try:
        n_swaps = int(seconds / INTERVAL) + 1
        load = await loadgen.drive(
            writer,
            reader,
            [inputs.body] * n_swaps,
            INTERVAL,
            inputs.page,
            seconds,
            (lambda: server.command("trace")) if tracing else None,
        )
        swaps = [json.loads(w.payload) for w in load.writes if w.status == 200]
        version = swaps[-1]["store_version"] if swaps else server.version
        rng = random.Random(seed + 4)
        samples = []
        for target in rng.sample(inputs.targets, SPOT_CHECKS):
            pinned = f"{target}&expect_version={version}"
            status, body = await reader.request("GET", pinned)
            samples.append((target, status, body))
        status, body = await reader.request("GET", "/v1/metrics?format=json")
        scraped = scrape(json.loads(body)) if status == 200 else {}
    finally:
        writer.close()
        reader.close()
    return load, samples, len(swaps), version, scraped


def run(seed: int, seconds: float, tracing: bool, workdir: Path) -> None:
    setups: list[float] = []
    server = None
    for attempt in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        inputs = Inputs(seed)
        server = ServerProcess("serve-read", seed, workdir / f"server-{attempt}")
        setups.append(time.perf_counter() - started)
    assert server is not None
    try:
        load, samples, swaps, version, scraped = asyncio.run(
            session(server, inputs, seed, seconds, tracing)
        )
    finally:
        report = server.stop()

    checks = spot_check(swaps, version, samples)
    checks["versions_follow_swaps"] = version == server.version + swaps
    summary = load.summary()
    env = environment(
        seed,
        tracing,
        corpus_patterns=CORPUS,
        swap_share=SWAP_SHARE,
        swaps_per_s=1.0 / INTERVAL,
        read_targets=len(inputs.targets),
        reads_per_page=len(inputs.families),
        connections=2,
    )
    details = dict(summary, setup_s=setups, swaps=swaps, version=version)
    if tracing:
        half = seconds / 2
        values = dict(report["layers"])
        values.update(layers.scraped_metrics(scraped))
        values["obs.trace_overhead_ratio"] = ratio(
            median(load.read_latencies(since=half)),
            median(load.read_latencies(until=half)),
        )
        metrics = layers.with_defaults(values)
    else:
        metrics = {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
            "op_p50_ms": (summary["read_p50_ms"], "ms"),
            "op_p80_ms": (summary["read_p80_ms"], "ms"),
        }
    emit("serve-read", env, details, checks, load.attempted, load.failed, metrics)
