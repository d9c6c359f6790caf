#!/usr/bin/env python3
"""Quickstart: mine flipping correlations from the paper's toy data.

This walks the whole public API on the ten-transaction example of the
paper's Fig. 4: build a taxonomy, bind transactions, mine, and read
the resulting chain.  Expected output: the single flipping pattern
{a11, b11} whose correlation flips positive -> negative -> positive
down the hierarchy (paper Fig. 5).

Run:  python examples/quickstart.py

Hacking on the repo itself?  `flipper-mine analyze` runs the
project's invariant linter (snapshot immutability, atomic writes,
async-blocking, error contracts — see "Enforced invariants" in
ARCHITECTURE.md) over `src` and `scripts`; CI fails on any finding
not in the committed baseline.
"""

from repro import (
    Taxonomy,
    Thresholds,
    TransactionDatabase,
    mine_flipping_patterns,
)


def main() -> None:
    # 1. The taxonomy (is-a hierarchy).  Leaves are the transaction
    #    items; internal nodes are their generalizations.
    taxonomy = Taxonomy.from_dict(
        {
            "a": {"a1": ["a11", "a12"], "a2": ["a21", "a22"]},
            "b": {"b1": ["b11", "b12"], "b2": ["b21", "b22"]},
        }
    )
    print(taxonomy.describe())
    print()

    # 2. The transactions (paper Fig. 4, D1..D10).
    transactions = [
        ["a11", "a22", "b11", "b22"],
        ["a11", "a21", "b11"],
        ["a12", "a21"],
        ["a12", "a22", "b21"],
        ["a12", "a22", "b21"],
        ["a12", "a21", "b22"],
        ["a21", "b12"],
        ["b12", "b21", "b22"],
        ["b12", "b21"],
        ["a22", "b12", "b22"],
    ]
    database = TransactionDatabase(transactions, taxonomy)
    print(database.describe())
    print()

    # 3. Thresholds: positive when Kulc >= 0.6, negative when
    #    Kulc <= 0.35, minimum support 1 transaction at every level
    #    (Example 3).
    thresholds = Thresholds(gamma=0.6, epsilon=0.35, min_support=1)

    # 4. Mine.  The default configuration is the full Flipper algorithm
    #    (flipping + TPG + SIBP pruning) with the Kulczynski measure.
    result = mine_flipping_patterns(database, thresholds)

    print(f"found {len(result.patterns)} flipping pattern(s):")
    for pattern in result.patterns:
        print()
        print(pattern.describe())

    # 5. Instrumentation: how much work did the pruning save?
    print()
    print(result.stats.summary())

    # 6. Counting backends: every stage counts its candidate batch
    #    through one counting backend (see ARCHITECTURE.md).  The
    #    default is a vertical bitmap index; backend="horizontal"
    #    counts the way the paper does, one sequential scan per
    #    batch — the same patterns, with the scan cost visible in
    #    the run statistics.
    scanned = mine_flipping_patterns(
        database, thresholds, backend="horizontal"
    )
    assert [p.to_dict() for p in scanned.patterns] == [
        p.to_dict() for p in result.patterns
    ]
    print()
    print(
        "horizontal backend found the same patterns in "
        f"{scanned.stats.db_scans} scans (bitmap: {result.stats.db_scans})"
    )

    # 7. Scaling past memory: `partitions=N` splits the transactions
    #    into N on-disk shards and mines SON-style — every shard is
    #    counted through its own backend and per-shard counts are
    #    merged into exact global supports, so the patterns are
    #    byte-identical to the in-memory run.  `memory_budget_mb`
    #    bounds how much per-shard counting state stays resident
    #    (evicted shards are re-read from disk).  On the command line
    #    the same knobs are `--partitions` / `--memory-budget-mb`.
    partitioned = mine_flipping_patterns(
        database, thresholds, partitions=3, memory_budget_mb=16
    )
    assert [p.to_dict() for p in partitioned.patterns] == [
        p.to_dict() for p in result.patterns
    ]
    print(
        f"partitioned run ({partitioned.config['partitions']} shards) "
        "found the same patterns"
    )

    # 8. Growing data: a partitioned miner accepts streaming deltas.
    #    `update(batch)` appends the new transactions to the shard
    #    store as a fresh shard, builds a counting backend for that
    #    shard only (the others stay resident), re-mines and returns
    #    patterns byte-identical to re-mining everything from
    #    scratch.  On the command line: `flipper-mine mine
    #    --append delta.basket` or the persistent `flipper-mine
    #    update --store DIR --append delta.basket`.
    from repro import FlipperMiner

    # (the miner owns the temporary shard directory it split the
    # database into; leaving the `with` block removes it)
    with FlipperMiner(database, thresholds, partitions=2) as streaming:
        streaming.mine()
        updated = streaming.update([["a11", "b11", "a21"], ["a11", "b11"]])
    everything = mine_flipping_patterns(
        TransactionDatabase(
            transactions + [["a11", "b11", "a21"], ["a11", "b11"]],
            taxonomy,
        ),
        thresholds,
    )
    assert [p.to_dict() for p in updated.patterns] == [
        p.to_dict() for p in everything.patterns
    ]
    info = updated.config["incremental"]
    print(
        f"delta update ({info['delta_rows']} rows, {info['mode']} mode) "
        "matches a full re-mine"
    )

    # 9. Serving: a PatternStore puts the mined patterns behind
    #    inverted indexes (leaf item, taxonomy node at any chain
    #    level, signature, height) plus sorted measure arrays, so
    #    queries resolve in O(log n) instead of scanning.  A Query
    #    composes filters + ordering + pagination; answers are
    #    exactly what a brute-force scan returns.  On the command
    #    line: `flipper-mine query --store DIR --items a11`, or
    #    `flipper-mine serve ... --port 8787` to put the same store
    #    behind a JSON HTTP API (GET /v1/patterns, POST /v1/update).
    from repro.serve import PatternStore, Query, QueryEngine, linear_scan

    store = PatternStore.build(result)
    engine = QueryEngine(store)
    query = Query(contains_items=("a11",), sort_by="min_gap", limit=5)
    answer = engine.execute(query)
    assert answer.ids == linear_scan(store, query).ids
    print()
    print(
        f"pattern store v{store.version} serves {answer.total} "
        f"match(es) for items=a11 via plan: {answer.plan.describe()}"
    )
    # updates re-feed the store; only changed patterns reindex (the
    # next immutable snapshot is built copy-on-write and published
    # by one atomic reference swap), the version bumps, and
    # cached/paginating readers fail loudly instead of seeing a mix
    # of two generations
    diff = store.apply_result(updated)
    print(
        f"after the delta: store v{store.version} "
        f"(+{diff['added']} ~{diff['changed']} -{diff['removed']})"
    )

    # 9b. The HTTP API is versioned under /v1 and served by the
    #     asyncio server (`flipper-mine serve`: one event loop, a
    #     bounded update queue, a byte-level response cache, and
    #     `--workers N` SO_REUSEPORT replicas).  PatternAPI is its
    #     route layer; driving it directly shows the exact wire
    #     contract without a socket:
    #
    #       GET  /v1/patterns        query params: items, under,
    #            signature, min/max_height, min/max_corr(elation),
    #            min/max_support, sort, order, limit, offset —
    #            plus cursor (opaque continuation) and
    #            expect_version (409 if the store moved)
    #       GET  /v1/patterns/{id}   one pattern or a 404 envelope
    #       GET  /v1/stats           store/cache/server counters
    #       GET  /v1/healthz         status, store_version, queue
    #       POST /v1/update          {"transactions": [[item, ...]]}
    #
    #     Every 4xx/5xx is {"error": {"code", "message", "detail"}};
    #     unknown query params and body fields are loud 400s, and a
    #     path outside /v1 is a 404.  Responses carry an ETag keyed
    #     on the snapshot version (If-None-Match => 304), and page
    #     cursors pin the version: a mid-walk update answers 409
    #     stale_cursor rather than silently skipping patterns.
    import json

    from repro.serve import PatternAPI

    api = PatternAPI(QueryEngine(store))
    page = json.loads(
        api.dispatch("GET", "/v1/patterns?sort=support&limit=1").encode()
    )
    assert page["store_version"] == store.version
    error = json.loads(
        api.dispatch("GET", "/v1/patterns/no-such-id").encode()
    )["error"]
    assert error["code"] == "not_found"
    print(
        f"/v1/patterns answers {page['count']}/{page['total']} "
        f"pattern(s); next_cursor={page.get('next_cursor', '-')!s}"
    )

    # 10. Approximate mining: `sample_rate=` screens a sample of the
    #     data under thresholds relaxed by Hoeffding/Chernoff bounds
    #     at the chosen confidence, then exactly re-counts the
    #     surviving candidate chains — so reported patterns always
    #     carry exact supports and correlations, and the only
    #     residual risk (probability <= 1 - confidence) is a *miss*,
    #     never a fabrication.  On ten transactions the sample is
    #     most of the data and the bounds are wide; at production
    #     sizes the same call mines a fraction of the store (see
    #     `python -m repro bench approx` and `flipper-mine explain
    #     --approx` for the bound math).
    approximate = mine_flipping_patterns(
        database,
        thresholds,
        sample_rate=0.8,
        confidence=0.9,
        sample_seed=1,
    )
    exact_set = {tuple(p.leaf_names) for p in result.patterns}
    approx_set = {tuple(p.leaf_names) for p in approximate.patterns}
    assert approx_set <= exact_set  # verified ⇒ never a false pattern
    info = approximate.config["approx"]
    print()
    print(
        f"approximate mine: {info['n_sample']}/{info['n_total']} rows "
        f"screened, {info['n_candidates']} candidate(s) -> "
        f"{info['n_verified']} exact-verified "
        f"(support margin ±{info['epsilon_support']:.3f})"
    )

    # 11. Sliding windows + flip lifecycle events: `window_shards=W`
    #     keeps only the newest W shards alive.  Each update appends
    #     the delta as a fresh shard, retires whatever fell out of
    #     the window — the survivor manifest commits atomically and
    #     the retired shards' cached counts are *subtracted exactly*,
    #     so the result is byte-identical to a cold mine of only the
    #     in-window rows (crash leftovers are swept by `flipper-mine
    #     store gc`).  Feeding each result to the PatternStore diffs
    #     the generations into flip_started / flip_stopped /
    #     flip_level_changed events, which `GET /v1/events?
    #     since_version=N&timeout=S` long-polls on the server —
    #     versions in the payload are real store generations, so
    #     resuming from `next_since` never misses a transition.
    from repro.engine.incremental import IncrementalMiner

    with IncrementalMiner(
        TransactionDatabase(transactions, taxonomy),
        thresholds,
        partitions=2,
        window_shards=2,
    ) as windowed:
        live = PatternStore.build(windowed.mine())
        since = live.version
        # a delta with no a11/b11 co-occurrence slides the window off
        # the flipping pattern's supporting rows
        slid = windowed.update([["a12", "b21"], ["a22", "b12"]] * 5)
        assert windowed.store.n_shards == 2  # the window bound held
    live.apply_result(slid)
    events, truncated = live.events_since(since)
    info = slid.config["incremental"]
    assert info["mode"] == "windowed"
    assert not truncated
    print()
    print(
        f"windowed slide: retired {info['retired_shards']} shard(s) "
        f"({info['retired_rows']} rows), "
        f"{len(events)} flip event(s): "
        f"{[event.type for event in events]}"
    )


if __name__ == "__main__":
    main()
