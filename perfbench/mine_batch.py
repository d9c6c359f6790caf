"""Workload ``mine-batch``: cold default mines of synthetic-50k.

The paper's batch job.  The corpus is
``generate_synthetic(bench_config(n_transactions=50000))`` with the
Fig. 8 default minimum supports, gamma 0.2 and epsilon 0.1; the seed
permutes its rows.  A permutation leaves the pattern set and the
amount of work unchanged (a different generator seed moves the
candidate count by up to 20%), so every seed is checked against one
reference digest and runs of different seeds stay comparable.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import time
import traceback
from collections import defaultdict
from typing import Any

from common import (
    BENCH_DIR,
    SETUP_REPEATS,
    emit,
    environment,
    median,
    peak_rss_mb,
    quantile,
    ratio,
)
import layers
from repro.bench.profiles import DEFAULT_MINSUP, bench_config, thresholds_for_profile
from repro.core.flipper import mine_flipping_patterns
from repro.core.labels import flips, label_for
from repro.core.measures import get_measure
from repro.core.patterns import FlippingPattern
from repro.core.thresholds import Thresholds
from repro.data.database import TransactionDatabase
from repro.datasets.synthetic import generate_synthetic

N_TRANSACTIONS = 50_000
GAMMA = 0.2
EPSILON = 0.1
#: a run mines at least this many times, however short ``--seconds``
MIN_MINES = 3


def thresholds() -> Thresholds:
    return thresholds_for_profile(DEFAULT_MINSUP, gamma=GAMMA, epsilon=EPSILON)


def build_corpus(seed: int) -> TransactionDatabase:
    base = generate_synthetic(bench_config(n_transactions=N_TRANSACTIONS))
    rows = [base.transaction_names(index) for index in range(len(base))]
    random.Random(seed).shuffle(rows)
    return TransactionDatabase(rows, base.taxonomy)


def digest(patterns: list[FlippingPattern]) -> str:
    """Order-free SHA-256 of a pattern set."""
    encoded = sorted(json.dumps(p.to_dict(), sort_keys=True) for p in patterns)
    return hashlib.sha256("\n".join(encoded).encode("utf-8")).hexdigest()


def reference_digest() -> str:
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    return str(spec["reference"]["mine-batch"]["digest"])


def recount(
    database: TransactionDatabase,
    limits: Thresholds,
    patterns: list[FlippingPattern],
) -> bool:
    """Recount every chain link's support straight from the
    transactions, relabel it with :mod:`repro.core.measures`, and
    check the labels flip down the chain."""
    taxonomy = database.taxonomy
    resolved = limits.resolve(taxonomy.height, database.n_transactions)
    measure = get_measure("kulczynski")
    postings: dict[int, dict[int, set[int]]] = {}
    for level in {link.level for p in patterns for link in p.links}:
        mapping = taxonomy.item_ancestor_map(level)
        index: dict[int, set[int]] = defaultdict(set)
        for tid, items in enumerate(database):
            for node in {mapping[item] for item in items}:
                index[node].add(tid)
        postings[level] = index
    for pattern in patterns:
        previous = None
        for link in pattern.links:
            tids = [postings[link.level].get(node, set()) for node in link.itemset]
            support = len(set.intersection(*tids))
            correlation = measure(support, [len(t) for t in tids])
            label = label_for(
                support,
                correlation,
                resolved.min_count(link.level),
                limits.gamma,
                limits.epsilon,
            )
            if (
                support != link.support
                or not math.isclose(correlation, link.correlation, rel_tol=1e-12)
                or label is not link.label
                or (previous is not None and not flips(previous, label))
            ):
                return False
            previous = label
    return True


def reference() -> None:
    """Print the reference digest, cross-checked against the staged
    ``partitions=1`` path (run once; recorded in ``spec.json``)."""
    database = build_corpus(0)
    default = mine_flipping_patterns(database, thresholds())
    staged = mine_flipping_patterns(database, thresholds(), partitions=1)
    print(
        json.dumps(
            {
                "digest": digest(default.patterns),
                "staged_digest": digest(staged.patterns),
                "patterns": len(default.patterns),
                "candidates": default.stats.total_candidates,
                "staged_candidates": staged.stats.total_candidates,
            }
        )
    )


def run(seed: int, seconds: float, tracing: bool) -> None:
    setups: list[float] = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        database = build_corpus(seed)
        setups.append(time.perf_counter() - started)
    limits = thresholds()

    recorder = layers.Recorder()
    plain: list[float] = []
    traced: list[float] = []
    digests: set[str] = set()
    failed = 0
    last: Any = None
    began = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - began
        done = len(plain) + len(traced)
        enough = done >= MIN_MINES and (not tracing or (plain and traced))
        if elapsed >= seconds and enough:
            break
        # traced runs mine untraced first, then traced, so the same
        # run yields the tracing overhead
        trace_this = (
            tracing
            and bool(plain)
            and (elapsed >= seconds / 2 or done >= MIN_MINES)
        )
        gc.collect()
        started = time.perf_counter()
        try:
            if trace_this:
                result = recorder.traced_root(
                    "bench.mine",
                    lambda: mine_flipping_patterns(database, limits),
                )
            else:
                result = mine_flipping_patterns(database, limits)
        except Exception:  # noqa: BLE001 - counted, the run goes on
            traceback.print_exc()
            failed += 1
            if failed > MIN_MINES:
                raise
            continue
        (traced if trace_this else plain).append(time.perf_counter() - started)
        digests.add(digest(result.patterns))
        last = result
    rss = peak_rss_mb()

    expected = reference_digest()
    checks = {
        "digest_matches_reference": digests == {expected},
        "supports_recounted_and_relabelled": recount(database, limits, last.patterns),
    }
    durations = plain + traced
    env = environment(
        seed,
        tracing,
        n_transactions=database.n_transactions,
        n_items=len(database.taxonomy.item_ids),
        thresholds=list(limits.min_support),
        gamma=GAMMA,
        epsilon=EPSILON,
    )
    details = {
        "mine_s": durations,
        "setup_s": setups,
        "patterns": len(last.patterns),
        "candidates": last.stats.total_candidates,
        "digest": sorted(digests),
    }
    if tracing:
        recorder.write()
        summary = layers.SpanSummary(recorder.roots)
        values = layers.engine_metrics(summary, "bench.mine")
        values["obs.trace_overhead_ratio"] = ratio(median(traced), median(plain))
        metrics = layers.with_defaults(values)
    else:
        metrics = {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (rss, "MB"),
            "op_p50_ms": (median(plain) * 1000.0, "ms"),
            "op_p80_ms": (quantile(plain, 0.8) * 1000.0, "ms"),
        }
    emit("mine-batch", env, details, checks, len(durations) + failed, failed, metrics)
