"""Traced runs: spans around the public calls into each layer, and the
per-layer metrics folded out of them.

Untraced runs touch nothing here.  A traced run creates a
:class:`Recorder` and calls its :meth:`~Recorder.install`, which wraps
the public entry points listed in :data:`WRAPPED` in spans.  The
wrappers record under the tracer of :mod:`repro.obs.tracing`, so the
engine's own ``mine``/``cell``/``generate``/``count``/``label``/
``prune``/``update``/``retire`` spans nest under them in one tree.
Calls that arrive where no tracer is installed -- a request on the
event loop, an update in the executor thread (``run_in_executor``
does not carry context variables across threads) -- open a tracer of
their own for the call; the recorder keeps its finished root spans
in memory until the run ends, then writes them out aggregated.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from typing import Any, Callable

from common import histogram_quantile, median, ratio, series_total
from repro.core.counting import DeltaCounter
from repro.data.shards import ShardedTransactionStore
from repro.engine.incremental import IncrementalMiner
from repro.obs import catalog
from repro.obs.tracing import Span, Tracer, current_tracer, render_trace, trace
from repro.serve.api import PatternAPI
from repro.serve.query import QueryEngine
from repro.serve.store import PatternStore

#: (owner, method, span name, opens a tracer when none is installed)
WRAPPED: list[tuple[type, str, str, bool]] = [
    (IncrementalMiner, "update", "bench.update", False),
    (ShardedTransactionStore, "append_batch", "data.append_batch", False),
    (ShardedTransactionStore, "retire_shards", "data.retire_shards", False),
    (DeltaCounter, "refresh", "counting.refresh", False),
    (DeltaCounter, "retire", "counting.retire", False),
    (PatternStore, "apply_result", "store.apply_result", False),
    (QueryEngine, "execute", "query.execute", False),
    (PatternAPI, "dispatch", "http.dispatch", True),
    (PatternAPI, "run_update", "http.run_update", True),
]

#: every per-layer metric: (name, unit, better); BENCHMARK.json lists
#: the same, and a layer that does no work on a workload reports 0
PER_LAYER: list[tuple[str, str, str]] = [
    ("engine.prepare_s", "s", "lower"),
    ("engine.generate_s", "s", "lower"),
    ("engine.count_s", "s", "lower"),
    ("engine.label_s", "s", "lower"),
    ("engine.prune_s", "s", "lower"),
    ("engine.candidates", "count", "lower"),
    ("engine.counted", "count", "lower"),
    ("engine.cells", "count", "lower"),
    ("engine.useful_ratio", "ratio", "higher"),
    ("counting.scans", "count", "lower"),
    ("counting.delta.refresh_s", "s", "lower"),
    ("counting.delta.retire_s", "s", "lower"),
    ("counting.delta.cached_itemsets", "count", "lower"),
    ("counting.delta.hit_ratio", "ratio", "higher"),
    ("counting.pool.admits_build", "count", "lower"),
    ("counting.pool.admits_image", "count", "higher"),
    ("counting.pool.evictions", "count", "lower"),
    ("data.append_s", "s", "lower"),
    ("data.retire_s", "s", "lower"),
    ("data.store_bytes_per_row", "B/row", "lower"),
    ("data.mapped_bytes", "B", "lower"),
    ("data.shards_decoded", "count", "lower"),
    ("store.apply_s", "s", "lower"),
    ("store.events", "count", "higher"),
    ("store.patterns", "count", "higher"),
    ("query.execute_ms", "ms", "lower"),
    ("query.cache_hit_ratio", "ratio", "higher"),
    ("http.server_p50_ms", "ms", "lower"),
    ("http.server_p99_ms", "ms", "lower"),
    ("http.update_service_ms", "ms", "lower"),
    ("http.response_cache_hit_ratio", "ratio", "higher"),
    ("http.sheds", "count", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
]

#: engine stages reported as per-operation self time
ENGINE_STAGES = ("prepare", "generate", "count", "label", "prune")


def mining_counts(stats: Any) -> dict[str, int]:
    return {
        "candidates": stats.total_candidates,
        "counted": stats.total_counted,
        "frequent": stats.total_frequent,
        "cells": stats.cells_processed,
        "scans": stats.db_scans,
    }


class Recorder:
    """Holds the root spans of every tracer its wrappers opened."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._lock = threading.Lock()

    def install(self) -> None:
        """Wrap every entry point of :data:`WRAPPED` in a span."""
        for owner, attribute, name, root in WRAPPED:
            setattr(owner, attribute, self._wrap(getattr(owner, attribute), name, root))

    def traced_root(self, name: str, call: Callable[[], Any]) -> Any:
        """Run ``call`` under a fresh tracer, as a root span ``name``;
        a result with mining stats leaves its work counts on the span."""
        with trace() as tracer:
            with tracer.span(name) as span:
                result = call()
                stats = getattr(result, "stats", None)
                if stats is not None:
                    span.attrs.update(mining_counts(stats))
        with self._lock:
            self.roots.extend(tracer.roots)
        return result

    def write(self) -> None:
        """Write the recorded span tree, aggregated, to stderr."""
        tracer = Tracer()
        tracer.roots = self.roots
        print(render_trace(tracer), file=sys.stderr, flush=True)

    def _wrap(
        self, method: Callable[..., Any], name: str, root: bool
    ) -> Callable[..., Any]:
        @functools.wraps(method)
        def traced(*args: Any, **kwargs: Any) -> Any:
            tracer = current_tracer()
            if tracer is not None:
                with tracer.span(name) as span:
                    result = method(*args, **kwargs)
                    stats = getattr(result, "stats", None)
                    if stats is not None and name == "bench.update":
                        span.attrs.update(mining_counts(stats))
                    return result
            if not root:
                return method(*args, **kwargs)
            return self.traced_root(name, lambda: method(*args, **kwargs))

        return traced


# ---------------------------------------------------------------------------
# folding spans into per-layer numbers
# ---------------------------------------------------------------------------


class SpanSummary:
    """Per-name self time, wall times and attribute sums of a forest."""

    def __init__(self, roots: list[Span]) -> None:
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.attrs: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        stack = list(roots)
        while stack:
            span = stack.pop()
            covered = sum(child.wall_seconds for child in span.children)
            self.self_seconds[span.name] += max(0.0, span.wall_seconds - covered)
            self.walls[span.name].append(span.wall_seconds)
            for key, value in span.attrs.items():
                if isinstance(value, (int, float)):
                    self.attrs[span.name][key] += value
            stack.extend(span.children)

    def calls(self, name: str) -> int:
        return len(self.walls.get(name, ()))

    def per_op(self, names: tuple[str, ...], ops: int) -> float:
        return ratio(sum(self.self_seconds.get(n, 0.0) for n in names), ops)

    def median_ms(self, name: str) -> float:
        return median(self.walls.get(name, [])) * 1000.0


def engine_metrics(summary: SpanSummary, op_span: str) -> dict[str, float]:
    """Engine and counting-work metrics per operation (``op_span`` is
    the root of one operation: a mine or a delta update)."""
    ops = summary.calls(op_span)
    counts = summary.attrs.get(op_span, {})
    metrics = {
        f"engine.{stage}_s": summary.per_op((stage,), ops)
        for stage in ENGINE_STAGES
    }
    metrics.update(
        {
            "engine.candidates": ratio(counts.get("candidates", 0), ops),
            "engine.counted": ratio(counts.get("counted", 0), ops),
            "engine.cells": ratio(counts.get("cells", 0), ops),
            "engine.useful_ratio": ratio(
                counts.get("frequent", 0), counts.get("candidates", 0)
            ),
            "counting.scans": ratio(counts.get("scans", 0), ops),
        }
    )
    return metrics


def with_defaults(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, 0 where the layer did no work."""
    unknown = set(values) - {name for name, _unit, _better in PER_LAYER}
    if unknown:
        raise KeyError(f"not a per-layer metric: {sorted(unknown)}")
    return {
        name: (float(values.get(name, 0.0)), unit)
        for name, unit, _better in PER_LAYER
    }


def scraped_metrics(scraped: dict[str, Any]) -> dict[str, float]:
    """Per-layer numbers from the end-of-run ``/v1/metrics`` scrape
    (counters cover the server's whole life, set-up included)."""

    def hit_ratio(cache: str) -> float:
        hits = series_total(scraped, catalog.CACHE_HITS, cache=cache)
        misses = series_total(scraped, catalog.CACHE_MISSES, cache=cache)
        return ratio(hits, hits + misses)

    def server_ms(fraction: float) -> float:
        return 1000.0 * histogram_quantile(
            scraped, catalog.HTTP_REQUEST_SECONDS, fraction, route="/patterns"
        )

    return {
        "counting.pool.admits_build": series_total(
            scraped, catalog.POOL_ADMITS, kind="build"
        ),
        "counting.pool.admits_image": series_total(
            scraped, catalog.POOL_ADMITS, kind="image"
        ),
        "counting.pool.evictions": series_total(scraped, catalog.POOL_EVICTIONS),
        "data.mapped_bytes": series_total(scraped, catalog.COLUMNAR_MAPPED_BYTES),
        "data.shards_decoded": series_total(
            scraped, catalog.COLUMNAR_SHARDS_DECODED
        ),
        "store.events": series_total(scraped, catalog.EVENTS_EMITTED),
        "store.patterns": series_total(scraped, catalog.SNAPSHOT_PATTERNS),
        "query.cache_hit_ratio": hit_ratio("query"),
        "http.server_p50_ms": server_ms(0.5),
        "http.server_p99_ms": server_ms(0.99),
        "http.response_cache_hit_ratio": hit_ratio("response"),
        "http.sheds": series_total(scraped, catalog.HTTP_SHEDS),
    }
