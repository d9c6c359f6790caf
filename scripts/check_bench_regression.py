#!/usr/bin/env python3
"""Perf-regression gate over the engine bench baseline.

Compares a freshly produced ``BENCH_engine.json`` against the
committed baseline and fails (exit 1) when the in-memory run's stage
totals — the summed per-stage wall-clock of the default end-to-end
mine — regressed beyond the tolerance factor.  Absolute seconds vary
across runners, so on top of the tolerance factor a regression must
also exceed an absolute noise floor (``NOISE_FLOOR_SECONDS``): at the
bench's tiny scale the totals sit in scheduler-jitter territory, and a
gate that fires on sub-millisecond cross-machine drift would be flaky
on every PR.  The floor still catches real regressions (an accidental
quadratic loop shows up as whole seconds, not milliseconds).

Checks that the current run's own shape assertions
(``checks_pass``, which include in-memory vs 3-shard pattern parity)
hold, too — a bench that fails its internal parity checks is a
regression regardless of timing.

When ``--incremental-baseline``/``--incremental-current`` are given,
the gate additionally checks ``BENCH_incremental.json``: the current
run must pass its internal checks (which include pattern parity with
a full re-mine), its +10%-delta speedup must clear the absolute
``--min-speedup`` floor, and the speedup must not have collapsed
versus the committed baseline beyond the tolerance factor (ratios
near the floor are already absorbed by the absolute check, so no
extra noise floor is needed).

``--serve-baseline``/``--serve-current`` gate ``BENCH_serve.json``
the same way: internal checks (indexed-vs-scan answer parity over
the whole workload, plus byte-parity of the served ``/v1`` responses
with the query engine) must pass, the indexed-vs-scan speedup must
clear the absolute ``--serve-min-speedup`` floor, and it must not
have collapsed versus the committed baseline beyond the tolerance
factor.  The concurrent-load block is gated on machine-independent
SLOs only — every floor is a same-run ratio, because absolute qps
and p99 swing with runner load while same-run comparisons do not:

* the bench must have driven at least ``MIN_GATE_CONCURRENCY``
  connections (a smoke run records metrics without binding SLOs and
  must not serve as the gate input),
* the asyncio front end must sustain at least
  ``--serve-min-concurrent-speedup`` times the threaded server's qps
  under mixed read/update load,
* the async mixed-phase read p99 must stay within
  ``--serve-max-blocked-ratio`` of its own read-only p99 ("no read
  blocked by an update" — snapshot swaps cool per-version caches,
  which bounds the churn; an actual reader-blocking lock would push
  the ratio toward the update duration), and
* the async mixed p99 must beat the threaded mixed p99 measured in
  the same run.

``--approx-baseline``/``--approx-current`` gate ``BENCH_approx.json``:
the current run must pass its internal checks, report **recall 1.0**
(every exact pattern recovered byte-identically by the
sample-then-verify run — approximation may trade latency, never
silently trade answers), clear the absolute ``--approx-min-speedup``
floor, and not collapse versus the committed baseline beyond the
tolerance factor.  A ``--quick`` bench file is rejected: the smoke
run skips the wall-clock floor and must not serve as the gate input.

``--window-baseline``/``--window-current`` gate
``BENCH_window.json``: the current run must pass its internal checks
(which include per-slide byte-parity of the windowed update with a
cold mine of only the surviving in-window rows, the window staying
bounded, and flip lifecycle events being emitted), its mean
windowed-slide speedup over the cold re-mine must clear the absolute
``--window-min-speedup`` floor, and the speedup must not have
collapsed versus the committed baseline beyond the tolerance factor.

``--partition-baseline``/``--partition-current`` gate
``BENCH_partition.json``: the current run must pass its internal
checks (cold *and* warm N-shard patterns byte-identical to the
1-shard run, warm admits all served from persisted images), its
image-admit-vs-rebuild speedup must clear the absolute
``--partition-min-admit-speedup`` floor, and its warm
N-shard/1-shard mine ratio must stay under the absolute
``--partition-max-mine-ratio`` ceiling.  ``--quick`` bench files are
rejected here too.

Usage::

    python scripts/check_bench_regression.py \
        --baseline BENCH_engine.json \
        --current BENCH_engine_current.json \
        --tolerance 1.5 \
        [--incremental-baseline BENCH_incremental.json \
         --incremental-current BENCH_incremental_current.json] \
        [--serve-baseline BENCH_serve.json \
         --serve-current BENCH_serve_current.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: absolute stage-total growth below this is scheduler noise, not a
#: regression (see module docstring)
NOISE_FLOOR_SECONDS = 0.05


def in_memory_stage_total(data: dict) -> float:
    """Summed per-stage seconds of the in-memory end-to-end run."""
    stages = (
        data.get("runs", {}).get("in_memory", {}).get("stage_seconds", {})
    )
    return float(sum(stages.values()))


def compare(baseline: dict, current: dict, tolerance: float) -> list[str]:
    """Return a list of regression messages (empty = gate passes)."""
    problems: list[str] = []
    if not current.get("checks_pass", False):
        problems.append(
            "current bench failed its internal shape checks "
            "(checks_pass is false)"
        )
    base_total = in_memory_stage_total(baseline)
    now_total = in_memory_stage_total(current)
    if base_total <= 0.0:
        problems.append("baseline in-memory stage totals missing or zero")
    elif now_total <= 0.0:
        problems.append("current in-memory stage totals missing or zero")
    elif (
        now_total > base_total * tolerance
        and now_total - base_total > NOISE_FLOOR_SECONDS
    ):
        problems.append(
            f"in-memory stage totals regressed: {now_total:.4f}s vs "
            f"baseline {base_total:.4f}s (> {tolerance:g}x and > "
            f"{NOISE_FLOOR_SECONDS:g}s above it)"
        )
    return problems


#: default absolute floor on the +10%-delta speedup (the incremental
#: subsystem's acceptance criterion)
MIN_SPEEDUP_10PCT = 3.0


def compare_incremental(
    baseline: dict,
    current: dict,
    tolerance: float,
    min_speedup: float = MIN_SPEEDUP_10PCT,
) -> list[str]:
    """Gate the incremental bench (empty list = gate passes)."""
    problems: list[str] = []
    if not current.get("checks_pass", False):
        problems.append(
            "current incremental bench failed its internal checks "
            "(checks_pass is false; this includes delta-vs-full "
            "pattern parity)"
        )
    now = float(current.get("speedup_10pct", 0.0))
    if now < min_speedup:
        problems.append(
            f"+10% delta speedup {now:.2f}x is below the "
            f"{min_speedup:g}x floor"
        )
    base = float(baseline.get("speedup_10pct", 0.0))
    if base <= 0.0:
        problems.append("baseline incremental speedup missing or zero")
    elif now * tolerance < base:
        problems.append(
            f"incremental speedup regressed: {now:.2f}x vs baseline "
            f"{base:.2f}x (> {tolerance:g}x collapse)"
        )
    return problems


#: default absolute floor on the indexed-vs-scan speedup (the serving
#: subsystem's acceptance criterion)
MIN_SERVE_SPEEDUP = 5.0

#: default floor on async-over-threaded qps under mixed load
MIN_SERVE_CONCURRENT_SPEEDUP = 3.0

#: default ceiling on mixed-p99 / read-only-p99 for the async server
MAX_SERVE_BLOCKED_RATIO = 20.0

#: below this many connections the concurrent SLOs were never under
#: real load; such a run must not serve as the gate input (mirrors
#: the bench's own gating threshold)
MIN_GATE_CONCURRENCY = 50


def compare_serve(
    baseline: dict,
    current: dict,
    tolerance: float,
    min_speedup: float = MIN_SERVE_SPEEDUP,
    min_concurrent_speedup: float = MIN_SERVE_CONCURRENT_SPEEDUP,
    max_blocked_ratio: float = MAX_SERVE_BLOCKED_RATIO,
) -> list[str]:
    """Gate the serve bench (empty list = gate passes)."""
    problems: list[str] = []
    if not current.get("checks_pass", False):
        problems.append(
            "current serve bench failed its internal checks "
            "(checks_pass is false; this includes indexed-vs-scan "
            "answer parity and served-bytes parity with the engine)"
        )
    now = float(current.get("speedup", 0.0))
    if now < min_speedup:
        problems.append(
            f"indexed-vs-scan speedup {now:.2f}x is below the "
            f"{min_speedup:g}x floor"
        )
    base = float(baseline.get("speedup", 0.0))
    if base <= 0.0:
        problems.append("baseline serve speedup missing or zero")
    elif now * tolerance < base:
        problems.append(
            f"serve speedup regressed: {now:.2f}x vs baseline "
            f"{base:.2f}x (> {tolerance:g}x collapse)"
        )
    conc = current.get("concurrent")
    if not isinstance(conc, dict):
        problems.append(
            "current serve bench has no concurrent-load block; "
            "regenerate it (python -m repro bench serve "
            "--concurrency 100)"
        )
        return problems
    connections = int(conc.get("concurrency", 0))
    if connections < MIN_GATE_CONCURRENCY:
        problems.append(
            f"serve bench drove only {connections} connections; the "
            f"concurrent SLOs bind at >= {MIN_GATE_CONCURRENCY} "
            "(run python -m repro bench serve --concurrency 100)"
        )
        return problems
    ratio = float(conc.get("async_over_threaded", 0.0))
    if ratio < min_concurrent_speedup:
        problems.append(
            f"async front end sustains only {ratio:.2f}x the "
            f"threaded qps under mixed load (floor "
            f"{min_concurrent_speedup:g}x)"
        )
    blocked = float(conc.get("blocked_read_ratio", 0.0))
    if not 0.0 < blocked <= max_blocked_ratio:
        problems.append(
            f"async mixed-phase read p99 is {blocked:.2f}x its "
            f"read-only p99 (ceiling {max_blocked_ratio:g}x): reads "
            "are being blocked by updates"
        )
    async_p99 = float(
        conc.get("async", {}).get("mixed", {}).get("p99_ms", 0.0)
    )
    threaded_p99 = float(
        conc.get("threaded", {}).get("mixed", {}).get("p99_ms", 0.0)
    )
    if threaded_p99 <= 0.0 or async_p99 <= 0.0:
        problems.append("concurrent mixed-phase p99 metrics missing or zero")
    elif async_p99 > threaded_p99:
        problems.append(
            f"async mixed read p99 ({async_p99:.2f}ms) is worse than "
            f"the threaded baseline's ({threaded_p99:.2f}ms) in the "
            "same run"
        )
    return problems


#: default absolute floor on the sample-then-verify speedup (the
#: approximate subsystem's acceptance criterion)
MIN_APPROX_SPEEDUP = 2.0


def compare_approx(
    baseline: dict,
    current: dict,
    tolerance: float,
    min_speedup: float = MIN_APPROX_SPEEDUP,
) -> list[str]:
    """Gate the approx bench (empty list = gate passes)."""
    problems: list[str] = []
    if baseline.get("quick", False):
        problems.append(
            "committed approx baseline is a --quick smoke run; "
            "regenerate it with the full bench (python -m repro "
            "bench approx)"
        )
    if current.get("quick", False):
        problems.append(
            "current approx bench is a --quick smoke run; the gate "
            "needs the full bench (no wall-clock floor was measured)"
        )
    if not current.get("checks_pass", False):
        problems.append(
            "current approx bench failed its internal checks "
            "(checks_pass is false; this includes byte-identical "
            "recall of every exact pattern)"
        )
    recall = float(current.get("recall", 0.0))
    if recall < 1.0:
        problems.append(
            f"approx recall {recall:.3f} is below 1.0: the "
            "sample-then-verify run missed exact patterns"
        )
    now = float(current.get("speedup", 0.0))
    if now < min_speedup:
        problems.append(
            f"sample-then-verify speedup {now:.2f}x is below the "
            f"{min_speedup:g}x floor"
        )
    base = float(baseline.get("speedup", 0.0))
    if base <= 0.0:
        problems.append("baseline approx speedup missing or zero")
    elif now * tolerance < base:
        problems.append(
            f"approx speedup regressed: {now:.2f}x vs baseline "
            f"{base:.2f}x (> {tolerance:g}x collapse)"
        )
    return problems


#: default absolute floor on the mean windowed-slide speedup over a
#: cold re-mine of the window (the windowed subsystem's acceptance
#: criterion)
MIN_WINDOW_SPEEDUP = 1.2


def compare_window(
    baseline: dict,
    current: dict,
    tolerance: float,
    min_speedup: float = MIN_WINDOW_SPEEDUP,
) -> list[str]:
    """Gate the window bench (empty list = gate passes)."""
    problems: list[str] = []
    if not current.get("checks_pass", False):
        problems.append(
            "current window bench failed its internal checks "
            "(checks_pass is false; this includes per-slide pattern "
            "parity with a cold mine of the window, the window "
            "staying bounded, and flip events being emitted)"
        )
    now = float(current.get("speedup", 0.0))
    if now < min_speedup:
        problems.append(
            f"windowed-slide speedup {now:.2f}x is below the "
            f"{min_speedup:g}x floor"
        )
    base = float(baseline.get("speedup", 0.0))
    if base <= 0.0:
        problems.append("baseline window speedup missing or zero")
    elif now * tolerance < base:
        problems.append(
            f"window speedup regressed: {now:.2f}x vs baseline "
            f"{base:.2f}x (> {tolerance:g}x collapse)"
        )
    if int(current.get("events_total", 0)) <= 0:
        problems.append(
            "current window bench emitted no flip lifecycle events; "
            "the event path is dead"
        )
    return problems


#: default absolute floor on the image-admit-vs-rebuild speedup (the
#: columnar shard format's acceptance criterion)
MIN_ADMIT_SPEEDUP = 5.0

#: default absolute ceiling on the warm N-shard/1-shard mine ratio
MAX_MINE_RATIO = 2.5


def compare_partition(
    baseline: dict,
    current: dict,
    tolerance: float,
    min_admit_speedup: float = MIN_ADMIT_SPEEDUP,
    max_mine_ratio: float = MAX_MINE_RATIO,
) -> list[str]:
    """Gate the partition bench (empty list = gate passes)."""
    problems: list[str] = []
    if baseline.get("quick", False):
        problems.append(
            "committed partition baseline is a --quick smoke run; "
            "regenerate it with the full bench (python -m repro "
            "bench partition)"
        )
    if current.get("quick", False):
        problems.append(
            "current partition bench is a --quick smoke run; the "
            "gate needs the full bench (no wall-clock floors were "
            "measured)"
        )
    if not current.get("checks_pass", False):
        problems.append(
            "current partition bench failed its internal checks "
            "(checks_pass is false; this includes cold/warm N-shard "
            "pattern parity with the 1-shard run)"
        )
    admit_now = float(current.get("admit_speedup", 0.0))
    if admit_now < min_admit_speedup:
        problems.append(
            f"image-admit speedup {admit_now:.2f}x over rebuild is "
            f"below the {min_admit_speedup:g}x floor"
        )
    admit_base = float(baseline.get("admit_speedup", 0.0))
    if admit_base <= 0.0:
        problems.append("baseline partition admit speedup missing or zero")
    elif admit_now * tolerance < admit_base:
        problems.append(
            f"image-admit speedup regressed: {admit_now:.2f}x vs "
            f"baseline {admit_base:.2f}x (> {tolerance:g}x collapse)"
        )
    ratio_now = float(current.get("mine_ratio", float("inf")))
    if ratio_now > max_mine_ratio:
        problems.append(
            f"warm N-shard/1-shard mine ratio {ratio_now:.2f}x is "
            f"above the {max_mine_ratio:g}x ceiling"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", required=True, help="committed BENCH_engine.json"
    )
    parser.add_argument(
        "--current", required=True, help="freshly produced bench JSON"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.5,
        help="allowed regression factor (default: 1.5)",
    )
    parser.add_argument(
        "--incremental-baseline",
        default=None,
        help="committed BENCH_incremental.json (optional)",
    )
    parser.add_argument(
        "--incremental-current",
        default=None,
        help="freshly produced incremental bench JSON (optional)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="absolute floor on the +10%%-delta speedup (default: the "
             "baseline's recorded min_speedup_10pct, else "
             f"{MIN_SPEEDUP_10PCT:g})",
    )
    parser.add_argument(
        "--serve-baseline",
        default=None,
        help="committed BENCH_serve.json (optional)",
    )
    parser.add_argument(
        "--serve-current",
        default=None,
        help="freshly produced serve bench JSON (optional)",
    )
    parser.add_argument(
        "--serve-min-speedup",
        type=float,
        default=None,
        help="absolute floor on the indexed-vs-scan speedup (default: "
             "the baseline's recorded min_speedup, else "
             f"{MIN_SERVE_SPEEDUP:g})",
    )
    parser.add_argument(
        "--serve-min-concurrent-speedup",
        type=float,
        default=None,
        help="floor on async-over-threaded qps under mixed load "
             "(default: the baseline's recorded "
             "concurrent.min_async_over_threaded, else "
             f"{MIN_SERVE_CONCURRENT_SPEEDUP:g})",
    )
    parser.add_argument(
        "--serve-max-blocked-ratio",
        type=float,
        default=None,
        help="ceiling on async mixed-p99 over read-only-p99 "
             "(default: the baseline's recorded "
             "concurrent.max_blocked_read_ratio, else "
             f"{MAX_SERVE_BLOCKED_RATIO:g})",
    )
    parser.add_argument(
        "--approx-baseline",
        default=None,
        help="committed BENCH_approx.json (optional)",
    )
    parser.add_argument(
        "--approx-current",
        default=None,
        help="freshly produced approx bench JSON (optional)",
    )
    parser.add_argument(
        "--approx-min-speedup",
        type=float,
        default=None,
        help="absolute floor on the sample-then-verify speedup "
             "(default: the baseline's recorded min_speedup, else "
             f"{MIN_APPROX_SPEEDUP:g})",
    )
    parser.add_argument(
        "--window-baseline",
        default=None,
        help="committed BENCH_window.json (optional)",
    )
    parser.add_argument(
        "--window-current",
        default=None,
        help="freshly produced window bench JSON (optional)",
    )
    parser.add_argument(
        "--window-min-speedup",
        type=float,
        default=None,
        help="absolute floor on the mean windowed-slide speedup "
             "(default: the baseline's recorded min_speedup, else "
             f"{MIN_WINDOW_SPEEDUP:g})",
    )
    parser.add_argument(
        "--partition-baseline",
        default=None,
        help="committed BENCH_partition.json (optional)",
    )
    parser.add_argument(
        "--partition-current",
        default=None,
        help="freshly produced partition bench JSON (optional)",
    )
    parser.add_argument(
        "--partition-min-admit-speedup",
        type=float,
        default=None,
        help="absolute floor on the image-admit-vs-rebuild speedup "
             "(default: the baseline's recorded min_admit_speedup, "
             f"else {MIN_ADMIT_SPEEDUP:g})",
    )
    parser.add_argument(
        "--partition-max-mine-ratio",
        type=float,
        default=None,
        help="absolute ceiling on the warm N-shard/1-shard mine "
             "ratio (default: the baseline's recorded "
             f"max_mine_ratio, else {MAX_MINE_RATIO:g})",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 1.0:
        parser.error("tolerance must be >= 1.0")
    if (args.incremental_baseline is None) != (
        args.incremental_current is None
    ):
        parser.error(
            "--incremental-baseline and --incremental-current "
            "go together"
        )
    if (args.serve_baseline is None) != (args.serve_current is None):
        parser.error("--serve-baseline and --serve-current go together")
    if (args.approx_baseline is None) != (args.approx_current is None):
        parser.error("--approx-baseline and --approx-current go together")
    if (args.partition_baseline is None) != (args.partition_current is None):
        parser.error(
            "--partition-baseline and --partition-current go together"
        )
    if (args.window_baseline is None) != (args.window_current is None):
        parser.error("--window-baseline and --window-current go together")
    baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    current = json.loads(Path(args.current).read_text(encoding="utf-8"))
    problems = compare(baseline, current, args.tolerance)
    min_speedup = args.min_speedup
    incremental_current = None
    if args.incremental_baseline is not None:
        incremental_baseline = json.loads(
            Path(args.incremental_baseline).read_text(encoding="utf-8")
        )
        incremental_current = json.loads(
            Path(args.incremental_current).read_text(encoding="utf-8")
        )
        if min_speedup is None:
            # single source of truth: the floor the bench recorded
            min_speedup = float(
                incremental_baseline.get(
                    "min_speedup_10pct", MIN_SPEEDUP_10PCT
                )
            )
        problems += compare_incremental(
            incremental_baseline,
            incremental_current,
            args.tolerance,
            min_speedup=min_speedup,
        )
    serve_min_speedup = args.serve_min_speedup
    serve_min_concurrent = args.serve_min_concurrent_speedup
    serve_max_blocked = args.serve_max_blocked_ratio
    serve_current = None
    if args.serve_baseline is not None:
        serve_baseline = json.loads(
            Path(args.serve_baseline).read_text(encoding="utf-8")
        )
        serve_current = json.loads(
            Path(args.serve_current).read_text(encoding="utf-8")
        )
        # single source of truth: the floors the bench recorded
        base_conc = serve_baseline.get("concurrent", {})
        if serve_min_speedup is None:
            serve_min_speedup = float(
                serve_baseline.get("min_speedup", MIN_SERVE_SPEEDUP)
            )
        if serve_min_concurrent is None:
            serve_min_concurrent = float(
                base_conc.get(
                    "min_async_over_threaded",
                    MIN_SERVE_CONCURRENT_SPEEDUP,
                )
            )
        if serve_max_blocked is None:
            serve_max_blocked = float(
                base_conc.get(
                    "max_blocked_read_ratio", MAX_SERVE_BLOCKED_RATIO
                )
            )
        problems += compare_serve(
            serve_baseline,
            serve_current,
            args.tolerance,
            min_speedup=serve_min_speedup,
            min_concurrent_speedup=serve_min_concurrent,
            max_blocked_ratio=serve_max_blocked,
        )
    approx_min_speedup = args.approx_min_speedup
    approx_current = None
    if args.approx_baseline is not None:
        approx_baseline = json.loads(
            Path(args.approx_baseline).read_text(encoding="utf-8")
        )
        approx_current = json.loads(
            Path(args.approx_current).read_text(encoding="utf-8")
        )
        if approx_min_speedup is None:
            # single source of truth: the floor the bench recorded
            approx_min_speedup = float(
                approx_baseline.get("min_speedup", MIN_APPROX_SPEEDUP)
            )
        problems += compare_approx(
            approx_baseline,
            approx_current,
            args.tolerance,
            min_speedup=approx_min_speedup,
        )
    window_min_speedup = args.window_min_speedup
    window_current = None
    if args.window_baseline is not None:
        window_baseline = json.loads(
            Path(args.window_baseline).read_text(encoding="utf-8")
        )
        window_current = json.loads(
            Path(args.window_current).read_text(encoding="utf-8")
        )
        if window_min_speedup is None:
            # single source of truth: the floor the bench recorded
            window_min_speedup = float(
                window_baseline.get("min_speedup", MIN_WINDOW_SPEEDUP)
            )
        problems += compare_window(
            window_baseline,
            window_current,
            args.tolerance,
            min_speedup=window_min_speedup,
        )
    partition_min_admit = args.partition_min_admit_speedup
    partition_max_ratio = args.partition_max_mine_ratio
    partition_current = None
    if args.partition_baseline is not None:
        partition_baseline = json.loads(
            Path(args.partition_baseline).read_text(encoding="utf-8")
        )
        partition_current = json.loads(
            Path(args.partition_current).read_text(encoding="utf-8")
        )
        if partition_min_admit is None:
            # single source of truth: the floors the bench recorded
            partition_min_admit = float(
                partition_baseline.get(
                    "min_admit_speedup", MIN_ADMIT_SPEEDUP
                )
            )
        if partition_max_ratio is None:
            partition_max_ratio = float(
                partition_baseline.get("max_mine_ratio", MAX_MINE_RATIO)
            )
        problems += compare_partition(
            partition_baseline,
            partition_current,
            args.tolerance,
            min_admit_speedup=partition_min_admit,
            max_mine_ratio=partition_max_ratio,
        )
    if problems:
        print("perf-regression gate FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        "ok: in-memory stage totals = "
        f"{in_memory_stage_total(current):.4f}s "
        f"(baseline {in_memory_stage_total(baseline):.4f}s)"
    )
    if incremental_current is not None:
        print(
            f"ok: incremental +10% speedup = "
            f"{float(incremental_current.get('speedup_10pct', 0.0)):.2f}x "
            f"(floor {min_speedup:g}x)"
        )
    if serve_current is not None:
        print(
            f"ok: serve indexed-vs-scan speedup = "
            f"{float(serve_current.get('speedup', 0.0)):.2f}x "
            f"(floor {serve_min_speedup:g}x)"
        )
        conc = serve_current.get("concurrent", {})
        print(
            f"ok: serve async-over-threaded = "
            f"{float(conc.get('async_over_threaded', 0.0)):.2f}x "
            f"(floor {serve_min_concurrent:g}x), blocked-read ratio "
            f"= {float(conc.get('blocked_read_ratio', 0.0)):.2f}x "
            f"(ceiling {serve_max_blocked:g}x) at concurrency "
            f"{int(conc.get('concurrency', 0))}"
        )
    if approx_current is not None:
        print(
            f"ok: approx sample-then-verify speedup = "
            f"{float(approx_current.get('speedup', 0.0)):.2f}x "
            f"at recall {float(approx_current.get('recall', 0.0)):.3f} "
            f"(floor {approx_min_speedup:g}x)"
        )
    if window_current is not None:
        print(
            f"ok: windowed-slide speedup = "
            f"{float(window_current.get('speedup', 0.0)):.2f}x "
            f"(floor {window_min_speedup:g}x) with "
            f"{int(window_current.get('events_total', 0))} flip "
            "event(s)"
        )
    if partition_current is not None:
        print(
            f"ok: partition image-admit speedup = "
            f"{float(partition_current.get('admit_speedup', 0.0)):.2f}x "
            f"(floor {partition_min_admit:g}x), warm mine ratio = "
            f"{float(partition_current.get('mine_ratio', 0.0)):.2f}x "
            f"(ceiling {partition_max_ratio:g}x)"
        )
    print(f"perf-regression gate passed (tolerance {args.tolerance:g}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
