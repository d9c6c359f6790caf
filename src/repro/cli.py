"""Command-line interface.

The subcommands cover the library's workflows::

    flipper-mine mine     --transactions data.basket --taxonomy tax.json ...
    flipper-mine update   --store ./shards --taxonomy tax.json --append d.basket
    flipper-mine serve    --store ./shards --taxonomy tax.json ... --port 8787
    flipper-mine query    --store ./shards --items "milk,beer" --limit 10
    flipper-mine rules    --transactions data.basket --taxonomy tax.json ...
    flipper-mine generate --dataset groceries --out-dir ./data
    flipper-mine bench    fig8a fig8b ... table4 approx | all
    flipper-mine explain  [--measure kulczynski]

``mine`` runs Flipper (this paper); ``mine --sample-rate 0.1
--confidence 0.95`` switches to sample-then-verify approximate mining
(screen a sample under bound-relaxed thresholds, exactly verify the
candidates — ``explain --approx`` walks the bound math); ``mine
--append delta.basket`` additionally streams delta batches through
the incremental path and reports the refreshed patterns.  ``update`` maintains a persistent
on-disk shard store: it appends delta files as new shards (never
rewriting existing ones) and optionally re-mines the grown store.
``serve`` puts an indexed :class:`~repro.serve.store.PatternStore`
behind the JSON HTTP API (read-only from a ``save_result`` archive
via ``--result``, or live — mining at startup and accepting ``POST
/update`` deltas — from a shard store via ``--store``); ``query``
answers one-shot queries against a saved store or archive without a
server.  ``rules`` runs the related-work Cumulate pipeline
(generalized association rules with optional R-interesting pruning
and surprisingness ranking) for comparison.

(Available both as the ``flipper-mine`` console script and as
``python -m repro``.)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Sequence
from contextlib import AbstractContextManager, nullcontext
from pathlib import Path

from repro.bench.experiments import EXPERIMENTS
from repro.core.flipper import (
    FlipperMiner,
    PruningConfig,
    mine_flipping_patterns,
)
from repro.core.measures import MEASURES, get_measure
from repro.core.thresholds import Thresholds
from repro.core.topk import top_k_most_flipping
from repro.data.io import load_database, load_transactions, save_transactions
from repro.data.shards import SHARD_FORMATS, ShardedTransactionStore
from repro.datasets.census import generate_census
from repro.datasets.groceries import generate_groceries
from repro.datasets.medline import generate_medline
from repro.datasets.movies import generate_movies
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.errors import ReproError
from repro.obs.tracing import (
    Tracer,
    render_trace,
    trace,
    tracer_from_dict,
)
from repro.serve import (
    MEASURE_GETTERS,
    AsyncPatternServer,
    PatternStore,
    Query,
    QueryEngine,
    decode_cursor,
    encode_cursor,
)
from repro.taxonomy.io import load_taxonomy, save_taxonomy

__all__ = ["main", "build_parser"]

_PRUNING_CHOICES = {
    "basic": PruningConfig.basic,
    "flipping": PruningConfig.flipping_only,
    "flipping+tpg": PruningConfig.flipping_tpg,
    "full": PruningConfig.full,
}

_DATASET_GENERATORS = {
    "groceries": generate_groceries,
    "census": generate_census,
    "medline": generate_medline,
    "movies": generate_movies,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipper-mine",
        description=(
            "Mine flipping correlation patterns (Barsky et al., "
            "PVLDB 5(4), 2011)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine flipping patterns from files")
    mine.add_argument("--transactions", required=True, help="basket/jsonl file")
    mine.add_argument("--taxonomy", required=True, help="edge-text/json file")
    mine.add_argument("--gamma", type=float, required=True)
    mine.add_argument("--epsilon", type=float, required=True)
    mine.add_argument(
        "--min-support",
        required=True,
        help="comma-separated per-level fractions or counts, level 1 first",
    )
    mine.add_argument(
        "--measure", default="kulczynski", choices=sorted(MEASURES)
    )
    mine.add_argument(
        "--pruning", default="full", choices=sorted(_PRUNING_CHOICES)
    )
    mine.add_argument(
        "--backend",
        default="bitmap",
        choices=["bitmap", "horizontal"],
    )
    mine.add_argument(
        "--partitions", type=int, default=None,
        help="mine through N on-disk shards (SON partition-and-merge; "
             "output is byte-identical to the single-partition path)",
    )
    mine.add_argument(
        "--memory-budget-mb", type=float, default=None,
        help="bound resident per-shard counting state in a "
             "partitioned run; shards are evicted LRU and re-read "
             "from disk (requires --partitions)",
    )
    mine.add_argument(
        "--sample-rate", type=float, default=None,
        help="mine approximately: screen this fraction of the data "
             "under Hoeffding/Chernoff-relaxed thresholds, then "
             "exactly verify the candidates (patterns may be missed "
             "with probability <= 1 - confidence; reported patterns "
             "are always exact)",
    )
    mine.add_argument(
        "--confidence", type=float, default=None,
        help="probability the approximate screen keeps every true "
             "pattern (default: 0.95; requires --sample-rate)",
    )
    mine.add_argument(
        "--sample-method", default=None,
        choices=["stratified", "reservoir"],
        help="how the sample is drawn (default: stratified; requires "
             "--sample-rate)",
    )
    mine.add_argument(
        "--sample-seed", type=int, default=None,
        help="deterministic sampling seed (default: 0; requires "
             "--sample-rate)",
    )
    mine.add_argument("--max-k", type=int, default=None)
    mine.add_argument("--top-k", type=int, default=None,
                      help="report only the K sharpest flips")
    mine.add_argument(
        "--append", action="append", default=None, metavar="FILE",
        help="after mining, append this delta file and re-mine "
             "incrementally (repeatable; implies --partitions 1 when "
             "--partitions is not set)",
    )
    mine.add_argument("--json", action="store_true", help="JSON output")
    mine.add_argument("--stats", action="store_true", help="print run statistics")
    mine.add_argument(
        "--profile", action="store_true",
        help="trace the run and print the per-stage span tree "
             "(wall/CPU time and per-stage percentages)",
    )
    mine.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the raw span tree as JSON (implies tracing; "
             "render later with 'repro trace FILE')",
    )

    rules = sub.add_parser(
        "rules",
        help="mine generalized association rules (Cumulate baseline)",
    )
    rules.add_argument("--transactions", required=True, help="basket/jsonl file")
    rules.add_argument("--taxonomy", required=True, help="edge-text/json file")
    rules.add_argument(
        "--min-support",
        required=True,
        help="single fraction (0,1) or absolute count",
    )
    rules.add_argument("--min-confidence", type=float, required=True)
    rules.add_argument(
        "--interest", type=float, default=None,
        help="R-interesting factor (>= 1): prune rules an ancestor "
             "rule predicts within this factor",
    )
    rules.add_argument(
        "--surprise", action="store_true",
        help="rank rules by taxonomy distance (most surprising first)",
    )
    rules.add_argument("--max-k", type=int, default=None)
    rules.add_argument("--limit", type=int, default=20,
                       help="print at most this many rules")
    rules.add_argument("--json", action="store_true", help="JSON output")

    update = sub.add_parser(
        "update",
        help="append delta transactions to an on-disk shard store "
             "(and optionally re-mine it)",
    )
    update.add_argument(
        "--store", required=True,
        help="shard-store directory (see ShardedTransactionStore)",
    )
    update.add_argument("--taxonomy", required=True, help="edge-text/json file")
    update.add_argument(
        "--init-from", default=None, metavar="FILE",
        help="create the store from this transactions file when the "
             "directory is not a store yet",
    )
    update.add_argument(
        "--rows-per-shard", type=int, default=None,
        help="shard-cut size for --init-from and appended deltas",
    )
    update.add_argument(
        "--format", default="columnar", choices=sorted(SHARD_FORMATS),
        help="shard format for --init-from and appended deltas "
             "(default: columnar)",
    )
    update.add_argument(
        "--append", action="append", default=None, metavar="FILE",
        help="delta transactions file to append (repeatable)",
    )
    update.add_argument("--gamma", type=float, default=None)
    update.add_argument("--epsilon", type=float, default=None)
    update.add_argument(
        "--min-support", default=None,
        help="comma-separated per-level fractions or counts; when the "
             "three threshold options are given the grown store is "
             "mined and the patterns printed",
    )
    update.add_argument(
        "--measure", default="kulczynski", choices=sorted(MEASURES)
    )
    update.add_argument(
        "--pruning", default="full", choices=sorted(_PRUNING_CHOICES)
    )
    update.add_argument(
        "--backend",
        default="bitmap",
        choices=["bitmap", "horizontal"],
    )
    update.add_argument("--memory-budget-mb", type=float, default=None)
    update.add_argument("--max-k", type=int, default=None)
    update.add_argument("--json", action="store_true", help="JSON output")
    update.add_argument("--stats", action="store_true", help="print run statistics")

    serve = sub.add_parser(
        "serve",
        help="serve mined patterns over a JSON HTTP API",
    )
    serve.add_argument(
        "--result", default=None, metavar="FILE",
        help="save_result archive to index and serve read-only",
    )
    serve.add_argument(
        "--store", default=None, metavar="DIR",
        help="shard-store directory: mine it at startup and serve "
             "with live POST /update deltas (needs --taxonomy, "
             "--gamma, --epsilon, --min-support)",
    )
    serve.add_argument("--taxonomy", default=None, help="edge-text/json file")
    serve.add_argument("--gamma", type=float, default=None)
    serve.add_argument("--epsilon", type=float, default=None)
    serve.add_argument(
        "--min-support", default=None,
        help="comma-separated per-level fractions or counts",
    )
    serve.add_argument(
        "--measure", default="kulczynski", choices=sorted(MEASURES)
    )
    serve.add_argument(
        "--pruning", default="full", choices=sorted(_PRUNING_CHOICES)
    )
    serve.add_argument(
        "--backend",
        default="bitmap",
        choices=["bitmap", "horizontal"],
    )
    serve.add_argument("--memory-budget-mb", type=float, default=None)
    serve.add_argument("--max-k", type=int, default=None)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8787,
        help="bind port (0 picks a free one; default: 8787)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=256,
        help="LRU entries of the query-result cache",
    )
    serve.add_argument(
        "--connections", type=int, default=1024,
        help="concurrent connections the server accepts before new "
             "ones wait (default: 1024)",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="read-only replicas sharing the port via SO_REUSEPORT "
             "(needs --result; default: 1)",
    )

    query = sub.add_parser(
        "query",
        help="one-shot pattern query against a store or archive",
    )
    query.add_argument(
        "--store", default=None, metavar="PATH",
        help="pattern-store file, or a directory holding "
             "pattern_store.json (e.g. a served shard store)",
    )
    query.add_argument(
        "--result", default=None, metavar="FILE",
        help="save_result archive to index ad hoc and query",
    )
    query.add_argument(
        "--items", default=None,
        help="comma-separated leaf item names the pattern must contain",
    )
    query.add_argument(
        "--under", default=None,
        help="taxonomy node the pattern must touch at any chain level",
    )
    query.add_argument(
        "--signature", default=None,
        help="exact label trajectory, e.g. '+-+'",
    )
    query.add_argument("--min-height", type=int, default=None)
    query.add_argument("--max-height", type=int, default=None)
    query.add_argument("--min-corr", type=float, default=None)
    query.add_argument("--max-corr", type=float, default=None)
    query.add_argument("--min-support", type=int, default=None)
    query.add_argument("--max-support", type=int, default=None)
    query.add_argument(
        "--sort", default="correlation", choices=sorted(MEASURE_GETTERS)
    )
    query.add_argument("--order", default="desc", choices=["asc", "desc"])
    query.add_argument("--limit", type=int, default=None)
    query.add_argument("--offset", type=int, default=0)
    query.add_argument(
        "--cursor", default=None,
        help="resume a paginated walk from the cursor a previous "
             "--limit run printed (mutually exclusive with --offset; "
             "fails if the store moved to a new version)",
    )
    query.add_argument(
        "--plan", action="store_true",
        help="print the cost-ordered index plan the engine chose",
    )
    query.add_argument("--json", action="store_true", help="JSON output")

    generate = sub.add_parser(
        "generate", help="generate a bundled dataset to files"
    )
    generate.add_argument(
        "--dataset",
        required=True,
        choices=sorted(_DATASET_GENERATORS) + ["synthetic"],
    )
    generate.add_argument("--out-dir", required=True)
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument(
        "--n-transactions", type=int, default=None,
        help="synthetic only: number of transactions",
    )

    bench = sub.add_parser("bench", help="run evaluation experiments")
    bench.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment ids (fig8a..fig9b, table1, table4, approx) "
             "or 'all'; exits 1 if a bench reports failed checks",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="reduced-size smoke run: correctness checks only, no "
             "wall-clock floor (approx bench only)",
    )

    store = sub.add_parser(
        "store",
        help="inspect or migrate an on-disk shard store",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_migrate = store_sub.add_parser(
        "migrate",
        help="rewrite every shard into a target format (atomic: the "
             "store stays readable in its old format until the new "
             "manifest is committed)",
    )
    store_migrate.add_argument(
        "--store", required=True, metavar="DIR",
        help="shard-store directory",
    )
    store_migrate.add_argument(
        "--taxonomy", required=True, help="edge-text/json file"
    )
    store_migrate.add_argument(
        "--to", required=True, choices=sorted(SHARD_FORMATS),
        help="target shard format (columnar is the binary "
             "memory-mapped default; jsonl is the legacy text form)",
    )
    store_gc = store_sub.add_parser(
        "gc",
        help="remove orphaned shard files left behind by a crash "
             "between writing a file and committing the manifest "
             "(manifest-listed shards are never touched)",
    )
    store_gc.add_argument(
        "--store", required=True, metavar="DIR",
        help="shard-store directory",
    )
    store_gc.add_argument(
        "--taxonomy", required=True, help="edge-text/json file"
    )
    store_gc.add_argument(
        "--dry-run", action="store_true",
        help="list the orphans without deleting anything",
    )
    store_describe = store_sub.add_parser(
        "describe",
        help="per-shard format, row counts, on-disk bytes and "
             "persisted backend images",
    )
    store_describe.add_argument(
        "--store", required=True, metavar="DIR",
        help="shard-store directory",
    )
    store_describe.add_argument(
        "--taxonomy", required=True, help="edge-text/json file"
    )
    store_describe.add_argument(
        "--json", action="store_true", help="JSON output"
    )

    explain = sub.add_parser(
        "explain",
        help="describe a correlation measure, the approximate-mining "
             "bound math, or list all measures",
    )
    explain.add_argument(
        "--measure", default=None,
        help="measure name or alias; omit to list every registered "
             "measure",
    )
    explain.add_argument(
        "--approx", action="store_true",
        help="walk through the sample-then-verify bound derivation "
             "for a concrete (N, sample-rate, confidence)",
    )
    explain.add_argument(
        "--n-transactions", type=int, default=100_000,
        help="dataset size for --approx (default: 100000)",
    )
    explain.add_argument(
        "--sample-rate", type=float, default=0.1,
        help="sample rate for --approx (default: 0.1)",
    )
    explain.add_argument(
        "--confidence", type=float, default=0.95,
        help="confidence for --approx (default: 0.95)",
    )
    explain.add_argument(
        "--min-support", default=None,
        help="comma-separated per-level fractions for --approx "
             "(default: the paper's 0.01,0.001,0.0005,0.0001)",
    )
    explain.add_argument(
        "--gamma", type=float, default=0.3,
        help="positive threshold for --approx (default: 0.3)",
    )
    explain.add_argument(
        "--epsilon", type=float, default=0.1,
        help="negative threshold for --approx (default: 0.1)",
    )

    profile = sub.add_parser(
        "profile",
        help="profile a dataset and suggest per-level minimum supports",
    )
    profile.add_argument("--transactions", required=True)
    profile.add_argument("--taxonomy", required=True)
    profile.add_argument("--top", type=int, default=5)
    profile.add_argument(
        "--bottom-fraction", type=float, default=0.001,
        help="anchor for the suggested bottom-level support",
    )

    trace = sub.add_parser(
        "trace",
        help="render a saved mining trace (--trace-out JSON) as the "
             "aggregated per-stage span tree",
    )
    trace.add_argument("file", help="trace JSON written by --trace-out")

    analyze = sub.add_parser(
        "analyze",
        help="run the repo invariant linter (FLIP rules: snapshot "
             "immutability, async-blocking, atomic writes, error "
             "contract, determinism, swap discipline, metric-name "
             "catalog)",
    )
    analyze.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)",
    )
    analyze.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    analyze.add_argument(
        "--baseline", default=None,
        help="baseline file of grandfathered findings "
             "(default: analysis_baseline.json when present)",
    )
    analyze.add_argument(
        "--rule", action="append", default=None, metavar="ID",
        help="run only this rule (repeatable, e.g. --rule FLIP003)",
    )
    analyze.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to the baseline file and "
             "exit 0 (entries start with a TODO justification)",
    )
    analyze.add_argument(
        "--list-rules", action="store_true",
        help="list the rule catalogue and exit",
    )

    return parser


def _parse_min_support(text: str) -> list[float] | list[int]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    values: list[float | int] = []
    for part in parts:
        if "." in part or "e" in part.lower():
            values.append(float(part))
        else:
            values.append(int(part))
    return values  # type: ignore[return-value]


def _cmd_mine(args: argparse.Namespace) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    database = load_database(args.transactions, taxonomy)
    thresholds = Thresholds(
        gamma=args.gamma,
        epsilon=args.epsilon,
        min_support=_parse_min_support(args.min_support),
    )
    appends = list(args.append or [])
    partitions = args.partitions
    if appends and partitions is None:
        # the incremental path lives on the partitioned substrate
        partitions = 1
    if args.sample_rate is None:
        for option in ("confidence", "sample_method", "sample_seed"):
            if getattr(args, option) is not None:
                raise ReproError(
                    f"--{option.replace('_', '-')} tunes the "
                    "sample-then-verify path; pass --sample-rate too"
                )
    elif appends:
        raise ReproError(
            "--append re-mines incrementally and exactly; "
            "drop --sample-rate (or run a separate approximate mine)"
        )
    miner = FlipperMiner(
        database,
        thresholds,
        measure=args.measure,
        pruning=_PRUNING_CHOICES[args.pruning](),
        backend=args.backend,
        max_k=args.max_k,
        partitions=partitions,
        memory_budget_mb=args.memory_budget_mb,
        sample_rate=args.sample_rate,
        confidence=args.confidence,
        sample_method=args.sample_method or "stratified",
        sample_seed=args.sample_seed or 0,
    )
    tracer: Tracer | None = None
    span_scope: AbstractContextManager[Tracer | None] = (
        trace()
        if args.profile or args.trace_out is not None
        else nullcontext()
    )
    updates: list[dict[str, object]] = []
    with miner, span_scope as tracer:
        result = miner.mine()
        for path in appends:
            delta = load_transactions(path)
            started = time.perf_counter()
            result = miner.update(delta)
            info: dict[str, object] = {
                "file": str(path),
                "rows": len(delta),
                "seconds": time.perf_counter() - started,
            }
            info.update(result.config.get("incremental", {}))
            updates.append(info)
    if tracer is not None:
        if args.trace_out is not None:
            Path(args.trace_out).write_text(
                json.dumps(tracer.to_dict(), indent=2) + "\n",
                encoding="utf-8",
            )
        if args.profile:
            # keep --json stdout machine-parseable: the human report
            # goes to stderr there
            out = sys.stderr if args.json else sys.stdout
            print(render_trace(tracer), file=out)
            if not args.json:
                print()
    patterns = result.patterns
    if args.top_k is not None:
        patterns = top_k_most_flipping(patterns, k=args.top_k)
    if args.json:
        payload = {
            "config": result.config,
            "patterns": [pattern.to_dict() for pattern in patterns],
        }
        if updates:
            payload["updates"] = updates
        if args.stats:
            payload["stats"] = result.stats.to_dict()
        print(json.dumps(payload, indent=2))
    else:
        for info in updates:
            print(
                f"applied delta {info['file']}: {info['rows']} row(s) in "
                f"{info['seconds']:.3f}s ({info.get('mode', 'incremental')}"
                " mode)"
            )
        if updates:
            print()
        approx_info = result.config.get("approx")
        if approx_info:
            print(
                f"sample-then-verify: screened "
                f"{approx_info['n_sample']}/{approx_info['n_total']} "
                f"rows ({approx_info['sample_method']}, support margin "
                f"±{approx_info['epsilon_support']:.4f} at "
                f"{approx_info['confidence']:g} confidence); "
                f"{approx_info['n_candidates']} candidate(s) -> "
                f"{approx_info['n_verified']} exact-verified, "
                f"{approx_info['n_rejected']} rejected"
            )
            if approx_info["margin_clamped"]:
                print(
                    "note: the correlation margin clamped at the "
                    "gamma/epsilon midpoint — the sample is small for "
                    "these thresholds and the miss-probability "
                    "guarantee is weakened; raise --sample-rate or "
                    "lower --confidence"
                )
            print()
        print(f"{len(patterns)} flipping pattern(s)")
        for pattern in patterns:
            print()
            print(pattern.describe())
        if args.stats:
            print()
            print(result.stats.summary())
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    store_dir = Path(args.store)
    if (store_dir / "manifest.json").is_file():
        if args.init_from is not None:
            raise ReproError(
                f"{store_dir} is already a shard store; drop --init-from"
            )
        store = ShardedTransactionStore.open(store_dir, taxonomy)
    else:
        if args.init_from is None:
            raise ReproError(
                f"{store_dir} is not a shard store; pass --init-from "
                "FILE to create it"
            )
        store = ShardedTransactionStore.ingest(
            load_transactions(args.init_from),
            taxonomy,
            store_dir,
            rows_per_shard=args.rows_per_shard,
            format=args.format,
        )
        print(f"created {store.describe()}")
    appended: list[dict[str, object]] = []
    for path in args.append or []:
        rows = load_transactions(path)
        new_shards = store.append_batch(
            rows, rows_per_shard=args.rows_per_shard, format=args.format
        )
        appended.append(
            {
                "file": str(path),
                "rows": len(rows),
                "new_shards": new_shards,
            }
        )
    threshold_options = (args.gamma, args.epsilon, args.min_support)
    result = None
    if any(option is not None for option in threshold_options):
        if not all(option is not None for option in threshold_options):
            raise ReproError(
                "mining the grown store needs --gamma, --epsilon and "
                "--min-support together"
            )
        thresholds = Thresholds(
            gamma=args.gamma,
            epsilon=args.epsilon,
            min_support=_parse_min_support(args.min_support),
        )
        result = mine_flipping_patterns(
            store,
            thresholds,
            measure=args.measure,
            pruning=_PRUNING_CHOICES[args.pruning](),
            backend=args.backend,
            memory_budget_mb=args.memory_budget_mb,
            max_k=args.max_k,
        )
    if args.json:
        payload: dict[str, object] = {
            "store": str(store_dir),
            "n_transactions": store.n_transactions,
            "n_shards": store.n_shards,
            "appended": appended,
        }
        if result is not None:
            payload["config"] = result.config
            payload["patterns"] = [
                pattern.to_dict() for pattern in result.patterns
            ]
            if args.stats:
                payload["stats"] = result.stats.to_dict()
        print(json.dumps(payload, indent=2))
    else:
        for info in appended:
            shards = ", ".join(str(s) for s in info["new_shards"])  # type: ignore[union-attr]
            print(
                f"appended {info['rows']} row(s) from {info['file']} "
                f"as shard(s) [{shards}]"
            )
        print(store.describe())
        if result is not None:
            print()
            print(f"{len(result.patterns)} flipping pattern(s)")
            for pattern in result.patterns:
                print()
                print(pattern.describe())
            if args.stats:
                print()
                print(result.stats.summary())
    return 0


def _make_server(
    args: argparse.Namespace,
    store: PatternStore,
    *,
    miner: object | None = None,
    store_path: Path | None = None,
    reuse_port: bool = False,
) -> AsyncPatternServer:
    return AsyncPatternServer(
        store,
        miner=miner,
        store_path=store_path,
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        max_connections=args.connections,
        reuse_port=reuse_port,
    )


def _build_server(
    args: argparse.Namespace, *, reuse_port: bool = False
) -> AsyncPatternServer:
    """Resolve serve's ``--result``/``--store`` into a ready server.

    Factored out of :func:`_cmd_serve` so tests can build (and probe)
    the server without entering the blocking accept loop.
    """
    if (args.result is None) == (args.store is None):
        raise ReproError(
            "serve needs exactly one of --result (read-only archive) "
            "or --store (live shard store)"
        )
    if args.workers != 1 and args.result is None:
        raise ReproError(
            "--workers replicas are read-only; serve an archive with "
            "--result (live --store updates would diverge)"
        )
    if args.result is not None:
        store = PatternStore.from_archive(args.result)
        return _make_server(args, store, reuse_port=reuse_port)
    needed = (args.taxonomy, args.gamma, args.epsilon, args.min_support)
    if any(option is None for option in needed):
        raise ReproError(
            "serving a shard store needs --taxonomy, --gamma, "
            "--epsilon and --min-support (the thresholds its patterns "
            "are mined and updated under)"
        )
    from repro.engine.incremental import IncrementalMiner

    taxonomy = load_taxonomy(args.taxonomy)
    shard_store = ShardedTransactionStore.open(args.store, taxonomy)
    miner = IncrementalMiner(
        shard_store,
        Thresholds(
            gamma=args.gamma,
            epsilon=args.epsilon,
            min_support=_parse_min_support(args.min_support),
        ),
        measure=args.measure,
        pruning=_PRUNING_CHOICES[args.pruning](),
        backend=args.backend,
        memory_budget_mb=args.memory_budget_mb,
        max_k=args.max_k,
    )
    result = miner.mine()
    store_path = shard_store.directory / "pattern_store.json"
    if store_path.is_file():
        # Warm start: reindex only what moved since the last save.
        store = PatternStore.open(store_path)
        diff = store.apply_result(result)
        print(
            f"reopened pattern store v{store.version}: "
            f"+{diff['added']} ~{diff['changed']} -{diff['removed']} "
            f"patterns reindexed"
        )
    else:
        store = PatternStore.build(result)
    store.save(store_path)
    return _make_server(
        args,
        store,
        miner=miner,
        store_path=store_path,
        reuse_port=reuse_port,
    )


def _reuseport_worker(args: argparse.Namespace) -> None:
    """One SO_REUSEPORT replica: its own store, the shared port."""
    server = _build_server(args, reuse_port=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - signal path
        pass


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    multi = args.workers > 1
    if multi and args.port == 0:
        raise ReproError(
            "--workers replicas share one port via SO_REUSEPORT; pass "
            "an explicit --port"
        )
    server = _build_server(args, reuse_port=multi)
    processes: list[object] = []
    if multi:
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        processes = [
            context.Process(
                target=_reuseport_worker, args=(args,), daemon=True
            )
            for _ in range(args.workers - 1)
        ]
        for process in processes:
            process.start()  # type: ignore[attr-defined]

    def _terminate(signum: int, frame: object) -> None:
        # Graceful SIGTERM/SIGINT: unwind through the KeyboardInterrupt
        # path below so in-flight requests drain and the socket closes.
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        # The event loop runs in the server's thread; the main thread
        # waits for a signal.  Starting first binds the socket, so the
        # banner names the real port even under --port 0.
        server.start()
        read_only = args.result is not None
        print(
            f"serving {len(server.store)} pattern(s) "
            f"(store version {server.store.version}"
            f"{', read-only' if read_only else ''}"
            + (f", {args.workers} SO_REUSEPORT replicas" if multi else "")
            + f") at {server.url}",
            flush=True,
        )
        print(
            "endpoints: GET /v1/patterns  GET /v1/patterns/{id}  "
            "GET /v1/stats  POST /v1/update  GET /v1/events  "
            "GET /v1/healthz  "
            "(legacy unprefixed aliases answer with a Deprecation header)",
            flush=True,
        )
        threading.Event().wait()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous)
        for process in processes:
            process.terminate()  # type: ignore[attr-defined]
            process.join(timeout=5)  # type: ignore[attr-defined]
        server.close()
    return 0


def _load_pattern_store(args: argparse.Namespace) -> PatternStore:
    if (args.result is None) == (args.store is None):
        raise ReproError(
            "query needs exactly one of --store (saved pattern store) "
            "or --result (save_result archive)"
        )
    if args.result is not None:
        return PatternStore.from_archive(args.result)
    return PatternStore.open(args.store)


def _cmd_query(args: argparse.Namespace) -> int:
    store = _load_pattern_store(args)
    offset = args.offset
    if args.cursor is not None:
        if offset:
            raise ReproError(
                "--cursor and --offset are mutually exclusive (the "
                "cursor already encodes the resume offset)"
            )
        cursor_version, offset = decode_cursor(args.cursor)
        if cursor_version != store.version:
            raise ReproError(
                f"stale cursor: it pinned store version "
                f"{cursor_version}, the store is at {store.version}; "
                "restart the walk from page one"
            )
    query = Query(
        contains_items=tuple(
            part.strip()
            for part in (args.items or "").split(",")
            if part.strip()
        ),
        under_node=args.under,
        min_height=args.min_height,
        max_height=args.max_height,
        signature=args.signature,
        min_correlation=args.min_corr,
        max_correlation=args.max_corr,
        min_support=args.min_support,
        max_support=args.max_support,
        sort_by=args.sort,
        descending=args.order == "desc",
        limit=args.limit,
        offset=offset,
    )
    engine = QueryEngine(store, cache_size=0)
    result = engine.execute(query, use_cache=False)
    next_cursor = None
    if query.limit is not None and offset + len(result.ids) < result.total:
        next_cursor = encode_cursor(
            store.version, offset + len(result.ids)
        )
    if args.json:
        payload = result.to_dict()
        if next_cursor is not None:
            payload["next_cursor"] = next_cursor
        if args.plan and result.plan is not None:
            payload["plan"] = result.plan.describe()
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"{result.total} match(es) over {len(store)} pattern(s) "
        f"(store version {store.version})"
    )
    if args.plan and result.plan is not None:
        print(f"plan: {result.plan.describe()}")
    for pid, pattern in zip(result.ids, result.patterns):
        value = store.measure_value(args.sort, pid)
        print(f"  {pid}: {pattern} {args.sort}={value:.4f}")
    if next_cursor is not None:
        print(f"next page: --cursor {next_cursor}")
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    from repro.related import (
        cumulate_frequent_itemsets,
        generate_rules,
        itemset_surprisingness,
        prune_uninteresting,
    )

    taxonomy = load_taxonomy(args.taxonomy)
    database = load_database(args.transactions, taxonomy)
    balanced = database.taxonomy
    values = _parse_min_support(args.min_support)
    if len(values) != 1:
        raise ReproError(
            "rules takes a single min-support (Cumulate uses one "
            f"uniform threshold), got {args.min_support!r}"
        )
    frequent = cumulate_frequent_itemsets(
        database, min_support=values[0], max_k=args.max_k
    )
    rules = generate_rules(frequent, min_confidence=args.min_confidence)
    n_before = len(rules)
    if args.interest is not None:
        singles = {
            itemset[0]: support
            for itemset, support in frequent.items()
            if len(itemset) == 1
        }
        rules = prune_uninteresting(
            balanced, rules, singles, r=args.interest
        )
    if args.surprise:
        rules.sort(
            key=lambda r: -itemset_surprisingness(balanced, r.items)
        )
    shown = rules[: args.limit]
    if args.json:
        payload = {
            "n_frequent_itemsets": len(frequent),
            "n_rules": n_before,
            "n_after_interest": len(rules),
            "rules": [
                {
                    "antecedent": [
                        balanced.name_of(i) for i in rule.antecedent
                    ],
                    "consequent": [
                        balanced.name_of(i) for i in rule.consequent
                    ],
                    "support": rule.support,
                    "confidence": rule.confidence,
                }
                for rule in shown
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{len(frequent)} generalized frequent itemsets, "
            f"{n_before} rules"
            + (
                f", {len(rules)} after R-interesting (R={args.interest})"
                if args.interest is not None
                else ""
            )
        )
        for rule in shown:
            print("  " + rule.render(balanced))
        hidden = len(rules) - len(shown)
        if hidden > 0:
            print(f"  ... ({hidden} more)")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.dataset == "synthetic":
        config = SyntheticConfig()
        if args.n_transactions is not None:
            config = config.scaled(n_transactions=args.n_transactions)
        if args.seed is not None:
            config = config.scaled(seed=args.seed)
        database = generate_synthetic(config)
    else:
        generator = _DATASET_GENERATORS[args.dataset]
        kwargs: dict[str, object] = {"scale": args.scale}
        if args.seed is not None:
            kwargs["seed"] = args.seed
        database = generator(**kwargs)  # type: ignore[arg-type]
    transactions_path = out_dir / f"{args.dataset}.basket"
    taxonomy_path = out_dir / f"{args.dataset}.taxonomy.json"
    save_transactions(
        (database.transaction_names(i) for i in range(len(database))),
        transactions_path,
    )
    save_taxonomy(database.taxonomy, taxonomy_path)
    print(f"wrote {database.n_transactions} transactions -> {transactions_path}")
    print(f"wrote taxonomy ({database.taxonomy.height} levels) -> {taxonomy_path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    if args.quick and "approx" not in names:
        raise ReproError(
            "--quick is the approx bench's smoke mode; add 'approx' to "
            "the experiment list"
        )
    failed: list[str] = []
    for name in names:
        if name == "approx" and args.quick:
            report, data = EXPERIMENTS[name](quick=True)  # type: ignore[call-arg]
        else:
            report, data = EXPERIMENTS[name]()
        print(report)
        print()
        if isinstance(data, dict) and data.get("checks_pass") is False:
            failed.append(name)
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    store = ShardedTransactionStore.open(args.store, taxonomy)
    if args.store_command == "migrate":
        rewritten = store.migrate(args.to)
        print(f"rewrote {rewritten} shard(s) to {args.to}")
        print(store.describe())
        return 0
    if args.store_command == "gc":
        orphans = store.gc_orphans(dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        print(f"{verb} {len(orphans)} orphaned file(s)")
        for name in orphans:
            print(f"  {name}")
        return 0
    if args.json:
        payload = {
            "store": str(store.directory),
            "n_transactions": store.n_transactions,
            "n_shards": store.n_shards,
            "shards": [
                {
                    "index": index,
                    "file": store.shard_path(index).name,
                    "format": store.shard_format(index),
                    "rows": store.shard_sizes[index],
                    "bytes": store.shard_bytes(index),
                    "image_bytes": store.image_bytes(index),
                    "images": store.shard_images(index),
                }
                for index in range(store.n_shards)
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(store.describe())
    return 0


def _cmd_explain_approx(args: argparse.Namespace) -> int:
    """Walk the sample-then-verify bound derivation for concrete
    numbers (the math behind ``mine --sample-rate/--confidence``)."""
    from repro.approx.bounds import (
        SampleBounds,
        chernoff_sample_count,
        hoeffding_epsilon,
        required_sample_size,
    )
    from repro.core.thresholds import Thresholds

    n_total = args.n_transactions
    if n_total < 1:
        raise ReproError(
            f"--n-transactions must be >= 1, got {n_total}"
        )
    fractions = (
        _parse_min_support(args.min_support)
        if args.min_support is not None
        else [0.01, 0.001, 0.0005, 0.0001]
    )
    thresholds = Thresholds(
        gamma=args.gamma, epsilon=args.epsilon, min_support=fractions
    )
    resolved = thresholds.resolve(len(fractions), n_total)
    n_sample = max(1, round(args.sample_rate * n_total))
    bounds = SampleBounds.derive(
        resolved, n_total, n_sample, args.confidence
    )
    print("Sample-then-verify bound math (see ARCHITECTURE.md):")
    print(
        f"  data: N = {n_total} transactions, sample rate "
        f"{args.sample_rate:g} -> n = {n_sample} rows"
    )
    print(
        f"  failure budget: delta = 1 - {args.confidence:g} = "
        f"{bounds.delta:g}, split over {bounds.tests} tests "
        f"({len(fractions)} support levels + 1 correlation band) -> "
        f"delta' = {bounds.delta_per_test:.5f}"
    )
    print(
        "  Hoeffding margin: eps = sqrt(ln(1/delta') / (2n)) = "
        f"{bounds.epsilon_support:.5f}"
    )
    print(
        "  per-level screen thresholds (tighter of Hoeffding's "
        "(f - eps) * n and"
    )
    print(
        "  Chernoff's (1 - sqrt(2 ln(1/delta') / (n f))) * n f, "
        "floored at 1):"
    )
    for level, fraction in enumerate(bounds.min_fractions, start=1):
        hoeffding = (fraction - bounds.epsilon_support) * n_sample
        chernoff = chernoff_sample_count(
            fraction, n_sample, bounds.delta_per_test
        )
        print(
            f"    level {level}: exact {resolved.min_counts[level - 1]}"
            f" of N (f = {fraction:.5f}) -> sample count "
            f"{bounds.sample_min_counts[level - 1]} "
            f"(hoeffding {hoeffding:.1f}, chernoff {chernoff:.1f})"
        )
    print(
        f"  correlation band: gamma {bounds.gamma:g} / epsilon "
        f"{bounds.epsilon:g} widened per itemset by up to "
        f"m = {bounds.margin:.4f}"
        + (
            " (clamped at the gamma/epsilon midpoint)"
            if bounds.margin_clamped
            else ""
        )
    )
    print(
        "  a sampled support c maps to the full-data interval "
        "[(c/n - eps) N, (c/n + eps) N];"
    )
    print(
        "  phase 2 then re-counts every candidate exactly, so "
        "reported patterns carry"
    )
    print(
        "  exact supports; the only residual risk is a miss — any "
        "given true pattern"
    )
    print(
        f"  is kept with probability >= {args.confidence:g} "
        "(per pattern, via the union bound above)"
    )
    for target in (0.01, 0.005):
        needed = required_sample_size(target, bounds.delta_per_test)
        print(
            f"  (a ±{target:g} support margin at this confidence "
            f"needs n >= {needed} rows)"
        )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    if args.approx:
        if args.measure is not None:
            raise ReproError(
                "explain takes --measure or --approx, not both"
            )
        return _cmd_explain_approx(args)
    if args.measure is None:
        # No measure named: one line per registered measure.
        for measure in sorted(MEASURES.values(), key=lambda m: m.name):
            aliases = (
                f" (aliases: {', '.join(measure.aliases)})"
                if measure.aliases
                else ""
            )
            print(
                f"{measure.name:<16} {measure.mean_kind} mean; "
                f"null-invariant={measure.null_invariant}; "
                f"anti-monotonic={measure.anti_monotonic}{aliases}"
            )
        return 0
    measure = get_measure(args.measure)
    print(f"{measure.name}: {measure.mean_kind} mean of P(A|a_i)")
    print(f"  null-invariant:  {measure.null_invariant}")
    print(f"  anti-monotonic:  {measure.anti_monotonic}")
    if measure.aliases:
        print(f"  aliases:         {', '.join(measure.aliases)}")
    print(
        "  example:         "
        f"{measure.name}(sup=400, items=[1000, 1000]) = "
        f"{measure(400, [1000, 1000]):.3f}"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.data.profile import profile_database

    taxonomy = load_taxonomy(args.taxonomy)
    database = load_database(args.transactions, taxonomy)
    profile = profile_database(database, top=args.top)
    print(profile.describe())
    counts = profile.suggest_min_supports(
        bottom_fraction=args.bottom_fraction
    )
    print(
        "suggested per-level min supports (paper §5.1 guidance): "
        + ", ".join(str(count) for count in counts)
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.errors import DataError

    path = Path(args.file)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataError(f"no such trace file: {path}") from None
    except json.JSONDecodeError as error:
        raise DataError(f"not a trace JSON file: {path}: {error}") from None
    print(render_trace(tracer_from_dict(payload)))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import (
        RULES,
        Baseline,
        analyze_paths,
        render_text,
        report_to_dict,
        resolve_rules,
    )
    from repro.errors import DataError

    if args.list_rules:
        for rule in (RULES[rule_id] for rule_id in sorted(RULES)):
            print(f"{rule.id}  {rule.title}: {rule.contract}")
        return 0

    default_baseline = Path("analysis_baseline.json")
    baseline_path: Path | None
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        if not args.write_baseline and not baseline_path.exists():
            raise DataError(f"no such baseline file: {baseline_path}")
    else:
        baseline_path = (
            default_baseline if default_baseline.exists() else None
        )

    selected = [rule.id for rule in resolve_rules(args.rule)]
    findings = analyze_paths(args.paths, rules=args.rule)

    if args.write_baseline:
        target = baseline_path or default_baseline
        Baseline.from_findings(findings).write(target)
        print(
            f"wrote {len(findings)} entr"
            + ("y" if len(findings) == 1 else "ies")
            + f" to {target}"
        )
        return 0

    if baseline_path is not None:
        findings, stale = Baseline.load(baseline_path).match(findings)
    else:
        stale = []

    if args.format == "json":
        print(
            json.dumps(
                report_to_dict(findings, stale, selected), indent=2
            )
        )
    else:
        print(render_text(findings, stale))
    failed = stale or any(not f.baselined for f in findings)
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "mine": _cmd_mine,
        "update": _cmd_update,
        "serve": _cmd_serve,
        "query": _cmd_query,
        "rules": _cmd_rules,
        "generate": _cmd_generate,
        "bench": _cmd_bench,
        "store": _cmd_store,
        "explain": _cmd_explain,
        "profile": _cmd_profile,
        "trace": _cmd_trace,
        "analyze": _cmd_analyze,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
