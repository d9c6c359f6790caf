"""One runner per table/figure of the paper's evaluation.

Each ``run_*`` function regenerates one experiment at the current
bench scale and returns ``(report_text, data)``; the pytest benches
assert the shape checks and ``python -m repro bench <id>`` prints the
report.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.bench.approx import run_approx_bench
from repro.bench.chart import sweep_chart
from repro.bench.harness import (
    LADDER,
    RunRecord,
    SweepResult,
    run_ladder,
    run_method,
    sweep,
)
from repro.bench.profiles import (
    CORR_PROFILES,
    DEFAULT_EPSILON,
    DEFAULT_GAMMA,
    DEFAULT_MINSUP,
    MINSUP_PROFILES,
    bench_config,
    bench_scale,
    thresholds_for_profile,
    width_scaled_thresholds,
)
from repro.bench.report import (
    ShapeCheck,
    check_ladder_ordering,
    check_monotone_series,
    format_table,
    render_checks,
    series_table,
)
from repro.core.flipper import FlipperMiner, PruningConfig
from repro.core.labels import Label
from repro.core.measures import expectation_sign, kulczynski, lift
from repro.core.thresholds import Thresholds
from repro.data.database import TransactionDatabase
from repro.datasets.census import CENSUS_THRESHOLDS, generate_census
from repro.datasets.groceries import GROCERIES_THRESHOLDS, generate_groceries
from repro.datasets.medline import MEDLINE_THRESHOLDS, generate_medline
from repro.datasets.synthetic import generate_synthetic
from repro.datasets.toy import table1_rows

__all__ = [
    "run_fig8a",
    "run_fig8b",
    "run_fig8c",
    "run_fig8d",
    "run_fig9a",
    "run_fig9b",
    "run_table1",
    "run_table4",
    "real_datasets",
    "EXPERIMENTS",
]

#: Method pair of the Fig. 9 real-data experiments.
NAIVE_VS_FULL = [
    ("NAIVE FLIPPING", PruningConfig.flipping_only()),
    ("FULL FLIPPER", PruningConfig.full()),
]


def _header(title: str) -> str:
    scale = bench_scale()
    return f"== {title} (bench scale {scale:g}) =="


# ---------------------------------------------------------------------------
# Figure 8: synthetic sweeps
# ---------------------------------------------------------------------------


def run_fig8a(
    profiles: Sequence[str] | None = None,
) -> tuple[str, SweepResult]:
    """Fig. 8(a): runtime vs. the Table-3 minimum-support profiles."""
    profiles = list(profiles or MINSUP_PROFILES)
    database = generate_synthetic(bench_config())

    result = sweep(
        "minsup profile",
        profiles,
        database_for=lambda _p: database,
        thresholds_for=lambda p: thresholds_for_profile(
            p, n_transactions=database.n_transactions  # type: ignore[arg-type]
        ),
    )
    checks = [
        check_ladder_ordering(
            [result.series[m][-1] for m in result.methods], "candidates"
        ),
    ]
    report = "\n".join(
        [
            _header("Fig. 8(a): runtime vs minimum-support profile"),
            series_table(result, "seconds"),
            "",
            series_table(result, "candidates"),
            "",
            sweep_chart(result, "seconds"),
            "",
            render_checks(checks),
        ]
    )
    return report, result


def run_fig8b(
    multipliers: Sequence[float] = (1.0, 2.5, 5.0, 10.0),
) -> tuple[str, SweepResult]:
    """Fig. 8(b): runtime vs. number of transactions (paper: 100K-1M,
    linear in N for all methods, Flipper 15-20x faster than BASIC)."""
    base = bench_config()
    databases: dict[object, TransactionDatabase] = {}

    def database_for(multiplier: object) -> TransactionDatabase:
        n = round(base.n_transactions * float(multiplier))  # type: ignore[arg-type]
        databases[multiplier] = generate_synthetic(
            base.scaled(n_transactions=n)
        )
        return databases[multiplier]

    result = sweep(
        "N multiplier",
        list(multipliers),
        database_for=database_for,
        thresholds_for=lambda v: thresholds_for_profile(
            DEFAULT_MINSUP, n_transactions=databases[v].n_transactions
        ),
    )
    checks = []
    for method in result.methods:
        series = result.metric(method, "seconds")
        if max(series) >= 1.0:
            checks.append(
                check_monotone_series(
                    result, method, "seconds", "increasing", 0.5
                )
            )
        else:
            # sub-second series sit at the wall-clock noise floor;
            # their trend is not a meaningful claim either way
            checks.append(
                ShapeCheck(
                    f"increasing seconds for {method}",
                    True,
                    "series below 1s noise floor, trend not scored: "
                    + " -> ".join(f"{v:.3g}" for v in series),
                )
            )
    report = "\n".join(
        [
            _header("Fig. 8(b): runtime vs number of transactions"),
            series_table(result, "seconds"),
            "",
            sweep_chart(result, "seconds"),
            "",
            render_checks(checks),
        ]
    )
    return report, result


def run_fig8c(
    widths: Sequence[float] = (5, 6, 8, 10),
) -> tuple[str, SweepResult]:
    """Fig. 8(c): runtime vs. average transaction width (paper: BASIC
    explodes with density, full Flipper degrades gracefully).

    Minimum-support counts are width^2-scaled
    (:func:`~repro.bench.profiles.width_scaled_thresholds`) so the
    threshold-to-noise ratio of the paper's N = 100K setup survives
    the bench-scale N; see the helper's docstring.
    """
    base = bench_config()

    result = sweep(
        "avg width",
        list(widths),
        database_for=lambda w: generate_synthetic(
            base.scaled(avg_width=float(w))  # type: ignore[arg-type]
        ),
        thresholds_for=lambda w: width_scaled_thresholds(
            float(w), n_transactions=base.n_transactions  # type: ignore[arg-type]
        ),
    )
    basic = result.metric("BASIC", "candidates")
    full = result.metric("FLIPPING+TPG+SIBP", "candidates")
    checks = [
        check_monotone_series(
            result, "BASIC", "candidates", "increasing", 0.0
        ),
        ShapeCheck(
            "full Flipper under BASIC at every width",
            all(f <= b for f, b in zip(full, basic)),
            f"full {full} vs basic {basic}",
        ),
        ShapeCheck(
            "candidate gap at the widest point >= 3x",
            full[-1] * 3 <= basic[-1],
            f"{basic[-1]} vs {full[-1]} "
            f"({basic[-1] / max(full[-1], 1):.1f}x)",
        ),
    ]
    report = "\n".join(
        [
            _header("Fig. 8(c): runtime vs average transaction width"),
            series_table(result, "seconds"),
            "",
            series_table(result, "candidates"),
            "",
            sweep_chart(result, "seconds"),
            "",
            render_checks(checks),
        ]
    )
    return report, result


def run_fig8d(
    profiles: Sequence[tuple[float, float]] | None = None,
) -> tuple[str, SweepResult]:
    """Fig. 8(d): runtime vs. correlation thresholds (paper: larger
    gamma -> more pruning -> faster; BASIC indifferent)."""
    profiles = list(profiles or CORR_PROFILES)
    database = generate_synthetic(bench_config())

    def thresholds_for(value: object) -> Thresholds:
        gamma, epsilon = value  # type: ignore[misc]
        return thresholds_for_profile(
            DEFAULT_MINSUP,
            gamma=gamma,
            epsilon=epsilon,
            n_transactions=database.n_transactions,
        )

    result = sweep(
        "(gamma, eps)",
        profiles,
        database_for=lambda _v: database,
        thresholds_for=thresholds_for,
    )
    # BASIC ignores correlation thresholds: its candidate counts must
    # be constant across the sweep.
    basic = result.metric("BASIC", "candidates")
    full = result.metric("FLIPPING+TPG+SIBP", "candidates")
    # the advanced pruning cuts *non-positive* itemsets, so only the
    # gamma-increasing prefix of the sweep must shrink monotonically;
    # the epsilon-raising tail signs more itemsets and may grow again
    gamma_prefix_end = len(
        [p for p in profiles if p[1] == profiles[0][1]]  # type: ignore[index]
    )
    prefix = full[:gamma_prefix_end]
    checks = [
        ShapeCheck(
            "BASIC indifferent to correlation thresholds",
            len(set(basic)) == 1,
            f"BASIC candidates: {basic}",
        ),
        ShapeCheck(
            "rising gamma tightens full-Flipper pruning",
            all(b <= a * 1.05 for a, b in zip(prefix, prefix[1:]))
            and prefix[-1] <= prefix[0],
            "candidates over gamma sweep: "
            + " -> ".join(f"{v:.3g}" for v in prefix),
        ),
    ]
    report = "\n".join(
        [
            _header("Fig. 8(d): runtime vs correlation thresholds"),
            series_table(result, "seconds"),
            "",
            series_table(result, "candidates"),
            "",
            sweep_chart(result, "candidates"),
            "",
            render_checks(checks),
        ]
    )
    return report, result


# ---------------------------------------------------------------------------
# Figure 9 / Table 4: real datasets
# ---------------------------------------------------------------------------


def real_datasets() -> list[tuple[str, TransactionDatabase, Thresholds]]:
    """The three simulated real datasets at bench scale.

    Paper sizes: GROCERIES 9.8K, CENSUS 32K, MEDLINE 640K.  The bench
    scale multiplies our simulators' scale-1 sizes (~13K / 32K / 64K).
    """
    scale = min(1.0, max(0.1, bench_scale() * 10))
    return [
        ("GROCERIES", generate_groceries(scale=scale), GROCERIES_THRESHOLDS),
        ("CENSUS", generate_census(scale=scale), CENSUS_THRESHOLDS),
        ("MEDLINE", generate_medline(scale=scale * 0.5), MEDLINE_THRESHOLDS),
    ]


def run_fig9a() -> tuple[str, dict[str, list[RunRecord]]]:
    """Fig. 9(a): naive flipping vs full Flipper runtime on the three
    real datasets."""
    rows = []
    data: dict[str, list[RunRecord]] = {}
    checks: list[ShapeCheck] = []
    for name, database, thresholds in real_datasets():
        records = run_ladder(database, thresholds, methods=NAIVE_VS_FULL)
        data[name] = records
        rows.append(
            [
                name,
                database.n_transactions,
                records[0].seconds,
                records[1].seconds,
                records[0].n_patterns,
            ]
        )
        checks.append(check_ladder_ordering(records, "candidates"))
    report = "\n".join(
        [
            _header("Fig. 9(a): naive flipping vs full Flipper, runtime"),
            format_table(
                ["dataset", "N", "naive (s)", "full (s)", "patterns"], rows
            ),
            "",
            render_checks(checks),
        ]
    )
    return report, data


def run_fig9b() -> tuple[str, dict[str, list[RunRecord]]]:
    """Fig. 9(b): memory comparison (stored candidate entries as the
    primary proxy, tracemalloc peak as the physical check)."""
    rows = []
    data: dict[str, list[RunRecord]] = {}
    checks: list[ShapeCheck] = []
    for name, database, thresholds in real_datasets():
        records = run_ladder(
            database, thresholds, methods=NAIVE_VS_FULL, track_memory=True
        )
        data[name] = records
        rows.append(
            [
                name,
                records[0].stored_entries,
                records[1].stored_entries,
                (records[0].peak_memory_bytes or 0) // 1024,
                (records[1].peak_memory_bytes or 0) // 1024,
            ]
        )
        checks.append(check_ladder_ordering(records, "stored_entries"))
    report = "\n".join(
        [
            _header("Fig. 9(b): naive flipping vs full Flipper, memory"),
            format_table(
                [
                    "dataset",
                    "naive entries",
                    "full entries",
                    "naive peak KiB",
                    "full peak KiB",
                ],
                rows,
            ),
            "",
            render_checks(checks),
        ]
    )
    return report, data


def run_table1() -> tuple[str, list[dict[str, object]]]:
    """Table 1: expectation-based verdicts flip with N; Kulc does not."""
    rows = []
    data = []
    checks = []
    for row in table1_rows():
        supports = [row.sup_first, row.sup_second]
        sign = expectation_sign(row.sup_pair, supports, row.n_transactions)
        kulc = kulczynski(row.sup_pair, supports)
        the_lift = lift(row.sup_pair, supports, row.n_transactions)
        rows.append(
            [row.label, row.database, row.n_transactions, sign, the_lift, kulc]
        )
        data.append(
            {
                "pair": row.label,
                "db": row.database,
                "expectation_sign": sign,
                "kulc": kulc,
            }
        )
        checks.append(
            ShapeCheck(
                f"{row.label}@{row.database} matches paper",
                sign == row.expected_paper_sign
                and abs(kulc - row.kulc_paper) < 1e-9,
                f"sign={sign}, kulc={kulc:.2f}",
            )
        )
    report = "\n".join(
        [
            _header("Table 1: expectation-based vs null-invariant"),
            format_table(
                ["pair", "database", "N", "expectation sign", "lift", "kulc"],
                rows,
            ),
            "",
            render_checks(checks),
        ]
    )
    return report, data


def run_table4() -> tuple[str, list[dict[str, object]]]:
    """Table 4: positive / negative / flipping pattern counts per real
    dataset (shape: flips are a tiny fraction of all signed patterns)."""
    rows = []
    data = []
    checks = []
    for name, database, thresholds in real_datasets():
        miner = FlipperMiner(
            database, thresholds, pruning=PruningConfig.basic()
        )
        result = miner.mine()
        positives = negatives = 0
        for _level, _k, cell in miner.iter_cells():
            for entry in cell.entries.values():
                if entry.label is Label.POSITIVE:
                    positives += 1
                elif entry.label is Label.NEGATIVE:
                    negatives += 1
        flips = len(result.patterns)
        rows.append([name, positives, negatives, flips])
        data.append(
            {
                "dataset": name,
                "positive": positives,
                "negative": negatives,
                "flips": flips,
            }
        )
        checks.append(
            ShapeCheck(
                f"{name}: flips are rare",
                0 < flips < (positives + negatives) / 10,
                f"{flips} flips vs {positives}+{negatives} signed",
            )
        )
    report = "\n".join(
        [
            _header("Table 4: positive / negative / flipping counts"),
            format_table(["dataset", "pos", "neg", "flips"], rows),
            "",
            render_checks(checks),
        ]
    )
    return report, data


#: Registry used by the CLI (`python -m repro bench <id>`).
EXPERIMENTS = {
    "fig8a": run_fig8a,
    "fig8b": run_fig8b,
    "fig8c": run_fig8c,
    "fig8d": run_fig8d,
    "fig9a": run_fig9a,
    "fig9b": run_fig9b,
    "table1": run_table1,
    "table4": run_table4,
    "approx": run_approx_bench,
}
