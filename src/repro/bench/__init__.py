"""Benchmark harness: profiles, sweep machinery, reports, one runner
per table/figure of the paper's evaluation, and the approx bench.

Speed claims live in ``BENCHMARK.json`` and ``perfbench/``.  The
runners here reproduce the paper's figures and check their shape;
``approx`` checks sample-then-verify against exact mining, and
``python -m repro bench`` exits 1 when any check fails.
:mod:`repro.bench.serve` holds the synthetic pattern corpus that the
``serve-read`` workload and the serve tests index.
"""

from repro.bench.approx import run_approx_bench
from repro.bench.experiments import (
    EXPERIMENTS,
    real_datasets,
    run_fig8a,
    run_fig8b,
    run_fig8c,
    run_fig8d,
    run_fig9a,
    run_fig9b,
    run_table1,
    run_table4,
)
from repro.bench.chart import ascii_chart, sweep_chart
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
    MINSUP_PROFILES,
    bench_config,
    bench_scale,
    thresholds_for_profile,
)
from repro.bench.report import (
    ShapeCheck,
    check_ladder_ordering,
    check_monotone_series,
    format_table,
    render_checks,
    series_table,
)

__all__ = [
    "EXPERIMENTS",
    "run_fig8a",
    "run_fig8b",
    "run_fig8c",
    "run_fig8d",
    "run_fig9a",
    "run_fig9b",
    "run_table1",
    "run_table4",
    "run_approx_bench",
    "real_datasets",
    "LADDER",
    "RunRecord",
    "SweepResult",
    "run_method",
    "run_ladder",
    "sweep",
    "MINSUP_PROFILES",
    "CORR_PROFILES",
    "bench_config",
    "bench_scale",
    "thresholds_for_profile",
    "ShapeCheck",
    "check_ladder_ordering",
    "check_monotone_series",
    "format_table",
    "series_table",
    "render_checks",
    "ascii_chart",
    "sweep_chart",
]
