"""Measurement harness: run methods, collect records, sweep parameters.

The Fig. 8 experiments all share one shape: generate a workload, run
the four-method pruning ladder, record runtime / candidate counts /
memory proxy, and compare series across a swept parameter.  This
module is that shape, factored once.
"""

from __future__ import annotations

import tracemalloc
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.flipper import FlipperMiner, PruningConfig
from repro.core.measures import Measure
from repro.core.thresholds import Thresholds
from repro.data.database import TransactionDatabase

__all__ = ["RunRecord", "SweepResult", "run_method", "run_ladder", "sweep"]

#: The four configurations of Figure 8, in the paper's legend order.
LADDER: list[tuple[str, PruningConfig]] = [
    ("BASIC", PruningConfig.basic()),
    ("FLIPPING", PruningConfig.flipping_only()),
    ("FLIPPING+TPG", PruningConfig.flipping_tpg()),
    ("FLIPPING+TPG+SIBP", PruningConfig.full()),
]


@dataclass
class RunRecord:
    """One (method, workload) measurement."""

    method: str
    seconds: float
    candidates: int
    counted: int
    stored_entries: int
    max_cell_entries: int
    n_patterns: int
    db_scans: int
    tpg_events: int
    sibp_bans: int
    peak_memory_bytes: int | None = None

    @classmethod
    def from_run(
        cls,
        label: str,
        miner: FlipperMiner,
        n_patterns: int,
        peak_memory: int | None = None,
    ) -> "RunRecord":
        stats = miner.stats
        return cls(
            method=label,
            seconds=stats.elapsed_seconds,
            candidates=stats.total_candidates,
            counted=stats.total_counted,
            stored_entries=stats.stored_entries,
            max_cell_entries=stats.max_cell_entries,
            n_patterns=n_patterns,
            db_scans=stats.db_scans,
            tpg_events=len(stats.tpg_events),
            sibp_bans=len(stats.sibp_bans),
            peak_memory_bytes=peak_memory,
        )


def run_method(
    database: TransactionDatabase,
    thresholds: Thresholds,
    pruning: PruningConfig,
    label: str | None = None,
    measure: str | Measure = "kulczynski",
    backend: str = "bitmap",
    max_k: int | None = None,
    track_memory: bool = False,
) -> RunRecord:
    """Run one configuration and record its costs.

    With ``track_memory=True`` the run is wrapped in ``tracemalloc``
    (Fig. 9(b)); this slows Python down noticeably, so runtime and
    memory are measured in separate benches, as the paper did.
    """
    peak = None
    if track_memory:
        tracemalloc.start()
    try:
        miner = FlipperMiner(
            database,
            thresholds,
            measure=measure,
            pruning=pruning,
            backend=backend,
            max_k=max_k,
        )
        result = miner.mine()
        if track_memory:
            _current, peak = tracemalloc.get_traced_memory()
    finally:
        if track_memory:
            tracemalloc.stop()
    return RunRecord.from_run(
        label or pruning.name, miner, len(result.patterns), peak
    )


def run_ladder(
    database: TransactionDatabase,
    thresholds: Thresholds,
    methods: Sequence[tuple[str, PruningConfig]] | None = None,
    **kwargs: object,
) -> list[RunRecord]:
    """Run the full Figure-8 method ladder on one workload."""
    return [
        run_method(database, thresholds, pruning, label=label, **kwargs)  # type: ignore[arg-type]
        for label, pruning in (methods or LADDER)
    ]


@dataclass
class SweepResult:
    """Series of ladder measurements across a swept parameter."""

    parameter: str
    values: list[object] = field(default_factory=list)
    #: method label -> one record per swept value
    series: dict[str, list[RunRecord]] = field(default_factory=dict)

    def add(self, value: object, records: Sequence[RunRecord]) -> None:
        self.values.append(value)
        for record in records:
            self.series.setdefault(record.method, []).append(record)

    def metric(self, method: str, name: str) -> list[float]:
        """One series of a metric (e.g. ``seconds``) for one method."""
        return [getattr(record, name) for record in self.series[method]]

    @property
    def methods(self) -> list[str]:
        return list(self.series)


def sweep(
    parameter: str,
    values: Sequence[object],
    database_for: Callable[[object], TransactionDatabase],
    thresholds_for: Callable[[object], Thresholds],
    methods: Sequence[tuple[str, PruningConfig]] | None = None,
    **kwargs: object,
) -> SweepResult:
    """Run the ladder across a parameter sweep (one Fig. 8 subfigure)."""
    result = SweepResult(parameter=parameter)
    for value in values:
        database = database_for(value)
        thresholds = thresholds_for(value)
        records = run_ladder(database, thresholds, methods=methods, **kwargs)
        result.add(value, records)
    return result
