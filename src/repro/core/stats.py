"""Instrumentation of a mining run.

The paper's evaluation reports runtime, memory (candidate storage),
and the effect of each pruning device.  :class:`MiningStats` captures
all of it: per-cell candidate/entry counts, prune counters, TPG and
SIBP events, database scans, and wall-clock phases — enough for the
bench harness to regenerate every series of Figures 8 and 9 without
re-instrumenting the miner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

__all__ = ["CellStats", "MiningStats", "Timer"]


@dataclass
class CellStats:
    """Counters for one ``Q(h,k)`` cell."""

    level: int
    k: int
    #: emitted by the generation regime, before the subset filter
    #: (child expansion has already left out SIBP-banned children and
    #: pruned prefixes by the pair screen and prefix support)
    candidates: int = 0
    filtered_subset: int = 0     # removed: a counted subset was infrequent
    #: frequent children SIBP-banned at this size, which child
    #: expansion left out of the product
    filtered_banned: int = 0
    counted: int = 0             # actually support-counted
    frequent: int = 0
    labeled: int = 0             # positive or negative
    alive: int = 0               # chain-alive after flip check
    seconds: float = 0.0


@dataclass
class MiningStats:
    """Aggregated statistics of one mining run."""

    method: str = "flipper"
    measure: str = "kulczynski"
    cells: list[CellStats] = field(default_factory=list)
    tpg_events: list[tuple[int, int]] = field(default_factory=list)
    #: (level, item_id, k) triples: item banned for itemsets larger than k
    sibp_bans: list[tuple[int, int, int]] = field(default_factory=list)
    db_scans: int = 0
    #: total counted entries kept across all cells (candidate-storage proxy,
    #: the quantity behind the paper's Fig. 9(b) memory comparison)
    stored_entries: int = 0
    #: largest number of entries held for any single cell
    max_cell_entries: int = 0
    n_patterns: int = 0
    elapsed_seconds: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------

    def record_cell(self, cell_stats: CellStats) -> None:
        self.cells.append(cell_stats)
        self.stored_entries += cell_stats.counted
        if cell_stats.counted > self.max_cell_entries:
            self.max_cell_entries = cell_stats.counted

    @property
    def total_candidates(self) -> int:
        """Candidates generated across all cells (pruning-power metric)."""
        return sum(cell.candidates for cell in self.cells)

    @property
    def total_counted(self) -> int:
        return sum(cell.counted for cell in self.cells)

    @property
    def total_frequent(self) -> int:
        return sum(cell.frequent for cell in self.cells)

    @property
    def cells_processed(self) -> int:
        return len(self.cells)

    def cell(self, level: int, k: int) -> CellStats | None:
        """Stats for one cell, if it was processed."""
        for cell_stats in self.cells:
            if cell_stats.level == level and cell_stats.k == k:
                return cell_stats
        return None

    # ------------------------------------------------------------------

    def summary(self) -> str:
        """Multi-line, human-readable digest."""
        lines = [
            f"method={self.method} measure={self.measure}",
            f"elapsed: {self.elapsed_seconds:.3f}s, db scans: {self.db_scans}",
            f"cells processed: {self.cells_processed}, "
            f"candidates: {self.total_candidates}, "
            f"counted: {self.total_counted}, "
            f"frequent: {self.total_frequent}",
            f"stored entries (memory proxy): {self.stored_entries} "
            f"(max single cell: {self.max_cell_entries})",
            f"patterns found: {self.n_patterns}",
        ]
        if self.tpg_events:
            events = ", ".join(f"(h={h}, k={k})" for h, k in self.tpg_events)
            lines.append(f"TPG fired at: {events}")
        if self.sibp_bans:
            lines.append(f"SIBP bans: {len(self.sibp_bans)}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form used by the bench harness."""
        return {
            "method": self.method,
            "measure": self.measure,
            "elapsed_seconds": self.elapsed_seconds,
            "db_scans": self.db_scans,
            "cells_processed": self.cells_processed,
            "total_candidates": self.total_candidates,
            "total_counted": self.total_counted,
            "total_frequent": self.total_frequent,
            "stored_entries": self.stored_entries,
            "max_cell_entries": self.max_cell_entries,
            "n_patterns": self.n_patterns,
            "tpg_events": list(self.tpg_events),
            "sibp_bans": len(self.sibp_bans),
            **self.extra,
        }


class Timer:
    """Tiny context-manager stopwatch.

    >>> with Timer() as timer:
    ...     pass
    >>> timer.seconds >= 0.0
    True
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._start
