"""Staged mining engine: plan → stages → counting backend.

The engine decomposes one search-space cell visit into composable
stages with explicit data handoffs (:mod:`repro.engine.plan`), and
every stage counts a candidate batch through the run's one
:class:`~repro.core.counting.CountingBackend` — a monolithic backend
for an in-memory database, a
:class:`~repro.core.counting.DeltaCounter` for a shard store.  The
sweep logic (zigzag order, TPG, SIBP ban application) stays in
:class:`~repro.core.flipper.FlipperMiner`, which is a thin
orchestrator over this package.  See ARCHITECTURE.md for the full
layer diagram.
"""

from repro.engine.incremental import IncrementalMiner
from repro.engine.plan import (
    CellState,
    CellTask,
    ExecutionPlan,
    MiningContext,
    Stage,
)
from repro.engine.stages import (
    CountStage,
    GenerateStage,
    LabelStage,
    SibpRemovalStage,
    build_default_stages,
)

__all__ = [
    "IncrementalMiner",
    "CellTask",
    "CellState",
    "MiningContext",
    "Stage",
    "ExecutionPlan",
    "GenerateStage",
    "CountStage",
    "LabelStage",
    "SibpRemovalStage",
    "build_default_stages",
]
