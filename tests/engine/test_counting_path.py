"""One counting path: every stage counts through the run's backend.

The input's type alone picks the counting substrate — an in-memory
database counts through a monolithic backend, a shard store through a
``DeltaCounter`` — and the plan's stages see nothing else.  The
horizontal backend's scan tally is the paper's IO cost model (one
sequential scan per counted batch, per shard), so its exact values
pin that no refactor counts a batch twice or drops a shard's scans.
"""

from __future__ import annotations

import json

import pytest

from repro.core.counting import BitmapBackend, DeltaCounter, HorizontalBackend
from repro.core.flipper import FlipperMiner, PruningConfig
from repro.datasets.groceries import GROCERIES_THRESHOLDS, generate_groceries
from repro.engine import ExecutionPlan
from repro.engine.stages import build_default_stages


@pytest.fixture(scope="module")
def planted_db():
    """The groceries simulator: four planted flipping chains."""
    return generate_groceries(scale=0.2)


def _fingerprint(result) -> str:
    """Canonical byte string of a result's pattern set."""
    return json.dumps(
        [pattern.to_dict() for pattern in result.patterns], sort_keys=True
    )


class TestScanCost:
    @pytest.mark.parametrize(
        "backend,kwargs,scans",
        [
            ("horizontal", {}, 6),
            ("horizontal", {"partitions": 1}, 6),
            ("horizontal", {"partitions": 3}, 18),
            ("horizontal", {"pruning": PruningConfig.basic()}, 10),
            ("bitmap", {}, 1),
            ("bitmap", {"partitions": 1}, 1),
            ("bitmap", {"partitions": 3}, 3),
        ],
    )
    def test_db_scans_per_substrate(self, planted_db, backend, kwargs, scans):
        with FlipperMiner(
            planted_db, GROCERIES_THRESHOLDS, backend=backend, **kwargs
        ) as miner:
            result = miner.mine()
        assert len(result.patterns) > 0
        assert result.stats.db_scans == scans

    def test_input_type_picks_the_substrate(self, planted_db):
        for name, cls in (
            ("bitmap", BitmapBackend),
            ("horizontal", HorizontalBackend),
        ):
            miner = FlipperMiner(
                planted_db, GROCERIES_THRESHOLDS, backend=name
            )
            assert type(miner.context.backend) is cls
            assert miner.mine().config["partitions"] == 1
        with FlipperMiner(
            planted_db,
            GROCERIES_THRESHOLDS,
            backend="horizontal",
            partitions=2,
        ) as sharded:
            assert isinstance(sharded.context.backend, DeltaCounter)
            assert sharded.context.backend.inner_name == "horizontal"


class TestEngineSurface:
    def test_miner_exposes_plan_and_context(self, example3_db):
        from repro import Thresholds

        miner = FlipperMiner(
            example3_db, Thresholds(gamma=0.6, epsilon=0.35, min_support=1)
        )
        assert [stage.name for stage in miner.plan.stages] == [
            "generate",
            "count",
            "label",
            "prune",
        ]
        miner.mine()
        assert miner.context.cells  # populated by the plan
        assert set(miner.stats.extra["stage_seconds"]) == {
            "generate",
            "count",
            "label",
            "prune",
        }

    def test_plan_requires_stages(self, example3_db):
        from repro import Thresholds

        miner = FlipperMiner(
            example3_db, Thresholds(gamma=0.6, epsilon=0.35, min_support=1)
        )
        with pytest.raises(ValueError, match="at least one stage"):
            ExecutionPlan(miner.context, [])

    def test_custom_plan_same_result(self, example3_db):
        """Stages are composable: rebuilding the default pipeline by
        hand produces the same patterns."""
        from repro import Thresholds

        thresholds = Thresholds(gamma=0.6, epsilon=0.35, min_support=1)
        baseline = FlipperMiner(example3_db, thresholds).mine()
        miner = FlipperMiner(example3_db, thresholds)
        miner._plan = ExecutionPlan(miner.context, build_default_stages())
        rebuilt = miner.mine()
        assert _fingerprint(baseline) == _fingerprint(rebuilt)
