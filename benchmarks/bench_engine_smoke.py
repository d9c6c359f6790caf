"""Engine smoke bench: in-memory vs partitioned mining on one profile.

The pytest-benchmark face of ``python -m repro bench engine``: mines
the groceries corpus in memory and over 3 shards, asserts the pattern
sets agree byte-for-byte, and writes the ``BENCH_engine.json``
baseline the CI engine-smoke job checks.
"""

from __future__ import annotations

import json

import pytest

from conftest import one_shot
from repro import PruningConfig, mine_flipping_patterns
from repro.bench import run_method
from repro.bench.engine import run_engine_smoke
from repro.datasets import generate_groceries
from repro.datasets.groceries import GROCERIES_THRESHOLDS

RUNS = [
    ("in_memory", {}),
    ("partitions_3", {"partitions": 3}),
]


@pytest.fixture(scope="module")
def planted_db():
    return generate_groceries(scale=0.2)


@pytest.mark.parametrize(
    "label,config", RUNS, ids=[label for label, _ in RUNS]
)
def test_run_runtime(benchmark, planted_db, label, config):
    record = one_shot(
        benchmark,
        run_method,
        planted_db,
        GROCERIES_THRESHOLDS,
        PruningConfig.full(),
        f"full[{label}]",
        **config,
    )
    assert record.partitions == config.get("partitions", 1)
    assert record.n_patterns > 0


def test_runs_find_identical_patterns(planted_db):
    fingerprints = {
        label: json.dumps(
            [
                pattern.to_dict()
                for pattern in mine_flipping_patterns(
                    planted_db, GROCERIES_THRESHOLDS, **config
                ).patterns
            ],
            sort_keys=True,
        )
        for label, config in RUNS
    }
    assert fingerprints["in_memory"] == fingerprints["partitions_3"]


def test_engine_smoke_writes_baseline(tmp_path, capsys):
    out = tmp_path / "BENCH_engine.json"
    report, data = run_engine_smoke(out_path=out)
    with capsys.disabled():
        print()
        print(report)
    assert data["checks_pass"] is True
    assert json.loads(out.read_text())["patterns_identical"] is True
