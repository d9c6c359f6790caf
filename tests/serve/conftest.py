"""Shared fixtures for the serving-subsystem tests."""

from __future__ import annotations

import pytest

from repro.bench.serve import synthetic_serve_result
from repro.core.flipper import FlipperMiner, mine_flipping_patterns
from repro.core.thresholds import Thresholds
from repro.data.database import TransactionDatabase
from repro.datasets import example3_taxonomy, example3_transactions
from repro.serve import PatternStore


@pytest.fixture(scope="module")
def toy_database():
    return TransactionDatabase(example3_transactions(), example3_taxonomy())


@pytest.fixture(scope="module")
def toy_thresholds():
    return Thresholds(gamma=0.6, epsilon=0.35, min_support=1)


@pytest.fixture(scope="module")
def toy_result(toy_database, toy_thresholds):
    """The paper's toy mine: exactly one pattern, {a11, b11} [+-+]."""
    return mine_flipping_patterns(toy_database, toy_thresholds)


@pytest.fixture
def toy_store(toy_result):
    return PatternStore.build(toy_result)


@pytest.fixture(scope="module")
def corpus_result():
    """A deterministic 400-pattern corpus (serving scale, no mining)."""
    return synthetic_serve_result(400, seed=11)


@pytest.fixture
def corpus_store(corpus_result):
    return PatternStore.build(corpus_result)


@pytest.fixture
def live_miner(toy_database, toy_thresholds):
    """A partitioned miner whose update() feeds the serving path."""
    with FlipperMiner(toy_database, toy_thresholds, partitions=2) as miner:
        miner.mine()
        yield miner
