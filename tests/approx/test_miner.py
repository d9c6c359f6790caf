"""Tests for the sample-then-verify miner.

The load-bearing guarantees:

* verified output is always a *subset* of the exact output (phase 2
  re-counts exactly, so approximation can never fabricate);
* at ``sample_rate=1.0`` the output is byte-identical to the exact
  miner (the sample is the data, verification restores exactness);
* candidates carry full-data support confidence intervals that cover
  the true supports of every verified pattern;
* the result is byte-compatible with the serving subsystem;
* the ``FlipperMiner(sample_rate=...)`` wiring composes with the
  partitioned substrate and with exact ``update()`` afterwards.
"""

from __future__ import annotations

import json

import pytest

from repro import FlipperMiner, Thresholds, mine_flipping_patterns
from repro.approx import ApproxMiner, mine_approximate
from repro.core.counting import DeltaCounter, ShardBackendPool
from repro.core.labels import Label
from repro.core.patterns import ChainLink, FlippingPattern
from repro.data.database import TransactionDatabase
from repro.data.shards import ShardedTransactionStore
from repro.datasets.groceries import (
    GROCERIES_THRESHOLDS,
    generate_groceries,
)
from repro.errors import ConfigError
from repro.serve import PatternStore, Query, QueryEngine, linear_scan


def _fps(result) -> set[str]:
    return {json.dumps(p.to_dict(), sort_keys=True) for p in result.patterns}


@pytest.fixture(scope="module")
def groceries():
    return generate_groceries(scale=0.3)


@pytest.fixture(scope="module")
def exact_result(groceries):
    return mine_flipping_patterns(groceries, GROCERIES_THRESHOLDS)


class TestExactness:
    def test_full_rate_is_byte_identical_to_exact(
        self, groceries, exact_result
    ):
        approx = mine_flipping_patterns(
            groceries, GROCERIES_THRESHOLDS, sample_rate=1.0
        )
        assert _fps(approx) == _fps(exact_result)

    def test_sampled_run_never_fabricates(self, groceries, exact_result):
        for seed in range(3):
            approx = mine_flipping_patterns(
                groceries,
                GROCERIES_THRESHOLDS,
                sample_rate=0.4,
                confidence=0.9,
                sample_seed=seed,
            )
            assert _fps(approx) <= _fps(exact_result)

    def test_verified_patterns_carry_exact_values(
        self, groceries, exact_result
    ):
        """Every emitted link holds the true support/correlation, not
        the sampled estimate."""
        approx = mine_flipping_patterns(
            groceries, GROCERIES_THRESHOLDS, sample_rate=0.5, sample_seed=1
        )
        exact_by_leaf = {p.leaf_names: p for p in exact_result.patterns}
        assert approx.patterns, "sampled run found nothing to check"
        for pattern in approx.patterns:
            twin = exact_by_leaf[pattern.leaf_names]
            for mine_link, exact_link in zip(pattern.links, twin.links):
                assert mine_link.support == exact_link.support
                assert mine_link.correlation == exact_link.correlation
                assert mine_link.label is exact_link.label


class TestCandidates:
    def test_intervals_cover_verified_supports(self, groceries):
        with FlipperMiner(
            groceries,
            GROCERIES_THRESHOLDS,
            sample_rate=0.5,
            sample_seed=2,
        ) as store_miner:
            result = store_miner.mine()
        assert result.patterns
        candidates = {
            candidate.leaf_names: candidate
            for candidate in store_miner.approx_candidates
        }
        for pattern in result.patterns:
            candidate = candidates[pattern.leaf_names]
            for link, cand_link in zip(pattern.links, candidate.links):
                assert cand_link.support_lo <= link.support
                assert link.support <= cand_link.support_hi

    def test_candidate_dict_shape(self, groceries):
        with ApproxMiner(
            groceries,
            GROCERIES_THRESHOLDS,
            sample_rate=0.5,
            sample_seed=0,
        ) as miner:
            miner.mine()
        assert miner.candidates
        payload = miner.candidates[0].to_dict()
        assert set(payload) == {"leaf_names", "signature", "links"}
        link = payload["links"][0]
        assert {"support_interval", "sample_support", "correlation"} <= set(
            link
        )

    def test_config_reports_the_bound_math(self, groceries):
        result = mine_approximate(
            groceries,
            GROCERIES_THRESHOLDS,
            sample_rate=0.5,
            confidence=0.9,
        )
        info = result.config["approx"]
        assert info["confidence"] == 0.9
        assert info["n_candidates"] >= info["n_verified"]
        assert info["n_candidates"] == info["n_verified"] + info["n_rejected"]
        assert 0 < info["epsilon_support"] < 1
        assert result.stats.method.startswith("approx+")
        assert result.config["n_transactions"] == len(groceries)


class TestServingCompatibility:
    def test_pattern_store_round_trip(self, groceries):
        result = mine_flipping_patterns(
            groceries, GROCERIES_THRESHOLDS, sample_rate=0.6, sample_seed=3
        )
        store = PatternStore.build(result)
        assert len(store) == len(result.patterns)
        engine = QueryEngine(store)
        query = Query(sort_by="min_gap")
        assert engine.execute(query).ids == linear_scan(store, query).ids


class TestFlipperMinerWiring:
    def test_implied_partitions_for_in_memory_database(self, groceries):
        with FlipperMiner(
            groceries, GROCERIES_THRESHOLDS, sample_rate=0.5
        ) as miner:
            result = miner.mine()
        assert result.config["partitions"] == 1
        assert "approx" in result.config

    def test_update_after_approx_mine_is_exact(self, groceries):
        rows = [groceries.transaction_names(i) for i in range(len(groceries))]
        base, delta = rows[:-60], rows[-60:]
        with FlipperMiner(
            TransactionDatabase(base, groceries.taxonomy),
            GROCERIES_THRESHOLDS,
            partitions=2,
            sample_rate=0.5,
            sample_seed=1,
        ) as miner:
            miner.mine()
            updated = miner.update(delta)
        full = mine_flipping_patterns(
            TransactionDatabase(rows, groceries.taxonomy),
            GROCERIES_THRESHOLDS,
        )
        assert _fps(updated) == _fps(full)

    def test_shared_store_between_exact_and_approx(
        self, groceries, tmp_path, exact_result
    ):
        store = ShardedTransactionStore.partition_database(
            groceries, tmp_path / "shards", 3
        )
        approx = FlipperMiner(
            store, GROCERIES_THRESHOLDS, sample_rate=1.0
        ).mine()
        assert _fps(approx) == _fps(exact_result)

    def test_sample_options_require_sample_rate(self, groceries):
        with pytest.raises(ConfigError, match="sample_rate"):
            FlipperMiner(groceries, GROCERIES_THRESHOLDS, confidence=0.9)
        with pytest.raises(ConfigError, match="sample_rate"):
            FlipperMiner(
                groceries, GROCERIES_THRESHOLDS, sample_method="reservoir"
            )

    @pytest.mark.parametrize("rate", [0.0, -1.0, 1.01])
    def test_rejects_bad_sample_rate(self, groceries, rate):
        with pytest.raises(ConfigError, match="sample_rate"):
            FlipperMiner(groceries, GROCERIES_THRESHOLDS, sample_rate=rate)


class TestApproxMinerErrors:
    def test_rejects_bad_confidence(self, groceries):
        with pytest.raises(ConfigError, match="confidence"):
            ApproxMiner(
                groceries,
                GROCERIES_THRESHOLDS,
                sample_rate=0.5,
                confidence=1.0,
            )

    def test_rejects_foreign_verify_backend(self, groceries, tmp_path):
        store_a = ShardedTransactionStore.partition_database(
            groceries, tmp_path / "a", 2
        )
        store_b = ShardedTransactionStore.partition_database(
            groceries, tmp_path / "b", 2
        )
        with pytest.raises(ConfigError, match="different store"):
            ApproxMiner(
                store_a,
                GROCERIES_THRESHOLDS,
                sample_rate=0.5,
                verify_backend=DeltaCounter(store_b),
            )

    def test_empty_candidate_set_is_fine(self, groceries):
        # thresholds nothing can clear: the screen finds no chains
        impossible = Thresholds(
            gamma=0.99, epsilon=0.98, min_support=[0.9, 0.9, 0.9]
        )
        result = mine_approximate(groceries, impossible, sample_rate=0.5)
        assert result.patterns == []
        assert result.config["approx"]["n_candidates"] == 0


class TestStagesConflict:
    def test_custom_stages_conflict_with_sample_rate(self, groceries):
        from repro.engine.stages import build_default_stages

        with pytest.raises(ConfigError, match="stages"):
            FlipperMiner(
                groceries,
                GROCERIES_THRESHOLDS,
                sample_rate=0.5,
                stages=build_default_stages(),
            )


class TestVerifyResidency:
    """Phase 2 counts every chain in one residency pass over the pool:
    under a budget that holds one shard, each shard is admitted once,
    however many (level, size) groups the chains fall into."""

    def test_verify_admits_each_shard_once(self, tmp_path, monkeypatch):
        database = generate_groceries(scale=0.2)
        store = ShardedTransactionStore.partition_database(
            database, tmp_path, 4
        )
        counter = DeltaCounter(
            store, memory_budget_mb=0.05, persist_images=False
        )
        miner = ApproxMiner(
            store,
            GROCERIES_THRESHOLDS,
            sample_rate=1.0,
            verify_backend=counter,
        )
        screened = miner.mine().patterns
        assert screened and {p.k for p in screened} == {2}
        chains = screened + [_triple_chain(store.taxonomy, screened[0])]
        assert {p.k for p in chains} == {2, 3}

        built: list[int] = []
        build = ShardBackendPool._build

        def spy(pool, index):
            built.append(index)
            return build(pool, index)

        monkeypatch.setattr(ShardBackendPool, "_build", spy)
        resolved = GROCERIES_THRESHOLDS.resolve(
            store.taxonomy.height, store.n_transactions
        )
        verified, rejected = miner._verify(chains, resolved)
        assert built == [0, 1, 2, 3]
        assert len(verified) + rejected == len(chains)


def _triple_chain(taxonomy, pattern):
    """A 3-item chain at every level: a pattern's leaves plus one leaf
    under a third level-1 category (labels need not hold; verify
    re-labels and may reject it)."""
    height = taxonomy.height
    leaves = [
        taxonomy.node_by_name(name).node_id for name in pattern.leaf_names
    ]
    top = taxonomy.item_ancestor_map(1)
    used = {top[leaf] for leaf in leaves}
    extra = next(item for item in taxonomy.item_ids if top[item] not in used)
    leaves = sorted(leaves + [extra])
    links = []
    for level in range(1, height + 1):
        mapping = taxonomy.item_ancestor_map(level)
        itemset = tuple(sorted(mapping[leaf] for leaf in leaves))
        links.append(
            ChainLink(
                level=level,
                itemset=itemset,
                names=tuple(taxonomy.name_of(node) for node in itemset),
                support=0,
                correlation=0.0,
                label=Label.POSITIVE if level % 2 else Label.NEGATIVE,
            )
        )
    return FlippingPattern(links=tuple(links))
