"""Backend parity for batch counting.

One ``supports`` call counts a whole candidate batch (the engine's
stages hand a backend a cell's batch at once).  The result must equal
per-itemset counting for every backend and every candidate mix, and
``node_supports`` must be cached so repeated calls stop rescanning.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.counting import BitmapBackend, HorizontalBackend

ALL_BACKENDS = [BitmapBackend, HorizontalBackend]


def _pair_candidates(database, level):
    nodes = database.taxonomy.nodes_at_level(level)
    return [tuple(sorted(pair)) for pair in itertools.combinations(nodes, 2)]


class TestBatchedParity:
    def test_all_backends_agree(self, random_db):
        """One truth, every backend, every level's pair batch."""
        backends = [cls(random_db) for cls in ALL_BACKENDS]
        for level in (1, 2, 3):
            candidates = _pair_candidates(random_db, level)
            reference = backends[0].supports(level, candidates)
            for backend in backends:
                assert backend.supports(level, candidates) == reference, (
                    type(backend).__name__,
                    level,
                )

    @pytest.mark.parametrize("backend_cls", ALL_BACKENDS)
    def test_mixed_k_batch(self, example3_db, backend_cls):
        """A batch mixing itemset sizes counts every itemset exactly
        as a batch of that itemset alone."""
        backend = backend_cls(example3_db)
        nodes = example3_db.taxonomy.nodes_at_level(3)
        batch = (
            [tuple(sorted(p)) for p in itertools.combinations(nodes, 2)][:4]
            + [tuple(sorted(t)) for t in itertools.combinations(nodes, 3)][:3]
            + [tuple(sorted(p)) for p in itertools.combinations(nodes, 2)][4:6]
        )
        expected = {
            itemset: backend.supports(3, [itemset])[itemset]
            for itemset in batch
        }
        assert backend.supports(3, batch) == expected

    @pytest.mark.parametrize("backend_cls", ALL_BACKENDS)
    def test_empty_batch(self, example3_db, backend_cls):
        backend = backend_cls(example3_db)
        assert backend.supports(1, []) == {}


class TestNodeSupportCache:
    @pytest.mark.parametrize("backend_cls", ALL_BACKENDS)
    def test_repeated_calls_return_same_mapping(
        self, example3_db, backend_cls
    ):
        backend = backend_cls(example3_db)
        first = backend.node_supports(2)
        assert backend.node_supports(2) == first

    def test_horizontal_does_not_rescan(self, example3_db):
        backend = HorizontalBackend(example3_db)
        backend.node_supports(1)
        scans = backend.scans
        backend.node_supports(1)
        backend.node_supports(1)
        assert backend.scans == scans
