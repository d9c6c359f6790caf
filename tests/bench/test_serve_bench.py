"""The synthetic serving corpus is deterministic for a given seed."""

from __future__ import annotations


def test_synthetic_corpus_is_deterministic():
    from repro.bench.serve import synthetic_serve_result

    a = synthetic_serve_result(50, seed=3)
    b = synthetic_serve_result(50, seed=3)
    assert [p.to_dict() for p in a.patterns] == [
        p.to_dict() for p in b.patterns
    ]
    assert len({tuple(p.leaf_link.itemset) for p in a.patterns}) == 50
