"""Unit tests for repro.core.patterns."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.labels import Label
from repro.core.patterns import ChainLink, FlippingPattern, MiningResult
from repro.core.stats import MiningStats


def link(level, names, corr, label, support=5):
    ids = tuple(range(level * 10, level * 10 + len(names)))
    return ChainLink(
        level=level,
        itemset=ids,
        names=tuple(names),
        support=support,
        correlation=corr,
        label=label,
    )


@pytest.fixture
def pattern():
    return FlippingPattern(
        links=(
            link(1, ("a", "b"), 0.8, Label.POSITIVE),
            link(2, ("a1", "b1"), 0.3, Label.NEGATIVE),
            link(3, ("a11", "b11"), 0.9, Label.POSITIVE),
        )
    )


class TestChainLink:
    def test_render(self):
        text = link(1, ("a", "b"), 0.8, Label.POSITIVE).render()
        assert "level 1" in text and "{a, b}" in text and "[+]" in text


class TestFlippingPattern:
    def test_basic_properties(self, pattern):
        assert pattern.k == 2
        assert pattern.height == 3
        assert pattern.leaf_names == ("a11", "b11")
        assert pattern.signature == "+-+"
        assert pattern.bottom_label is Label.POSITIVE

    def test_gaps(self, pattern):
        assert pattern.min_gap == pytest.approx(0.5)
        assert pattern.max_gap == pytest.approx(0.6)
        assert pattern.mean_gap == pytest.approx(0.55)

    def test_describe(self, pattern):
        text = pattern.describe()
        assert "a11" in text and "signature +-+" in text

    def test_to_dict(self, pattern):
        data = pattern.to_dict()
        assert data["items"] == ["a11", "b11"]
        assert len(data["chain"]) == 3
        assert data["chain"][1]["label"] == "negative"

    def test_str(self, pattern):
        assert str(pattern) == "{a11, b11} [+-+]"

    def test_rejects_single_level(self):
        with pytest.raises(ValueError):
            FlippingPattern(links=(link(1, ("a", "b"), 0.8, Label.POSITIVE),))


class TestSignatureBuiltOnce:
    """The signature is built with the pattern and kept; it takes no
    part in equality, hashing, ``repr`` or ``to_dict``'s shape."""

    def test_repeated_reads_return_the_identical_string(self, pattern):
        first = pattern.signature
        assert first == "+-+"
        assert all(pattern.signature is first for _ in range(3))

    def test_equality_hash_and_repr_see_only_the_links(self, pattern):
        twin = FlippingPattern(links=pattern.links)
        assert twin == pattern
        assert hash(twin) == hash(pattern) == hash((pattern.links,))
        assert repr(pattern) == f"FlippingPattern(links={pattern.links!r})"
        compared = [f.name for f in dataclasses.fields(pattern) if f.compare]
        assert compared == ["links"]

    def test_to_dict_and_pickle_round_trip(self, pattern):
        clone = pickle.loads(pickle.dumps(pattern))
        assert clone == pattern
        assert hash(clone) == hash(pattern)
        assert clone.signature == "+-+"
        assert clone.to_dict() == pattern.to_dict()
        assert list(pattern.to_dict()) == [
            "items",
            "k",
            "signature",
            "min_gap",
            "chain",
        ]
        assert pattern.to_dict()["signature"] == "+-+"

    def test_replace_builds_the_new_signature(self, pattern):
        opposite = {
            Label.POSITIVE: Label.NEGATIVE,
            Label.NEGATIVE: Label.POSITIVE,
        }
        flipped = dataclasses.replace(
            pattern,
            links=tuple(
                dataclasses.replace(one, label=opposite[one.label])
                for one in pattern.links
            ),
        )
        assert flipped.signature == "-+-"
        assert pattern.signature == "+-+"


class TestMiningResult:
    def test_container_protocol(self, pattern):
        result = MiningResult(patterns=[pattern], stats=MiningStats())
        assert len(result) == 1
        assert list(result) == [pattern]

    def test_by_size(self, pattern):
        result = MiningResult(patterns=[pattern], stats=MiningStats())
        assert result.by_size(2) == [pattern]
        assert result.by_size(3) == []

    def test_sorted_by_gap(self, pattern):
        sharper = FlippingPattern(
            links=(
                link(1, ("c", "d"), 0.95, Label.POSITIVE),
                link(2, ("c1", "d1"), 0.05, Label.NEGATIVE),
                link(3, ("c11", "d11"), 0.99, Label.POSITIVE),
            )
        )
        result = MiningResult(patterns=[pattern, sharper], stats=MiningStats())
        ranked = result.sorted_by_gap()
        assert ranked[0] is sharper

    def test_sorted_by_gap_bad_score(self, pattern):
        result = MiningResult(patterns=[pattern], stats=MiningStats())
        with pytest.raises(ValueError):
            result.sorted_by_gap(score="magic")

    def test_describe_truncates(self, pattern):
        result = MiningResult(patterns=[pattern] * 12, stats=MiningStats())
        text = result.describe(limit=3)
        assert "(9 more patterns)" in text

    def test_to_dict(self, pattern):
        result = MiningResult(
            patterns=[pattern], stats=MiningStats(), config={"gamma": 0.5}
        )
        data = result.to_dict()
        assert data["config"]["gamma"] == 0.5
        assert len(data["patterns"]) == 1
