"""Property: the compiled taxonomy equals the node walk.

For random trees, their leaf-copy rebalancing, their truncation and
their level contractions, every array of
:class:`~repro.taxonomy.tree.CompiledTaxonomy` must match what the
node objects say: node ids per level, parents, children in order,
the per-level item table (against ``ancestor_at_level`` and the
node-walk ``item_ancestor_map`` it replaced) and the name -> item id
map.  Unbalanced trees and out-of-range levels must raise the same
:class:`TaxonomyError` as the walk.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TaxonomyError
from repro.taxonomy.rebalance import (
    contract_levels,
    rebalance_with_copies,
    truncate,
)
from repro.taxonomy.tree import Taxonomy
from tests.conftest import taxonomy_trees


def walk_ancestor_map(taxonomy: Taxonomy, level: int) -> dict[int, int]:
    """``item_ancestor_map`` as a walk over the leaves' parent links."""
    if not taxonomy.is_balanced:
        raise TaxonomyError(
            "taxonomy is unbalanced; rebalance it before mining "
            "(see repro.taxonomy.rebalance)"
        )
    if level < 1 or level > taxonomy.height:
        raise TaxonomyError(
            f"level {level} out of range [1, {taxonomy.height}]"
        )
    return {
        node.source_id: taxonomy.ancestor_at_level(node.node_id, level)
        for node in taxonomy.iter_nodes()
        if node.is_leaf
    }


def error_of(call, *args) -> str:
    with pytest.raises(TaxonomyError) as raised:
        call(*args)
    return str(raised.value)


def assert_compiled_matches(taxonomy: Taxonomy) -> None:
    compiled = taxonomy.compiled
    height = taxonomy.height
    assert compiled.height == height
    assert compiled.balanced == taxonomy.is_balanced
    for level in range(height + 1):
        nodes = compiled.nodes_at_level(level).tolist()
        assert nodes == taxonomy.nodes_at_level(level)
    for level in (-1, height + 1):
        error = error_of(compiled.nodes_at_level, level)
        assert error == error_of(taxonomy.nodes_at_level, level)
    for node in taxonomy.iter_nodes(include_root=True):
        node_id = node.node_id
        parent = taxonomy.parent_id(node_id)
        assert compiled.parent[node_id] == (-1 if parent is None else parent)
        start, stop = compiled.child_start[node_id : node_id + 2]
        children = taxonomy.children_ids(node_id)
        assert tuple(compiled.child_ids[start:stop].tolist()) == children
        assert compiled.children_of[node_id] == children
    assert compiled.item_ids.tolist() == taxonomy.item_ids
    names = {taxonomy.name_of(item): item for item in taxonomy.item_ids}
    assert dict(compiled.item_id_by_name) == names
    levels = range(1, height + 1)
    if taxonomy.is_balanced:
        items = set(taxonomy.item_ids)
        for level in levels:
            table = compiled.item_ancestors(level)
            expected = walk_ancestor_map(taxonomy, level)
            assert taxonomy.item_ancestor_map(level) == expected
            for node in taxonomy.iter_nodes():
                if node.is_leaf:
                    ancestor = taxonomy.ancestor_at_level(node.node_id, level)
                    assert table[node.source_id] == ancestor
                elif node.node_id not in items:
                    assert table[node.node_id] == -1
    bad_levels = [0, height + 1] + ([] if taxonomy.is_balanced else [*levels])
    for level in bad_levels:
        expected = error_of(walk_ancestor_map, taxonomy, level)
        assert error_of(taxonomy.item_ancestor_map, level) == expected
        assert error_of(compiled.item_ancestors, level) == expected


@settings(max_examples=60, deadline=None)
@given(tree=taxonomy_trees(), data=st.data())
def test_compiled_taxonomy_equals_the_node_walk(tree, data):
    tree, _leaves = tree
    original = Taxonomy.from_dict(tree)
    levels = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=original.height),
            min_size=1,
            unique=True,
        )
    )
    contracted, _ = contract_levels(original, levels)
    truncated, _ = truncate(original)
    for taxonomy in (
        original,
        rebalance_with_copies(original),
        truncated,
        contracted,
        rebalance_with_copies(contracted),
    ):
        assert_compiled_matches(taxonomy)


def test_structural_change_drops_the_compiled_form():
    taxonomy = Taxonomy.from_dict({"a": ["a1"], "b": ["b1"]})
    before = taxonomy.compiled
    assert taxonomy.compiled is before
    taxonomy._add_node("b2", parent=taxonomy.node_by_name("b"))
    taxonomy._finalize()
    after = taxonomy.compiled
    assert after is not before
    assert "b2" in after.item_id_by_name
    assert not after.parent.flags.writeable
