"""The taxonomy tree substrate.

A :class:`Taxonomy` is an is-a hierarchy over items.  Transactions
contain *items*, which are the leaves of the original taxonomy; every
internal node is a generalization and is itself an item at a coarser
abstraction level.  Levels are counted from the artificial root
(level 0, excluded from mining) down to ``height`` (the most specific
level).

The mining algorithms require a *balanced* taxonomy: every leaf at the
same depth.  Unbalanced trees can be repaired with the two strategies
of Fig. 3 of the paper, implemented in
:mod:`repro.taxonomy.rebalance`.

The node objects are the construction form.  Readers on the mining
and slide paths use :attr:`Taxonomy.compiled`, a
:class:`CompiledTaxonomy` built on first use and dropped by any
structural change: node ids per level, a parent array, children as
CSR, the per-level generalization of every item as one table, and the
name → item id map, all read-only.  :meth:`Taxonomy.item_ancestor_map`
is a dict view of that table.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

import numpy as np

from repro.errors import TaxonomyError
from repro.taxonomy.node import ROOT_NAME, TaxonomyNode

__all__ = ["CompiledTaxonomy", "Taxonomy"]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Children(Mapping[int, tuple[int, ...]]):
    """Node id -> child ids, in ``children_ids`` order, read from the
    CSR arrays (the shape :func:`repro.core.candidates.expand_children`
    takes)."""

    def __init__(self, start: np.ndarray, ids: np.ndarray) -> None:
        self._start = start
        self._ids = ids

    def __getitem__(self, node: int) -> tuple[int, ...]:
        if not 0 <= node < len(self._start) - 1:
            raise KeyError(node)
        start, stop = self._start[node : node + 2].tolist()
        return tuple(self._ids[start:stop].tolist())

    def __len__(self) -> int:
        return len(self._start) - 1

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._start) - 1))


class CompiledTaxonomy:
    """The frozen array form of one :class:`Taxonomy`.

    Arrays are indexed by node id and read-only:

    * ``parent`` — the parent id of every node, -1 for the root;
    * ``child_start`` / ``child_ids`` — children as CSR: the children
      of node ``n`` are ``child_ids[child_start[n]:child_start[n + 1]]``,
      in ``children_ids`` order;
    * ``item_ids`` — the items, ascending (see :attr:`Taxonomy.item_ids`);
    * :meth:`nodes_at_level` — node ids per level, ascending;
    * :meth:`item_ancestors` — per level, the generalization of every
      item (rebalancing copies included), -1 at every non-item id.

    ``item_id_by_name`` maps an item's name to its id (a shared dict:
    read it, never write it).  Errors match
    the node-walk accessors: an unbalanced tree or an out-of-range
    level raises the same :class:`TaxonomyError`.
    """

    def __init__(self, taxonomy: "Taxonomy") -> None:
        nodes = taxonomy._nodes
        size = max(nodes, default=-1) + 1
        parent = np.full(size, -1, dtype=np.int64)
        level = np.full(size, -1, dtype=np.int64)
        source = np.full(size, -1, dtype=np.int64)
        n_children = np.zeros(size, dtype=np.int64)
        child_ids: list[int] = []
        items: list[int] = []
        for node_id in sorted(nodes):
            node = nodes[node_id]
            if node.parent_id is not None:
                parent[node_id] = node.parent_id
            level[node_id] = node.level
            assert node.source_id is not None
            source[node_id] = node.source_id
            n_children[node_id] = len(node.children_ids)
            child_ids.extend(node.children_ids)
            # an item: an original leaf, or an original node with only
            # rebalancing copies below it
            if node.is_copy or node.parent_id is None:
                continue
            if all(nodes[child].is_copy for child in node.children_ids):
                items.append(node_id)
        self.height = int(level.max(initial=0))
        self.parent = _frozen(parent)
        self.child_start = _frozen(
            np.concatenate(([0], np.cumsum(n_children))).astype(np.int64)
        )
        self.child_ids = _frozen(np.array(child_ids, dtype=np.int64))
        self.item_ids = _frozen(np.array(items, dtype=np.int64))
        self.item_id_by_name: Mapping[str, int] = {
            nodes[item].name: item for item in items
        }
        self.children_of: Mapping[int, tuple[int, ...]] = _Children(
            self.child_start, self.child_ids
        )
        self._level_nodes = tuple(
            _frozen(np.flatnonzero(level == depth))
            for depth in range(self.height + 1)
        )
        leaves = np.flatnonzero((level >= 0) & (n_children == 0))
        self.balanced = bool((level[leaves] == self.height).all())
        #: every item, in leaf-id order: item_ancestor_map's keys
        self._leaf_items = _frozen(source[leaves])
        self._ancestors: np.ndarray | None = None
        if self.balanced:
            # Walk every leaf up one level at a time; a leaf stands for
            # its source item, so copies resolve to the item they copy.
            table = np.full((self.height + 1, size), -1, dtype=np.int64)
            current = leaves
            for depth in range(self.height, 0, -1):
                table[depth, self._leaf_items] = current
                current = parent[current]
            self._ancestors = _frozen(table)

    def nodes_at_level(self, level: int) -> np.ndarray:
        """Ids of all nodes at the given level, ascending."""
        if level < 0 or level > self.height:
            raise TaxonomyError(
                f"level {level} out of range [0, {self.height}]"
            )
        return self._level_nodes[level]

    def item_ancestors(self, level: int) -> np.ndarray:
        """The generalization id at ``level`` of every item, indexed
        by item id (-1 at ids that are not items).  Requires a
        balanced taxonomy."""
        if self._ancestors is None:
            raise TaxonomyError(
                "taxonomy is unbalanced; rebalance it before mining "
                "(see repro.taxonomy.rebalance)"
            )
        if level < 1 or level > self.height:
            raise TaxonomyError(
                f"level {level} out of range [1, {self.height}]"
            )
        return self._ancestors[level]

    def item_ancestor_map(self, level: int) -> dict[int, int]:
        """:meth:`item_ancestors` as an ``item -> generalization``
        dict."""
        ancestors = self.item_ancestors(level)
        keys = self._leaf_items
        return dict(zip(keys.tolist(), ancestors[keys].tolist()))


class Taxonomy:
    """An immutable-by-convention taxonomy tree.

    Construct with one of the factory class methods
    (:meth:`from_edges`, :meth:`from_paths`, :meth:`from_dict`) rather
    than by mutating an instance.
    """

    def __init__(self) -> None:
        self._nodes: dict[int, TaxonomyNode] = {}
        self._root_id: int | None = None
        # name -> node ids carrying that display name, ordered by level.
        self._name_index: dict[str, list[int]] = {}
        self._next_id = 0
        # caches, invalidated on _finalize()
        self._levels_cache: dict[int, list[int]] | None = None
        self._height_cache: int | None = None
        self._compiled: CompiledTaxonomy | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str]],
        root_name: str = ROOT_NAME,
    ) -> "Taxonomy":
        """Build a taxonomy from ``(parent_name, child_name)`` pairs.

        Nodes that never appear as a child are attached to an
        artificial root named ``root_name`` (created if necessary), so
        callers may supply a forest of per-category trees exactly as
        the paper describes level-1 categories.
        """
        tax = cls()
        root = tax._add_node(root_name, parent=None)
        parent_of: dict[str, str] = {}
        children_of: dict[str, list[str]] = {}
        names: list[str] = []
        seen: set[str] = set()
        for parent_name, child_name in edges:
            if not isinstance(parent_name, str) or not isinstance(
                child_name, str
            ):
                raise TaxonomyError("edge endpoints must be strings")
            if parent_name == child_name:
                raise TaxonomyError(f"self-loop on node {child_name!r}")
            if (
                child_name in parent_of
                and parent_of[child_name] != parent_name
            ):
                raise TaxonomyError(
                    f"node {child_name!r} has two parents: "
                    f"{parent_of[child_name]!r} and {parent_name!r}"
                )
            parent_of[child_name] = parent_name
            children_of.setdefault(parent_name, []).append(child_name)
            for name in (parent_name, child_name):
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        if root_name in parent_of:
            raise TaxonomyError(f"root {root_name!r} may not have a parent")
        # Top-level nodes: explicit children of the root name, plus every
        # parentless node, attached directly under the root.
        top_level: list[str] = []
        seen_top: set[str] = set()
        for name in children_of.get(root_name, []) + [
            n for n in names if n not in parent_of and n != root_name
        ]:
            if name not in seen_top:
                seen_top.add(name)
                top_level.append(name)
        if not top_level:
            if not names:
                raise TaxonomyError("taxonomy has no edges")
            raise TaxonomyError(
                "taxonomy contains a cycle (no top-level node)"
            )
        stack: list[tuple[str, TaxonomyNode]] = [
            (name, root) for name in reversed(top_level)
        ]
        visited: set[str] = set()
        while stack:
            name, parent_node = stack.pop()
            if name in visited:
                raise TaxonomyError(
                    f"node {name!r} reachable twice (cycle or DAG)"
                )
            visited.add(name)
            node = tax._add_node(name, parent=parent_node)
            for child in reversed(children_of.get(name, [])):
                stack.append((child, node))
        unreachable = set(names) - visited - {root_name}
        if unreachable:
            raise TaxonomyError(
                f"nodes unreachable from the root (cycle?): {sorted(unreachable)[:5]}"
            )
        tax._finalize()
        return tax

    @classmethod
    def from_paths(
        cls,
        paths: Iterable[Sequence[str]],
        root_name: str = ROOT_NAME,
    ) -> "Taxonomy":
        """Build from root-to-leaf name paths (excluding the root).

        Each path lists names from level 1 down to the item, e.g.
        ``("drinks", "beer", "canned beer")``.  Shared prefixes merge.
        """
        edges: list[tuple[str, str]] = []
        seen_edges: set[tuple[str, str]] = set()
        any_path = False
        for path in paths:
            any_path = True
            if not path:
                raise TaxonomyError("empty path")
            prev = root_name
            for name in path:
                edge = (prev, name)
                if edge not in seen_edges:
                    seen_edges.add(edge)
                    edges.append(edge)
                prev = name
        if not any_path:
            raise TaxonomyError("no paths supplied")
        return cls.from_edges(edges, root_name=root_name)

    @classmethod
    def from_dict(
        cls,
        tree: Mapping[str, Any],
        root_name: str = ROOT_NAME,
    ) -> "Taxonomy":
        """Build from a nested mapping.

        Values may be mappings (further levels), iterables of leaf
        names, or ``None`` (the key itself is a leaf)::

            Taxonomy.from_dict({
                "drinks": {"beer": ["canned beer", "bottled beer"]},
                "non-food": {"cosmetics": ["baby cosmetics"]},
            })
        """
        edges: list[tuple[str, str]] = []

        def walk(parent: str, value: Any) -> None:
            if value is None:
                return
            if isinstance(value, Mapping):
                for key, sub in value.items():
                    edges.append((parent, key))
                    walk(key, sub)
            elif isinstance(value, str):
                # A bare string is a single leaf child.
                edges.append((parent, value))
            else:
                for leaf in value:
                    walk(parent, leaf)

        walk(root_name, tree)
        if not edges:
            raise TaxonomyError("empty taxonomy mapping")
        return cls.from_edges(edges, root_name=root_name)

    # internal builders -------------------------------------------------

    def _add_node(
        self,
        name: str,
        parent: TaxonomyNode | None,
        *,
        is_copy: bool = False,
        source_id: int | None = None,
    ) -> TaxonomyNode:
        if not name:
            raise TaxonomyError("node names must be non-empty strings")
        if not is_copy and name in self._name_index:
            raise TaxonomyError(f"duplicate node name {name!r}")
        node_id = self._next_id
        self._next_id += 1
        level = 0 if parent is None else parent.level + 1
        node = TaxonomyNode(
            node_id=node_id,
            name=name,
            level=level,
            parent_id=None if parent is None else parent.node_id,
            is_copy=is_copy,
            source_id=source_id,
        )
        self._nodes[node_id] = node
        if parent is None:
            if self._root_id is not None:
                raise TaxonomyError("taxonomy already has a root")
            self._root_id = node_id
        else:
            parent.children_ids.append(node_id)
        self._name_index.setdefault(name, []).append(node_id)
        return node

    def _finalize(self) -> None:
        """Recompute caches; call after any structural change."""
        self._levels_cache = None
        self._height_cache = None
        self._compiled = None
        for ids in self._name_index.values():
            ids.sort(key=lambda nid: self._nodes[nid].level)

    @property
    def compiled(self) -> CompiledTaxonomy:
        """The frozen array form, built on first use."""
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = CompiledTaxonomy(self)
        return compiled

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def root_id(self) -> int:
        if self._root_id is None:  # pragma: no cover - guarded by factories
            raise TaxonomyError("taxonomy has no root")
        return self._root_id

    @property
    def root(self) -> TaxonomyNode:
        return self._nodes[self.root_id]

    def node(self, node_id: int) -> TaxonomyNode:
        """Return the node with the given id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TaxonomyError(f"unknown node id {node_id}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._name_index

    def __len__(self) -> int:
        """Number of nodes excluding the root."""
        return len(self._nodes) - 1

    def node_by_name(
        self, name: str, level: int | None = None
    ) -> TaxonomyNode:
        """Look a node up by display name.

        With rebalancing copies several nodes can share a name; pass
        ``level`` to disambiguate, otherwise the original (shallowest)
        node is returned.
        """
        ids = self._name_index.get(name)
        if not ids:
            raise TaxonomyError(f"unknown node name {name!r}")
        if level is None:
            return self._nodes[ids[0]]
        for nid in ids:
            if self._nodes[nid].level == level:
                return self._nodes[nid]
        raise TaxonomyError(f"no node named {name!r} at level {level}")

    def name_of(self, node_id: int) -> str:
        return self.node(node_id).name

    def parent_id(self, node_id: int) -> int | None:
        return self.node(node_id).parent_id

    def children_ids(self, node_id: int) -> tuple[int, ...]:
        return tuple(self.node(node_id).children_ids)

    def iter_nodes(self, include_root: bool = False) -> Iterable[TaxonomyNode]:
        """Iterate nodes in breadth-first (level) order."""
        queue: deque[int] = deque([self.root_id])
        while queue:
            nid = queue.popleft()
            node = self._nodes[nid]
            if include_root or not node.is_root:
                yield node
            queue.extend(node.children_ids)

    # ------------------------------------------------------------------
    # levels
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        """Number of abstraction levels, i.e. the depth of the deepest leaf."""
        if self._height_cache is None:
            self._height_cache = max(
                (node.level for node in self._nodes.values()), default=0
            )
        return self._height_cache

    def nodes_at_level(self, level: int) -> list[int]:
        """Ids of all nodes at the given level, ascending by id."""
        if self._levels_cache is None:
            cache: dict[int, list[int]] = {}
            for node in self._nodes.values():
                cache.setdefault(node.level, []).append(node.node_id)
            for ids in cache.values():
                ids.sort()
            self._levels_cache = cache
        if level < 0 or level > self.height:
            raise TaxonomyError(
                f"level {level} out of range [0, {self.height}]"
            )
        return list(self._levels_cache.get(level, []))

    @property
    def leaf_ids(self) -> list[int]:
        """Ids of all leaves (any depth), ascending."""
        return sorted(
            node.node_id for node in self._nodes.values() if node.is_leaf
        )

    @property
    def item_ids(self) -> list[int]:
        """Ids of the *items*: original (non-copy) leaves, plus
        original nodes whose entire remaining subtree is copies."""
        items = []
        for node in self._nodes.values():
            if node.is_copy or node.is_root:
                continue
            if node.is_leaf or all(
                self._nodes[c].is_copy for c in node.children_ids
            ):
                items.append(node.node_id)
        return sorted(items)

    @property
    def is_balanced(self) -> bool:
        """True when every leaf sits at depth ``height``."""
        height = self.height
        return all(
            node.level == height
            for node in self._nodes.values()
            if node.is_leaf
        )

    # ------------------------------------------------------------------
    # ancestry
    # ------------------------------------------------------------------

    def ancestors(self, node_id: int) -> list[int]:
        """Ancestor ids from level 1 down to the node itself (inclusive)."""
        chain: list[int] = []
        current: int | None = node_id
        while current is not None:
            node = self._nodes[current]
            if not node.is_root:
                chain.append(current)
            current = node.parent_id
        chain.reverse()
        return chain

    def ancestor_at_level(self, node_id: int, level: int) -> int:
        """Id of the ancestor of ``node_id`` at the given level.

        ``level`` must satisfy ``1 <= level <= node.level``; the node
        itself is returned when ``level == node.level``.
        """
        node = self.node(node_id)
        if level < 1 or level > node.level:
            raise TaxonomyError(
                f"node {node.name!r} (level {node.level}) has no ancestor "
                f"at level {level}"
            )
        while node.level > level:
            assert node.parent_id is not None
            node = self._nodes[node.parent_id]
        return node.node_id

    def level1_ancestor(self, node_id: int) -> int:
        """Id of the level-1 (top category) ancestor."""
        return self.ancestor_at_level(node_id, 1)

    def item_leaves(self, node_id: int) -> set[int]:
        """Ids of the original items covered by the subtree of a node.

        Rebalancing copies are resolved to their source leaf, so the
        result always refers to items that occur in transactions.
        """
        found: set[int] = set()
        stack = [node_id]
        while stack:
            nid = stack.pop()
            node = self._nodes[nid]
            if node.is_leaf:
                assert node.source_id is not None
                found.add(node.source_id)
            else:
                stack.extend(node.children_ids)
        return found

    def item_ancestor_map(self, level: int) -> dict[int, int]:
        """Map each item id to its generalization id at ``level``.

        Requires a balanced taxonomy (rebalance first otherwise) so
        that every item has an ancestor at every level.  A view of
        :meth:`CompiledTaxonomy.item_ancestors`.
        """
        return self.compiled.item_ancestor_map(level)

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line summary of the tree shape."""
        lines = [
            f"Taxonomy: {len(self)} nodes, height={self.height}, "
            f"balanced={self.is_balanced}"
        ]
        for level in range(1, self.height + 1):
            ids = self.nodes_at_level(level)
            preview = ", ".join(self._nodes[i].name for i in ids[:6])
            suffix = ", ..." if len(ids) > 6 else ""
            lines.append(
                f"  level {level}: {len(ids)} nodes ({preview}{suffix})"
            )
        return "\n".join(lines)

    def render(self, max_children: int = 10) -> str:
        """ASCII rendering of the tree (truncated at ``max_children``)."""
        lines: list[str] = []

        def walk(node_id: int, prefix: str) -> None:
            node = self._nodes[node_id]
            label = node.name + (" (copy)" if node.is_copy else "")
            lines.append(f"{prefix}{label}")
            shown = node.children_ids[:max_children]
            hidden = len(node.children_ids) - len(shown)
            for child in shown:
                walk(child, prefix + "  ")
            if hidden > 0:
                lines.append(f"{prefix}  ... ({hidden} more)")

        walk(self.root_id, "")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Taxonomy(nodes={len(self)}, height={self.height})"
