"""A deterministic synthetic pattern corpus at serving scale.

Mining produces corpora far too small to stress an index, so the
serving benchmark workload and the serve tests index a generated
corpus instead: :func:`synthetic_serve_result` builds ``n_patterns``
flipping patterns over a fixed category/group/item namespace, shaped
exactly like the miner's output.
"""

from __future__ import annotations

import random

from repro.core.labels import Label
from repro.core.patterns import ChainLink, FlippingPattern, MiningResult
from repro.core.stats import MiningStats

__all__ = ["synthetic_serve_result"]

#: synthetic taxonomy namespace: 12 categories x 80 groups x 600 items
_N_CATS = 12
_N_GROUPS = 80
_N_ITEMS = 600

_LABEL_OF = {"+": Label.POSITIVE, "-": Label.NEGATIVE}


def _cat(c: int) -> tuple[int, str]:
    return c, f"cat{c:02d}"


def _group(g: int) -> tuple[int, str]:
    return 100 + g, f"grp{g:03d}"


def _item(i: int) -> tuple[int, str]:
    return 1000 + i, f"item{i:04d}"


def _group_of_item(i: int) -> int:
    return (i - 1) % _N_GROUPS + 1


def _cat_of_group(g: int) -> int:
    return (g - 1) % _N_CATS + 1


def _link(
    level: int,
    members: list[tuple[int, str]],
    support: int,
    correlation: float,
    symbol: str,
) -> ChainLink:
    members = sorted(members)
    return ChainLink(
        level=level,
        itemset=tuple(node_id for node_id, _ in members),
        names=tuple(name for _, name in members),
        support=support,
        correlation=correlation,
        label=_LABEL_OF[symbol],
    )


def synthetic_serve_result(n_patterns: int, seed: int = 7) -> MiningResult:
    """A deterministic corpus of ``n_patterns`` flipping patterns.

    Chains span the fixed category/group/item namespace: ~85% are
    3-level chains over concrete items, the rest 2-level chains over
    groups, with alternating signatures, generalization-monotone
    supports and label-consistent correlations — structurally exactly
    what the miner emits, at serving scale.
    """
    rng = random.Random(seed)
    patterns: list[FlippingPattern] = []
    seen: set[tuple[int, ...]] = set()
    while len(patterns) < n_patterns:
        k = rng.choice((2, 2, 3))
        tall = rng.random() < 0.85
        if tall:
            picks = rng.sample(range(1, _N_ITEMS + 1), k)
            leaves = [_item(i) for i in picks]
            groups = sorted({_group_of_item(i) for i in picks})
            cats = sorted({_cat_of_group(g) for g in groups})
        else:
            picks = rng.sample(range(1, _N_GROUPS + 1), k)
            leaves = [_group(g) for g in picks]
            groups = []
            cats = sorted({_cat_of_group(g) for g in picks})
        key = tuple(sorted(node_id for node_id, _ in leaves))
        if key in seen:
            continue
        seen.add(key)
        signature = "+-+" if rng.random() < 0.5 else "-+-"
        signature = signature[: 3 if tall else 2]
        support = rng.randint(20, 2000)
        links: list[ChainLink] = []
        chain_levels: list[list[tuple[int, str]]] = [[_cat(c) for c in cats]]
        if tall:
            chain_levels.append([_group(g) for g in groups])
        chain_levels.append(leaves)
        supports = [support]
        for _ in range(len(chain_levels) - 1):
            supports.append(supports[-1] + rng.randint(0, 4000))
        supports.reverse()
        for depth, members in enumerate(chain_levels):
            symbol = signature[depth]
            correlation = (
                rng.uniform(0.5, 1.0)
                if symbol == "+"
                else rng.uniform(0.0, 0.3)
            )
            links.append(
                _link(
                    depth + 1, members, supports[depth], correlation, symbol
                )
            )
        patterns.append(FlippingPattern(links=tuple(links)))
    stats = MiningStats(
        method="synthetic-serve",
        measure="kulczynski",
        n_patterns=len(patterns),
    )
    return MiningResult(
        patterns=patterns,
        stats=stats,
        config={"synthetic": True, "seed": seed, "n_patterns": n_patterns},
    )
