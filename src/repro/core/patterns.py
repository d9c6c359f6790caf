"""Flipping-pattern result objects.

A flipping pattern (paper Definition 2) is a k-itemset of concrete
items whose generalizations alternate between positive and negative
correlation at every taxonomy level from 1 down to H.  The pattern is
reported as a chain of :class:`ChainLink` records, one per level, so
callers can inspect the exact correlation trajectory the miner found.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.core.labels import Label
from repro.core.stats import MiningStats

__all__ = ["ChainLink", "FlippingPattern", "MiningResult"]


@dataclass(frozen=True)
class ChainLink:
    """One level of a flipping chain."""

    level: int
    itemset: tuple[int, ...]
    names: tuple[str, ...]
    support: int
    correlation: float
    label: Label

    def render(self) -> str:
        names = ", ".join(self.names)
        return (
            f"level {self.level}: {{{names}}} "
            f"sup={self.support} corr={self.correlation:.4f} [{self.label.symbol}]"
        )


@dataclass(frozen=True)
class FlippingPattern:
    """A complete flipping correlation pattern.

    ``links`` runs from level 1 (coarsest) to level H (the concrete
    items); labels alternate between POSITIVE and NEGATIVE along it.
    """

    links: tuple[ChainLink, ...]
    #: :attr:`signature`, built once with the pattern: a store reads it
    #: per index key, stored text and event.  A ``cached_property``
    #: filled on first read instead raised the peak RSS of a server
    #: holding 20k patterns from 216 to 240 MB.
    _signature: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.links) < 2:
            raise ValueError("a flipping pattern spans at least two levels")
        object.__setattr__(
            self,
            "_signature",
            "".join(link.label.symbol for link in self.links),
        )

    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """Number of items in the pattern."""
        return len(self.links[-1].itemset)

    @property
    def height(self) -> int:
        return len(self.links)

    @property
    def leaf_link(self) -> ChainLink:
        """The most specific (level-H) link."""
        return self.links[-1]

    @property
    def leaf_names(self) -> tuple[str, ...]:
        return self.leaf_link.names

    @property
    def signature(self) -> str:
        """Compact label trajectory, e.g. ``+-+``."""
        return self._signature

    @property
    def bottom_label(self) -> Label:
        return self.leaf_link.label

    # ------------------------------------------------------------------
    # "most flipping" scores (paper Section 7, future work)
    # ------------------------------------------------------------------

    @property
    def min_gap(self) -> float:
        """Smallest correlation jump between consecutive levels — the
        bottleneck of the chain; large values mean sharp flips all the
        way down."""
        return min(
            abs(upper.correlation - lower.correlation)
            for upper, lower in zip(self.links, self.links[1:])
        )

    @property
    def max_gap(self) -> float:
        """Largest correlation jump between consecutive levels."""
        return max(
            abs(upper.correlation - lower.correlation)
            for upper, lower in zip(self.links, self.links[1:])
        )

    @property
    def mean_gap(self) -> float:
        """Average correlation jump between consecutive levels."""
        gaps = [
            abs(upper.correlation - lower.correlation)
            for upper, lower in zip(self.links, self.links[1:])
        ]
        return sum(gaps) / len(gaps)

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line rendering of the full chain."""
        header = (
            f"Flipping pattern {{{', '.join(self.leaf_names)}}} "
            f"(k={self.k}, signature {self.signature}, "
            f"min gap {self.min_gap:.3f})"
        )
        return "\n".join(
            [header] + ["  " + link.render() for link in self.links]
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "items": list(self.leaf_names),
            "k": self.k,
            "signature": self.signature,
            "min_gap": self.min_gap,
            "chain": [
                {
                    "level": link.level,
                    "itemset": list(link.itemset),
                    "names": list(link.names),
                    "support": link.support,
                    "correlation": link.correlation,
                    "label": str(link.label),
                }
                for link in self.links
            ],
        }

    def __str__(self) -> str:
        return f"{{{', '.join(self.leaf_names)}}} [{self.signature}]"


@dataclass
class MiningResult:
    """Patterns plus instrumentation from one mining run."""

    patterns: list[FlippingPattern]
    stats: MiningStats
    config: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[FlippingPattern]:
        return iter(self.patterns)

    def by_size(self, k: int) -> list[FlippingPattern]:
        """Patterns with exactly ``k`` items."""
        return [pattern for pattern in self.patterns if pattern.k == k]

    def sorted_by_gap(
        self, *, score: str = "min_gap"
    ) -> list[FlippingPattern]:
        """Patterns ordered by a flip-sharpness score, best first."""
        if score not in {"min_gap", "max_gap", "mean_gap"}:
            raise ValueError(f"unknown gap score {score!r}")
        return sorted(
            self.patterns, key=lambda p: getattr(p, score), reverse=True
        )

    def describe(self, limit: int = 10) -> str:
        """Digest of the run: stats plus the first ``limit`` patterns."""
        lines = [self.stats.summary(), ""]
        for pattern in self.patterns[:limit]:
            lines.append(pattern.describe())
            lines.append("")
        hidden = len(self.patterns) - limit
        if hidden > 0:
            lines.append(f"... ({hidden} more patterns)")
        return "\n".join(lines).rstrip()

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "stats": self.stats.to_dict(),
            "patterns": [pattern.to_dict() for pattern in self.patterns],
        }
