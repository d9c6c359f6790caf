"""Correlation labels (paper Definition 1).

An itemset is **positive** when it is frequent and its correlation is
at least ``gamma``; **negative** when frequent with correlation at most
``epsilon``; **non-correlated** when frequent but in the dead zone
between the thresholds; and **infrequent** otherwise.  Only positive
and negative itemsets can participate in a flipping chain.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["Label", "LABELS_BY_CODE", "label_for", "label_codes", "flips"]


class Label(enum.Enum):
    """Correlation label of one (h,k)-itemset."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    NON_CORRELATED = "non-correlated"
    INFREQUENT = "infrequent"

    @property
    def is_signed(self) -> bool:
        """True for the two labels that can appear in a flipping chain."""
        return self in (Label.POSITIVE, Label.NEGATIVE)

    @property
    def is_positive(self) -> bool:
        return self is Label.POSITIVE

    @property
    def is_frequent(self) -> bool:
        """True for every label assigned to a frequent itemset."""
        return self is not Label.INFREQUENT

    @property
    def symbol(self) -> str:
        """Compact rendering used in pattern chains: ``+ - . x``."""
        return _SYMBOLS[self]

    def __str__(self) -> str:
        return self.value


_SYMBOLS = {
    Label.POSITIVE: "+",
    Label.NEGATIVE: "-",
    Label.NON_CORRELATED: ".",
    Label.INFREQUENT: "x",
}


def label_for(
    support: int,
    correlation: float,
    min_count: int,
    gamma: float,
    epsilon: float,
) -> Label:
    """Label an itemset per Definition 1.

    Frequency is checked first: correlation thresholds only apply to
    frequent itemsets.
    """
    if support < min_count:
        return Label.INFREQUENT
    if correlation >= gamma:
        return Label.POSITIVE
    if correlation <= epsilon:
        return Label.NEGATIVE
    return Label.NON_CORRELATED


#: :func:`label_codes` output, indexed by code
LABELS_BY_CODE: tuple[Label, ...] = (
    Label.INFREQUENT,
    Label.NON_CORRELATED,
    Label.POSITIVE,
    Label.NEGATIVE,
)


def label_codes(
    supports: np.ndarray,
    correlations: np.ndarray,
    min_count: int,
    gamma: float | np.ndarray,
    epsilon: float | np.ndarray,
) -> np.ndarray:
    """:func:`label_for` over a batch, as indexes into
    :data:`LABELS_BY_CODE` (``gamma``/``epsilon`` may be per-row)."""
    codes = np.where(
        correlations >= gamma, 2, np.where(correlations <= epsilon, 3, 1)
    ).astype(np.int8)
    codes[supports < min_count] = 0
    return codes


def flips(parent: Label, child: Label) -> bool:
    """True when two vertically consecutive labels alternate sign
    (paper Definition 2): one positive, the other negative."""
    return parent.is_signed and child.is_signed and parent is not child
