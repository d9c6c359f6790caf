"""Correlation measures (paper Section 2.1, Tables 1 and 2).

The paper's Table 2 lists the five known *null-invariant* correlation
measures.  Each is a generalized mean of the conditional probabilities

    P(A | a_i) = sup(A) / sup(a_i),    a_i in A,

which makes them independent of the number of null transactions and
therefore stable on large sparse datasets.  The fixed ordering

    All Confidence <= Coherence <= Cosine <= Kulczynski <= Max Confidence
    (minimum)         (harmonic)   (geometric) (arithmetic)  (maximum)

follows from the classical mean inequalities and is exercised by the
property-test suite.

The module also implements the *expectation-based* measures (expected
support, Lift, chi-square) that the paper's Table 1 uses to demonstrate
why such measures are unreliable: their sign depends on the total
transaction count ``N``.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "Measure",
    "MEASURES",
    "get_measure",
    "all_confidence",
    "coherence",
    "cosine",
    "kulczynski",
    "max_confidence",
    "conditional_probabilities",
    "conditional_probability_matrix",
    "all_confidence_array",
    "coherence_array",
    "cosine_array",
    "kulczynski_array",
    "max_confidence_array",
    "expected_support",
    "lift",
    "chi_square",
    "expectation_sign",
]


# ---------------------------------------------------------------------------
# null-invariant measures
# ---------------------------------------------------------------------------


def conditional_probabilities(
    sup_itemset: int, item_supports: Sequence[int]
) -> list[float]:
    """The probabilities ``P(A | a_i) = sup(A) / sup(a_i)``.

    Items with zero support contribute probability 0 (their itemset
    necessarily has zero support as well).
    """
    if not item_supports:
        raise ConfigError("itemset must contain at least one item")
    if sup_itemset < 0:
        raise ConfigError(f"negative itemset support {sup_itemset}")
    probabilities = []
    for support in item_supports:
        if support < sup_itemset:
            raise ConfigError(
                f"item support {support} below itemset support {sup_itemset}; "
                "supports are inconsistent"
            )
        probabilities.append(0.0 if support == 0 else sup_itemset / support)
    return probabilities


def all_confidence(sup_itemset: int, item_supports: Sequence[int]) -> float:
    """Minimum of the conditional probabilities."""
    return min(conditional_probabilities(sup_itemset, item_supports))


def coherence(sup_itemset: int, item_supports: Sequence[int]) -> float:
    """Harmonic mean of the conditional probabilities.

    This is the paper's re-definition of Coherence (footnote to
    Table 2), which preserves the ordering of the original
    intersection-over-union form.
    """
    probabilities = conditional_probabilities(sup_itemset, item_supports)
    if any(p == 0.0 for p in probabilities):
        return 0.0
    k = len(probabilities)
    return k / sum(1.0 / p for p in probabilities)


def cosine(sup_itemset: int, item_supports: Sequence[int]) -> float:
    """Geometric mean of the conditional probabilities."""
    probabilities = conditional_probabilities(sup_itemset, item_supports)
    if any(p == 0.0 for p in probabilities):
        return 0.0
    k = len(probabilities)
    # exp(mean(log)) is numerically steadier than prod()**(1/k)
    return math.exp(sum(math.log(p) for p in probabilities) / k)


def kulczynski(sup_itemset: int, item_supports: Sequence[int]) -> float:
    """Arithmetic mean of the conditional probabilities (Kulc, eq. 1)."""
    probabilities = conditional_probabilities(sup_itemset, item_supports)
    return sum(probabilities) / len(probabilities)


def max_confidence(sup_itemset: int, item_supports: Sequence[int]) -> float:
    """Maximum of the conditional probabilities."""
    return max(conditional_probabilities(sup_itemset, item_supports))


# ---------------------------------------------------------------------------
# array forms: one row per itemset, bit-identical to the scalar functions
# ---------------------------------------------------------------------------
#
# ``sup_itemsets`` is an ``(n,)`` integer vector and ``item_supports``
# the ``(n, k)`` matrix of member supports.  Sums run column by column,
# left to right, with the same float operations as the builtin ``sum()``
# the scalar functions use (NumPy's pairwise summation would reorder
# them).  From Python 3.12 on, ``sum()`` of floats carries a Neumaier
# compensation term; the probe below detects which one this interpreter
# does, so the array forms match it on every supported version.

_COMPENSATED_SUM = sum([0.1] * 10) == 1.0


def conditional_probability_matrix(
    sup_itemsets: np.ndarray, item_supports: np.ndarray
) -> np.ndarray:
    """Row-wise :func:`conditional_probabilities` as a float matrix."""
    sups = np.asarray(sup_itemsets, dtype=np.int64)
    members = np.asarray(item_supports, dtype=np.int64)
    if members.ndim != 2 or members.shape[1] == 0:
        raise ConfigError("itemset must contain at least one item")
    if (sups < 0).any():
        raise ConfigError("negative itemset support")
    if (members < sups[:, None]).any():
        raise ConfigError(
            "item support below itemset support; supports are inconsistent"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        probabilities = sups[:, None] / members
    probabilities[members == 0] = 0.0
    return probabilities


def _row_sums(matrix: np.ndarray) -> np.ndarray:
    """Per-row ``sum()`` of a float matrix, bit-identical to the
    builtin over each row."""
    total = matrix[:, 0].copy()
    if not _COMPENSATED_SUM:
        for column in range(1, matrix.shape[1]):
            total += matrix[:, column]
        return total
    compensation = np.zeros_like(total)
    with np.errstate(invalid="ignore"):
        for column in range(1, matrix.shape[1]):
            x = matrix[:, column]
            t = total + x
            compensation += np.where(
                np.abs(total) >= np.abs(x), (total - t) + x, (x - t) + total
            )
            total = t
        use = (compensation != 0.0) & np.isfinite(compensation)
    total[use] += compensation[use]
    return total


def all_confidence_array(
    sup_itemsets: np.ndarray, item_supports: np.ndarray
) -> np.ndarray:
    """Array form of :func:`all_confidence`."""
    probabilities = conditional_probability_matrix(sup_itemsets, item_supports)
    return probabilities.min(axis=1)


def coherence_array(
    sup_itemsets: np.ndarray, item_supports: np.ndarray
) -> np.ndarray:
    """Array form of :func:`coherence`."""
    probabilities = conditional_probability_matrix(sup_itemsets, item_supports)
    k = probabilities.shape[1]
    with np.errstate(divide="ignore"):
        result = k / _row_sums(1.0 / probabilities)
    result[(probabilities == 0.0).any(axis=1)] = 0.0
    return result


def cosine_array(
    sup_itemsets: np.ndarray, item_supports: np.ndarray
) -> np.ndarray:
    """Array form of :func:`cosine`.

    The logarithms and exponentials stay on :mod:`math`: NumPy's
    vectorized ``log``/``exp`` need not round like the C library's,
    and the scalar function is the oracle to the last bit.
    """
    probabilities = conditional_probability_matrix(sup_itemsets, item_supports)
    n, k = probabilities.shape
    logs = np.array(
        [
            math.log(p) if p > 0.0 else 0.0
            for p in probabilities.ravel().tolist()
        ],
        dtype=np.float64,
    ).reshape(n, k)
    means = (_row_sums(logs) / k).tolist()
    zero = (probabilities == 0.0).any(axis=1).tolist()
    return np.array(
        [0.0 if z else math.exp(m) for z, m in zip(zero, means)],
        dtype=np.float64,
    )


def kulczynski_array(
    sup_itemsets: np.ndarray, item_supports: np.ndarray
) -> np.ndarray:
    """Array form of :func:`kulczynski`."""
    probabilities = conditional_probability_matrix(sup_itemsets, item_supports)
    return _row_sums(probabilities) / probabilities.shape[1]


def max_confidence_array(
    sup_itemsets: np.ndarray, item_supports: np.ndarray
) -> np.ndarray:
    """Array form of :func:`max_confidence`."""
    probabilities = conditional_probability_matrix(sup_itemsets, item_supports)
    return probabilities.max(axis=1)


@dataclass(frozen=True)
class Measure:
    """A named correlation measure with its algebraic metadata.

    Attributes
    ----------
    name:
        Canonical lowercase name.
    fn:
        ``fn(sup_itemset, item_supports) -> float``.
    mean_kind:
        Which generalized mean the measure realizes (paper Table 2).
    anti_monotonic:
        True for measures that can only decrease when the itemset
        grows (All Confidence, Coherence).  The paper's contribution is
        pruning for the *non*-anti-monotonic ones.
    null_invariant:
        True for the five Table-2 measures.
    aliases:
        Accepted alternative spellings for :func:`get_measure`.
    array_fn:
        Optional ``array_fn(sup_itemsets, item_supports) -> ndarray``
        over a whole batch, bit-identical to ``fn`` row by row.
    """

    name: str
    fn: Callable[[int, Sequence[int]], float]
    mean_kind: str
    anti_monotonic: bool
    null_invariant: bool = True
    aliases: tuple[str, ...] = field(default_factory=tuple)
    array_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __call__(
        self, sup_itemset: int, item_supports: Sequence[int]
    ) -> float:
        return self.fn(sup_itemset, item_supports)

    def batch(
        self, sup_itemsets: np.ndarray, item_supports: np.ndarray
    ) -> np.ndarray:
        """Correlations of a batch: ``sup_itemsets`` is ``(n,)``,
        ``item_supports`` the ``(n, k)`` member supports.  Measures
        without an ``array_fn`` map ``fn`` over the rows."""
        if self.array_fn is not None:
            return self.array_fn(sup_itemsets, item_supports)
        return np.array(
            [
                self.fn(support, members)
                for support, members in zip(
                    np.asarray(sup_itemsets).tolist(),
                    np.asarray(item_supports).tolist(),
                )
            ],
            dtype=np.float64,
        )


MEASURES: dict[str, Measure] = {
    measure.name: measure
    for measure in (
        Measure(
            name="all_confidence",
            fn=all_confidence,
            array_fn=all_confidence_array,
            mean_kind="minimum",
            anti_monotonic=True,
            aliases=("allconf", "all-confidence", "all confidence"),
        ),
        Measure(
            name="coherence",
            fn=coherence,
            array_fn=coherence_array,
            mean_kind="harmonic",
            anti_monotonic=True,
            aliases=("jaccard",),
        ),
        Measure(
            name="cosine",
            fn=cosine,
            array_fn=cosine_array,
            mean_kind="geometric",
            anti_monotonic=False,
        ),
        Measure(
            name="kulczynski",
            fn=kulczynski,
            array_fn=kulczynski_array,
            mean_kind="arithmetic",
            anti_monotonic=False,
            aliases=("kulc", "kulczynsky"),
        ),
        Measure(
            name="max_confidence",
            fn=max_confidence,
            array_fn=max_confidence_array,
            mean_kind="maximum",
            anti_monotonic=False,
            aliases=("maxconf", "max-confidence", "max confidence"),
        ),
    )
}

def _normalize_measure_name(name: str) -> str:
    """Canonical lookup key: lowercase, with whitespace/hyphen/underscore
    runs collapsed to a single underscore, so ``"Kulc"``, ``" cosine "``
    and ``"All Confidence"`` all resolve."""
    return re.sub(r"[\s_-]+", "_", name.strip().lower())


_ALIAS_INDEX: dict[str, str] = {}
for _measure in MEASURES.values():
    _ALIAS_INDEX[_normalize_measure_name(_measure.name)] = _measure.name
    for _alias in _measure.aliases:
        _ALIAS_INDEX[_normalize_measure_name(_alias)] = _measure.name


def get_measure(measure: str | Measure) -> Measure:
    """Resolve a measure by name/alias, or pass an instance through.

    Resolution is insensitive to case, surrounding whitespace, and the
    choice of space/hyphen/underscore separator.
    """
    if isinstance(measure, Measure):
        return measure
    canonical = _ALIAS_INDEX.get(_normalize_measure_name(measure))
    if canonical is None:
        known = ", ".join(sorted(MEASURES))
        raise ConfigError(f"unknown measure {measure!r}; known: {known}")
    return MEASURES[canonical]


# ---------------------------------------------------------------------------
# expectation-based measures (Table 1 — shown to be unreliable)
# ---------------------------------------------------------------------------


def expected_support(
    item_supports: Sequence[int], n_transactions: int
) -> float:
    """Independence-model expectation ``N * prod(sup(a_i)/N)``."""
    if n_transactions <= 0:
        raise ConfigError("n_transactions must be positive")
    expectation = float(n_transactions)
    for support in item_supports:
        if support < 0 or support > n_transactions:
            raise ConfigError(
                f"item support {support} outside [0, {n_transactions}]"
            )
        expectation *= support / n_transactions
    return expectation


def lift(
    sup_itemset: int, item_supports: Sequence[int], n_transactions: int
) -> float:
    """Observed over expected support; >1 reads "positive", <1 "negative"."""
    expectation = expected_support(item_supports, n_transactions)
    if expectation == 0.0:
        return math.inf if sup_itemset > 0 else 0.0
    return sup_itemset / expectation


def expectation_sign(
    sup_itemset: int, item_supports: Sequence[int], n_transactions: int
) -> str:
    """Classification used in Table 1: ``positive``/``negative``/``independent``.

    The whole point of the paper's Table 1 is that this answer flips
    with ``N`` while the actual relationship does not.
    """
    expectation = expected_support(item_supports, n_transactions)
    if sup_itemset > expectation:
        return "positive"
    if sup_itemset < expectation:
        return "negative"
    return "independent"


def chi_square(
    sup_a: int, sup_b: int, sup_ab: int, n_transactions: int
) -> float:
    """Pearson chi-square statistic of the 2x2 contingency table of two
    items (used with Lift in the literature the paper contrasts)."""
    n = n_transactions
    if n <= 0:
        raise ConfigError("n_transactions must be positive")
    if not (0 <= sup_ab <= min(sup_a, sup_b)) or max(sup_a, sup_b) > n:
        raise ConfigError("inconsistent contingency counts")
    cells = {
        (0, 0): sup_ab,                      # A and B
        (0, 1): sup_a - sup_ab,              # A, not B
        (1, 0): sup_b - sup_ab,              # not A, B
        (1, 1): n - sup_a - sup_b + sup_ab,  # neither
    }
    row = (sup_a, n - sup_a)
    col = (sup_b, n - sup_b)
    statistic = 0.0
    for i, r in enumerate(row):
        for j, c in enumerate(col):
            expected = r * c / n
            if expected == 0.0:
                continue
            diff = cells[(i, j)] - expected
            statistic += diff * diff / expected
    return statistic
