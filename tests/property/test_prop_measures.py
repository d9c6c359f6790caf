"""Property-based tests for the correlation measures.

Hypothesis hunts for counterexamples to the algebraic facts the paper
relies on: the generalized-mean ordering of Table 2, null-invariance,
and basic range/consistency properties.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.measures import (
    MEASURES,
    Measure,
    all_confidence,
    coherence,
    cosine,
    expectation_sign,
    kulczynski,
    max_confidence,
)

TOL = 1e-9


@st.composite
def support_instances(draw, max_items: int = 5):
    """A consistent (sup(A), [sup(a_i)]) instance."""
    k = draw(st.integers(min_value=2, max_value=max_items))
    sup_itemset = draw(st.integers(min_value=0, max_value=1000))
    item_supports = [
        draw(st.integers(min_value=max(sup_itemset, 1), max_value=5000))
        for _ in range(k)
    ]
    return sup_itemset, item_supports


@given(support_instances())
def test_mean_ordering_chain(instance):
    """Table 2: min <= harmonic <= geometric <= arithmetic <= max."""
    sup, items = instance
    a = all_confidence(sup, items)
    h = coherence(sup, items)
    g = cosine(sup, items)
    m = kulczynski(sup, items)
    x = max_confidence(sup, items)
    assert a <= h + TOL
    assert h <= g + TOL
    assert g <= m + TOL
    assert m <= x + TOL


@given(support_instances())
def test_values_in_unit_interval(instance):
    sup, items = instance
    for measure in MEASURES.values():
        value = measure(sup, items)
        assert -TOL <= value <= 1.0 + TOL, measure.name


@given(support_instances())
def test_perfect_correlation_iff_equal_supports(instance):
    sup, items = instance
    for measure in MEASURES.values():
        value = measure(sup, items)
        if all(s == sup for s in items) and sup > 0:
            assert abs(value - 1.0) < TOL
        elif sup == 0:
            assert value == 0.0


@given(support_instances(), st.integers(min_value=0, max_value=10_000_000))
def test_null_invariance(instance, extra_null_transactions):
    """Adding null transactions (raising N) changes nothing: the five
    measures never read N.  (Trivially true by their signature — the
    test documents the contract and guards against regressions that
    would thread N into them.)"""
    sup, items = instance
    for measure in MEASURES.values():
        assert measure(sup, items) == measure(sup, items)


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=10),
)
def test_expectation_sign_depends_on_n(sup_a, sup_b, factor):
    """The anti-property of Table 1: for some (not all) support
    configurations the expectation verdict differs between N1 and N2.
    Here we only require internal consistency: verdicts are monotone
    in N (growing N can only move the verdict toward 'positive')."""
    sup_ab = min(sup_a, sup_b)
    n1 = max(sup_a + sup_b, 1) * factor + sup_a + sup_b
    n2 = n1 * 10
    order = {"negative": 0, "independent": 1, "positive": 2}
    sign1 = expectation_sign(sup_ab, [sup_a, sup_b], n1)
    sign2 = expectation_sign(sup_ab, [sup_a, sup_b], n2)
    assert order[sign2] >= order[sign1]


@given(support_instances())
def test_anti_monotone_measures_decrease_with_extra_item(instance):
    """All Confidence and Coherence are anti-monotonic: appending an
    item (with any consistent support) cannot raise them when the
    itemset support stays the same (the worst case for the test)."""
    sup, items = instance
    grown = items + [max(items)]
    for name in ("all_confidence", "coherence"):
        measure = MEASURES[name]
        assert measure(sup, grown) <= measure(sup, items) + TOL


@st.composite
def support_batches(draw):
    """A batch of consistent instances sharing one k (1..6), with zero
    itemset supports and zero member supports mixed in."""
    k = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.integers(min_value=1, max_value=12))
    sups: list[int] = []
    members: list[list[int]] = []
    for _ in range(rows):
        sup = draw(
            st.one_of(
                st.just(0),
                st.integers(min_value=1, max_value=50),
                st.integers(min_value=1, max_value=10**9),
            )
        )
        low = sup if sup else 0
        members.append(
            [
                draw(
                    st.one_of(
                        st.just(low),
                        st.integers(min_value=low, max_value=low + 60),
                        st.integers(min_value=low, max_value=2 * 10**9),
                    )
                )
                for _ in range(k)
            ]
        )
        sups.append(sup)
    return sups, members


@settings(max_examples=300)
@given(support_batches())
def test_array_forms_equal_scalar_functions_exactly(batch):
    """Every registered measure's array form is bit-identical to its
    scalar function, row by row (``==``, not approx)."""
    sups, members = batch
    for measure in MEASURES.values():
        assert measure.array_fn is not None, measure.name
        got = measure.batch(np.array(sups), np.array(members)).tolist()
        expected = [measure.fn(sup, row) for sup, row in zip(sups, members)]
        assert got == expected, measure.name


@given(support_batches())
def test_user_measure_batch_maps_scalar_fn(batch):
    """A measure without an array form maps its scalar function."""
    sups, members = batch

    def gap(sup, items):
        return max_confidence(sup, items) - all_confidence(sup, items)

    custom = Measure(
        name="gap", fn=gap, mean_kind="custom", anti_monotonic=False
    )
    got = custom.batch(np.array(sups), np.array(members)).tolist()
    assert got == [custom(sup, row) for sup, row in zip(sups, members)]
