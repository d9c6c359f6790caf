"""Engine stages of the approximate (phase-1) pipeline.

The sample mine runs the standard generate → count → label → prune
cell visit with two substitutions:

* :class:`ApproxCountStage` — counts are still exact *over the
  sample* (the relaxation lives in thresholds and labels, not the
  counting), but the stage records the per-cell counted-candidate
  volume into the run stats, so the result config can report how much
  of the search space the screen touched — the number the sample's
  speedup is bought with.
* :class:`ApproxLabelStage` — labels each itemset against a
  *per-itemset* widened correlation band.  Every null-invariant
  measure is a mean of ratios ``sup(A)/sup(a_i)``; with all sampled
  frequencies within ``eps`` of their true values (Hoeffding), the
  sampled correlation sits within ``m = 2 eps / (p_min - 2 eps)`` of
  the true one, where ``p_min`` is the smallest *sampled* member-item
  frequency.  Upper taxonomy levels have common items, so their bands
  stay nearly exact and vertical (flipping) pruning keeps its teeth;
  only itemsets of genuinely rare items fall back to the fully
  widened band (clamped at the gamma/epsilon midpoint so positive and
  negative can never overlap).  A uniform worst-case band — one
  margin for the whole run — would leave almost every frequent
  itemset signed and the chain-alive space would explode.

The screen never runs SIBP: its removal lists compare *sampled*
correlations against the exact gamma, which could ban an item whose
true correlation clears the threshold — the one kind of error the
sample phase is not allowed to make.  :func:`build_approx_stages`
therefore has no prune stage; :class:`~repro.approx.miner.ApproxMiner`
also downgrades the screen's pruning config accordingly.
"""

from __future__ import annotations

import numpy as np

from repro.approx.bounds import SampleBounds
from repro.engine.plan import CellState, MiningContext, Stage
from repro.engine.stages import CountStage, GenerateStage, LabelStage

__all__ = ["ApproxCountStage", "ApproxLabelStage", "build_approx_stages"]


class ApproxCountStage(CountStage):
    """Count on the sample; record per-cell screen volume."""

    name = "count"

    def run(self, context: MiningContext, state: CellState) -> None:
        super().run(context, state)
        cells = context.stats.extra.setdefault("sampled_cells", {})
        key = f"{state.task.level},{state.task.k}"
        cells[key] = cells.get(key, 0) + len(state.supports)


class ApproxLabelStage(LabelStage):
    """Label against per-itemset Hoeffding-widened bands."""

    name = "label"

    def __init__(self, bounds: SampleBounds) -> None:
        self._bounds = bounds

    def margin_for(self, min_item_fraction: np.ndarray) -> np.ndarray:
        """Correlation margin for itemsets whose rarest member has the
        given *sampled* frequency (see the module docstring)."""
        bounds = self._bounds
        eps = bounds.epsilon_support
        half_band = max(0.0, (bounds.gamma - bounds.epsilon) / 2.0 - 1e-9)
        raw = 2.0 * eps / np.maximum(min_item_fraction - 2.0 * eps, eps)
        return np.minimum(half_band, raw)

    def bands(
        self, context: MiningContext, item_supports: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        margin = self.margin_for(
            item_supports.min(axis=1) / self._bounds.n_sample
        )
        thresholds = context.thresholds
        return thresholds.gamma - margin, thresholds.epsilon + margin


def build_approx_stages(bounds: SampleBounds) -> list[Stage]:
    """The phase-1 pipeline (drop-in for ``build_default_stages``)."""
    return [
        GenerateStage(),
        ApproxCountStage(),
        ApproxLabelStage(bounds),
    ]
