"""Core mining machinery: measures, thresholds, search space, Flipper."""

from repro.core.basic import mine_flipping_bruteforce
from repro.core.cells import Cell, CellEntry
from repro.core.counting import (
    BitmapBackend,
    CountingBackend,
    HorizontalBackend,
    make_backend,
)
from repro.core.flipper import (
    FlipperMiner,
    PruningConfig,
    mine_flipping_patterns,
)
from repro.core.invariance import (
    InvarianceRow,
    invariance_table,
    verify_mining_invariance,
    with_null_transactions,
)
from repro.core.labels import Label, flips, label_for
from repro.core.measures import MEASURES, Measure, get_measure
from repro.core.patterns import ChainLink, FlippingPattern, MiningResult
from repro.core.serialize import (
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.core.significance import (
    LinkSignificance,
    chi_square_test,
    pattern_significance,
    significant_patterns,
)
from repro.core.stats import CellStats, MiningStats
from repro.core.thresholds import ResolvedThresholds, Thresholds
from repro.core.discriminative import (
    DiscriminativePattern,
    GroupSide,
    mine_discriminative,
)
from repro.core.topk import mine_top_k, top_k_most_flipping

__all__ = [
    "FlipperMiner",
    "PruningConfig",
    "mine_flipping_patterns",
    "mine_flipping_bruteforce",
    "Thresholds",
    "ResolvedThresholds",
    "Label",
    "label_for",
    "flips",
    "Measure",
    "MEASURES",
    "get_measure",
    "Cell",
    "CellEntry",
    "ChainLink",
    "FlippingPattern",
    "MiningResult",
    "MiningStats",
    "CellStats",
    "BitmapBackend",
    "HorizontalBackend",
    "make_backend",
    "CountingBackend",
    "mine_top_k",
    "top_k_most_flipping",
    "mine_discriminative",
    "DiscriminativePattern",
    "GroupSide",
    "InvarianceRow",
    "invariance_table",
    "verify_mining_invariance",
    "with_null_transactions",
    "save_result",
    "load_result",
    "result_to_dict",
    "result_from_dict",
    "LinkSignificance",
    "chi_square_test",
    "pattern_significance",
    "significant_patterns",
]
