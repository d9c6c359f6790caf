"""repro — Flipper: mining flipping correlations with taxonomies.

A production-quality reproduction of

    Marina Barsky, Sangkyum Kim, Tim Weninger, Jiawei Han.
    "Mining Flipping Correlations from Large Datasets with Taxonomies."
    PVLDB 5(4): 370-381, 2011.

Quickstart::

    from repro import Taxonomy, TransactionDatabase, Thresholds
    from repro import mine_flipping_patterns

    taxonomy = Taxonomy.from_dict({
        "drinks":   {"beer":      ["canned beer", "bottled beer"]},
        "non-food": {"cosmetics": ["baby cosmetics", "soap"]},
    })
    db = TransactionDatabase(baskets, taxonomy)
    result = mine_flipping_patterns(db, Thresholds(gamma=0.4, epsilon=0.2))
    for pattern in result.patterns:
        print(pattern.describe())

See ARCHITECTURE.md for the architecture; ``python -m repro bench
<id>`` regenerates each table and figure of the paper's evaluation.
"""

from repro.core import (
    MEASURES,
    DiscriminativePattern,
    GroupSide,
    mine_discriminative,
    Cell,
    CellEntry,
    CellStats,
    ChainLink,
    FlipperMiner,
    FlippingPattern,
    Label,
    Measure,
    MiningResult,
    MiningStats,
    PruningConfig,
    ResolvedThresholds,
    Thresholds,
    get_measure,
    invariance_table,
    load_result,
    mine_flipping_bruteforce,
    mine_flipping_patterns,
    mine_top_k,
    pattern_significance,
    save_result,
    significant_patterns,
    top_k_most_flipping,
    verify_mining_invariance,
    with_null_transactions,
)
from repro.approx import (
    ApproxCandidate,
    ApproxMiner,
    SampleBounds,
    mine_approximate,
)
from repro.data import (
    TransactionDatabase,
    VerticalIndex,
    load_database,
    profile_database,
)
from repro.fpm import (
    FPTree,
    fp_growth,
    level_frequent_itemsets,
    mine_flipping_posthoc,
)
from repro.engine import (
    ExecutionPlan,
    Executor,
    IncrementalMiner,
    MiningContext,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.errors import (
    ConfigError,
    DataError,
    MiningError,
    ReproError,
    TaxonomyError,
)
from repro.taxonomy import (
    Taxonomy,
    TaxonomyNode,
    contract_levels,
    load_taxonomy,
    rebalance_with_copies,
    save_taxonomy,
    truncate,
)

__version__ = "1.0.0"

__all__ = [
    # primary entry points
    "mine_flipping_patterns",
    "FlipperMiner",
    "PruningConfig",
    "Thresholds",
    "Taxonomy",
    "TransactionDatabase",
    # results
    "MiningResult",
    "FlippingPattern",
    "ChainLink",
    "save_result",
    "load_result",
    "MiningStats",
    "CellStats",
    "Label",
    # measures
    "Measure",
    "MEASURES",
    "get_measure",
    "invariance_table",
    "verify_mining_invariance",
    "with_null_transactions",
    "pattern_significance",
    "significant_patterns",
    "profile_database",
    # extensions & oracle
    "mine_top_k",
    "top_k_most_flipping",
    "mine_discriminative",
    "DiscriminativePattern",
    "GroupSide",
    "mine_flipping_bruteforce",
    # approximate sample-then-verify mining
    "mine_approximate",
    "ApproxMiner",
    "ApproxCandidate",
    "SampleBounds",
    # frequent-pattern-mining substrate (prior art)
    "FPTree",
    "fp_growth",
    "level_frequent_itemsets",
    "mine_flipping_posthoc",
    # engine (plan -> stages -> executor -> backend; see ARCHITECTURE.md)
    "ExecutionPlan",
    "IncrementalMiner",
    "MiningContext",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    # substrate
    "VerticalIndex",
    "TaxonomyNode",
    "rebalance_with_copies",
    "truncate",
    "contract_levels",
    "load_taxonomy",
    "save_taxonomy",
    "load_database",
    "ResolvedThresholds",
    "Cell",
    "CellEntry",
    # errors
    "ReproError",
    "TaxonomyError",
    "DataError",
    "ConfigError",
    "MiningError",
    "__version__",
]
