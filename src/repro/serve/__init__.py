"""Pattern serving: indexed store, query engine, live HTTP API.

The path from "mined patterns" to "answering user queries": a
:class:`PatternStore` publishes immutable :class:`StoreSnapshot`
generations of an indexed
:class:`~repro.core.patterns.MiningResult` (and stays fresh under
incremental updates via atomic snapshot swaps), a
:class:`QueryEngine` compiles composable :class:`Query` filters
against a pinned snapshot with a cost-ordered plan and an LRU result
cache, and the asyncio :class:`AsyncPatternServer` exposes the whole
thing over HTTP through the :class:`PatternAPI` route layer.  See
ARCHITECTURE.md ("The serving subsystem" and "Lock-free serving") for
the data flow.
"""

from repro.serve.api import (
    ApiError,
    ApiResponse,
    PatternAPI,
    UpdateIntent,
    decode_cursor,
    encode_cursor,
    query_from_params,
)
from repro.serve.aserver import AsyncPatternServer
from repro.serve.query import (
    Query,
    QueryEngine,
    QueryPlan,
    QueryResult,
    linear_scan,
    matches,
)
from repro.serve.store import (
    MEASURE_GETTERS,
    STORE_FILE_NAME,
    PatternStore,
    StoreSnapshot,
    pattern_id_of,
)

__all__ = [
    "MEASURE_GETTERS",
    "STORE_FILE_NAME",
    "ApiError",
    "ApiResponse",
    "AsyncPatternServer",
    "PatternAPI",
    "PatternStore",
    "Query",
    "QueryEngine",
    "QueryPlan",
    "QueryResult",
    "StoreSnapshot",
    "UpdateIntent",
    "decode_cursor",
    "encode_cursor",
    "linear_scan",
    "matches",
    "pattern_id_of",
    "query_from_params",
]
