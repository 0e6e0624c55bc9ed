"""The paper's contribution: online (SVAQ/SVAQD) and offline (RVAQ) query
processing for action+object queries over videos.

Public surface:

* :class:`repro.core.query.Query` — the query model
  ``q : {o_1, …, o_I ∈ O; a ∈ A}`` plus the footnote 2–4 extensions.
* :class:`repro.core.svaq.SVAQ` / :class:`repro.core.svaqd.SVAQD` —
  streaming algorithms (Algorithms 1–3).
* :class:`repro.core.rvaq.RVAQ` — offline top-K ranking (Algorithms 4–5),
  with the §5.1 baselines in :mod:`repro.core.baselines`.
* :class:`repro.core.engine.OnlineEngine` /
  :class:`repro.core.engine.OfflineEngine` — high-level facades.
"""

from repro.core.compound import CompoundOnline
from repro.core.config import OnlineConfig, RankingConfig
from repro.core.context import ExecutionContext, ExecutionStats
from repro.core.distributed import (
    DistributedTopKResult,
    GlobalFrontier,
    ShardSearch,
    sharded_top_k,
)
from repro.core.engine import OfflineEngine, OnlineEngine
from repro.core.policies import (
    DynamicQuotaPolicy,
    QuotaPolicy,
    StaticQuotaPolicy,
)
from repro.core.query import CompoundQuery, Query
from repro.core.rvaq import RVAQ, RankedSequence, TopKResult
from repro.core.scheduler import (
    FleetRun,
    MultiQueryRun,
    MultiQueryScheduler,
    QuerySpec,
    as_specs,
)
from repro.core.scoring import MaxScoring, PaperScoring, ScoringScheme
from repro.core.session import StreamSession
from repro.core.svaq import SVAQ, OnlineResult
from repro.core.svaqd import SVAQD

__all__ = [
    "Query",
    "CompoundQuery",
    "CompoundOnline",
    "StreamSession",
    "ExecutionContext",
    "ExecutionStats",
    "QuotaPolicy",
    "StaticQuotaPolicy",
    "DynamicQuotaPolicy",
    "OnlineConfig",
    "RankingConfig",
    "SVAQ",
    "SVAQD",
    "OnlineResult",
    "RVAQ",
    "RankedSequence",
    "TopKResult",
    "DistributedTopKResult",
    "GlobalFrontier",
    "ShardSearch",
    "sharded_top_k",
    "ScoringScheme",
    "PaperScoring",
    "MaxScoring",
    "OnlineEngine",
    "OfflineEngine",
    "MultiQueryScheduler",
    "MultiQueryRun",
    "QuerySpec",
    "FleetRun",
    "as_specs",
]
