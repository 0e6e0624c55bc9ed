"""Algorithm 1 — SVAQ: streaming video action queries with static critical
values.

SVAQ derives one critical value per query predicate from an *a-priori*
background probability (Eq. 5) and evaluates every incoming clip with
Algorithm 2, merging positive clips into result sequences (Eq. 4).  Its
accuracy therefore depends on how well the assumed ``p₀`` matches the
stream — the sensitivity the paper's Figure 2 quantifies and SVAQD removes.

Execution is delegated to the unified :class:`repro.core.session.StreamSession`
with a :class:`repro.core.policies.StaticQuotaPolicy`; ``SVAQ.run`` is a
thin stream-driving loop over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.core.config import OnlineConfig
from repro.core.context import ExecutionContext
from repro.core.policies import derive_static_quotas
from repro.core.query import Query
from repro.core.results import OnlineResult
from repro.core.session import StreamSession
from repro.detectors.zoo import ModelZoo
from repro.video.stream import ClipStream
from repro.video.synthesis import LabeledVideo

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.video.model import VideoGeometry

__all__ = ["SVAQ", "OnlineResult"]


@dataclass
class SVAQ:
    """Algorithm 1.  Construct once per query; ``run`` per video stream.

    ``k_crit_overrides`` lets callers pin critical values per label
    (Algorithm 1 allows "each [predicate] may have its own initial
    values") — including an explicit ``0`` to disable a quota; otherwise
    they derive from ``config.object_p0`` / ``config.action_p0`` via Eq. 5.
    """

    zoo: ModelZoo
    query: Query
    config: OnlineConfig = field(default_factory=OnlineConfig)
    k_crit_overrides: Mapping[str, int] = field(default_factory=dict)

    def initial_critical_values(self, video_geometry: VideoGeometry) -> dict[str, int]:
        """``k_crit_o_init`` / ``k_crit_a_init`` for every predicate."""
        return derive_static_quotas(
            self.query.frame_level_labels,
            self.query.actions,
            video_geometry,
            self.config,
            overrides=self.k_crit_overrides,
        )

    def session(
        self,
        video: LabeledVideo,
        *,
        record_trace: bool = False,
        context: ExecutionContext | None = None,
    ) -> StreamSession:
        """An incremental (checkpointable) session for one stream."""
        return StreamSession.for_query(
            self.zoo,
            self.query,
            video,
            self.config,
            dynamic=False,
            k_crit_overrides=self.k_crit_overrides,
            record_trace=record_trace,
            context=context,
        )

    def run(
        self,
        video: LabeledVideo,
        *,
        stream: ClipStream | None = None,
        short_circuit: bool = True,
        context: ExecutionContext | None = None,
    ) -> OnlineResult:
        """Process a stream and return the result sequences (Eq. 4)."""
        session = self.session(video, context=context)
        clips = stream if stream is not None else ClipStream(video.meta)
        session.advance(clips, short_circuit=short_circuit)
        return session.finish()
