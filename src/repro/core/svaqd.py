"""Algorithm 3 — SVAQD: SVAQ with dynamic background-probability updates.

Every query predicate owns an exponential-kernel rate estimator (§3.3,
Eq. 6).  Per clip, SVAQD evaluates the predicates against the *current*
critical values, folds the observed event counts into the estimators, and
recomputes the critical values from the refreshed background probabilities
(Algorithm 3, lines 7–9).  The initial probabilities ``p_obj₀ / p_act₀``
only matter for the first ~bandwidth occurrence units — the insensitivity
Figure 2 demonstrates — and sudden stream changes are absorbed within the
kernel bandwidth while gradual drift is smoothed (concept-drift handling).

Two implementation decisions the paper leaves open, both configurable via
:class:`repro.core.config.OnlineConfig` (see there for rationale):

* **which clips are null data** (``update_on`` + the one-clip guard band
  around detections) — §3.2 defines the background as the prediction
  distribution "when the query predicates are not satisfied";
* **probe cadence** (``probe_every``) — periodic full evaluation so
  short-circuiting cannot starve later predicates' estimators.

The quota machinery lives in :mod:`repro.core.dynamics` behind
:class:`repro.core.policies.DynamicQuotaPolicy`; execution is the unified
:class:`repro.core.session.StreamSession`, shared with SVAQ and the
compound-query executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import OnlineConfig
from repro.core.context import ExecutionContext
from repro.core.query import Query
from repro.core.results import OnlineResult
from repro.core.session import StreamSession
from repro.detectors.zoo import ModelZoo
from repro.video.stream import ClipStream
from repro.video.synthesis import LabeledVideo

__all__ = ["SVAQD"]


@dataclass
class SVAQD:
    """Algorithm 3.  Construct once per query; ``run`` per video stream."""

    zoo: ModelZoo
    query: Query
    config: OnlineConfig = field(default_factory=OnlineConfig)

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
            dynamic=True,
            record_trace=record_trace,
            context=context,
        )

    def run(
        self,
        video: LabeledVideo,
        *,
        stream: ClipStream | None = None,
        short_circuit: bool = True,
        record_trace: bool = False,
        context: ExecutionContext | None = None,
    ) -> OnlineResult:
        """Process a stream with dynamic parameter adjustment.

        ``record_trace`` captures the critical values in force at every
        clip (used by the adaptivity experiments); it costs memory
        proportional to the number of clips.
        """
        session = self.session(
            video, record_trace=record_trace, context=context
        )
        clips = stream if stream is not None else ClipStream(video.meta)
        session.advance(clips, short_circuit=short_circuit)
        return session.finish()
