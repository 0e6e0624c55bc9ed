"""Ground-truth annotations for synthetic videos.

Mirrors the paper's annotation protocol (§5.1): for each video, the temporal
boundaries of every appearance of each queried object type and of the action
are labelled at frame granularity.  "The intersection of the temporal
intervals of all the query-specified objects and the action [is] the result
sequence that satisfies this query."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import GroundTruthError
from repro.utils.intervals import IntervalSet, intersect_all
from repro.utils.validation import Positive
from repro.video.model import VideoGeometry


@dataclass(frozen=True)
class GroundTruth:
    """Frame-granularity presence intervals per label.

    ``objects`` maps object types to the frame intervals where at least one
    instance is visible; ``actions`` maps action categories to the frame
    intervals where the action is being performed.  ``instances`` optionally
    records per-track-instance intervals for objects (used by the simulated
    tracker to assign stable track ids); when absent, one instance per
    interval is assumed.
    """

    n_frames: Positive
    objects: dict[str, IntervalSet] = field(default_factory=dict)
    actions: dict[str, IntervalSet] = field(default_factory=dict)
    instances: dict[str, tuple[IntervalSet, ...]] = field(default_factory=dict)
    #: Frames where the recording itself is unusable (camera outage, signal
    #: loss).  Ground-truth labels may still span these frames — the world
    #: keeps happening — but no detector can observe anything there; the
    #: simulated models zero their outputs over these spans (failure
    #: injection for robustness testing).
    outage_frames: IntervalSet = field(default_factory=IntervalSet)

    def __post_init__(self) -> None:
        if self.n_frames <= 0:
            raise GroundTruthError(f"n_frames must be positive; got {self.n_frames}")
        for kind, table in (("object", self.objects), ("action", self.actions)):
            for label, spans in table.items():
                bound = spans.bounding()
                if bound is not None and (bound.start < 0 or bound.end >= self.n_frames):
                    raise GroundTruthError(
                        f"{kind} {label!r} annotated outside [0, {self.n_frames}):"
                        f" {bound.as_tuple()}"
                    )
        outage_bound = self.outage_frames.bounding()
        if outage_bound is not None and (
            outage_bound.start < 0 or outage_bound.end >= self.n_frames
        ):
            raise GroundTruthError(
                f"outage annotated outside [0, {self.n_frames}): "
                f"{outage_bound.as_tuple()}"
            )

    # -- lookups -----------------------------------------------------------------

    def object_frames(self, label: str) -> IntervalSet:
        """Frames on which the object type is visible (empty if unlabelled)."""
        return self.objects.get(label, IntervalSet.empty())

    def action_frames(self, label: str) -> IntervalSet:
        """Frames during which the action is performed (empty if unlabelled)."""
        return self.actions.get(label, IntervalSet.empty())

    def object_instances(self, label: str) -> tuple[IntervalSet, ...]:
        """Per-instance presence spans; defaults to one instance covering
        each annotated interval."""
        explicit = self.instances.get(label)
        if explicit is not None:
            return explicit
        return tuple(IntervalSet([iv]) for iv in self.object_frames(label))

    # -- query-level ground truth ---------------------------------------------------

    def query_frames(self, objects: Iterable[str], action: str) -> IntervalSet:
        """Frame intervals where the action and *all* objects co-occur."""
        sets = [self.action_frames(action)]
        sets.extend(self.object_frames(label) for label in objects)
        return intersect_all(sets)

    def query_clips(
        self,
        objects: Iterable[str],
        action: str,
        geometry: VideoGeometry,
        min_cover: float = 0.5,
    ) -> IntervalSet:
        """The ground-truth result sequences for a query, as clip intervals.

        Frame-level co-occurrence is projected to clips requiring
        ``min_cover`` coverage per clip (§5.1's annotation-to-sequence rule).
        """
        return geometry.frame_set_to_clips(
            self.query_frames(objects, action), min_cover=min_cover
        )

    def action_shots(self, label: str, geometry: VideoGeometry) -> IntervalSet:
        """Shot indices during which the action is performed."""
        return geometry.frame_set_to_shots(self.action_frames(label))
