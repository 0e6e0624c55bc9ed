"""Deterministic builders for the paper's two evaluation datasets.

* **YouTube** (Table 1): twelve query sets derived from ActivityNet, each a
  collection of videos containing one action class plus annotated objects;
  the table's ``Len`` column gives the total minutes of video per set.
* **Movies** (Table 2): four feature films with an action and two object
  predicates each.

Real footage is replaced by scripted synthetic scenes (see DESIGN.md): the
builders choose occupancies, episode lengths and predicate correlations so
that the temporal statistics the algorithms consume resemble the originals
(sparse action episodes inside long videos; queried objects strongly
co-occurring with the action; a highly-detectable correlated "person"
track; uncorrelated distractor objects).

Everything is a pure function of ``(spec, seed, scale)`` — ``scale`` shrinks
total video length proportionally so tests and benchmarks can trade
fidelity for speed without changing the statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query import Query
from repro.errors import ConfigurationError
from repro.utils.rng import derive_rng
from repro.video.synthesis import LabeledVideo, SceneSpec, TrackSpec, synthesize_video


@dataclass(frozen=True)
class QuerySetSpec:
    """One row of Table 1: a query and its set's total video minutes."""

    qid: str
    action: str
    objects: tuple[str, ...]
    minutes: int

    @property
    def query(self) -> Query:
        return Query(objects=self.objects, action=self.action)


#: Table 1 — the twelve YouTube evaluation queries.
YOUTUBE_QUERY_SETS: tuple[QuerySetSpec, ...] = (
    QuerySetSpec("q1", "washing dishes", ("faucet", "oven"), 57),
    QuerySetSpec("q2", "blowing leaves", ("car", "plant"), 52),
    QuerySetSpec("q3", "walking the dog", ("tree", "chair"), 127),
    QuerySetSpec("q4", "drinking beer", ("bottle", "chair"), 63),
    QuerySetSpec("q5", "volleyball", ("tree",), 110),
    QuerySetSpec("q6", "playing rubik cube", ("clock",), 89),
    QuerySetSpec("q7", "cleaning sink", ("faucet", "knife"), 84),
    QuerySetSpec("q8", "kneeling", ("tree",), 104),
    QuerySetSpec("q9", "doing crunches", ("chair",), 85),
    QuerySetSpec("q10", "blow-drying hair", ("kid",), 138),
    QuerySetSpec("q11", "washing hands", ("faucet", "dish"), 113),
    QuerySetSpec("q12", "archery", ("sunglasses",), 156),
)


@dataclass(frozen=True)
class MovieSpec:
    """One row of Table 2: a movie, its query, and its runtime."""

    title: str
    action: str
    objects: tuple[str, ...]
    minutes: int
    #: Target number of ground-truth result sequences (the paper notes
    #: Coffee and Cigarettes has 21); tunes the action episode density.
    target_sequences: int = 21

    @property
    def query(self) -> Query:
        return Query(objects=self.objects, action=self.action)

    @property
    def video_id(self) -> str:
        return self.title.lower().replace(" ", "_")


#: Table 2 — the four movies.
MOVIES: tuple[MovieSpec, ...] = (
    MovieSpec("Coffee and Cigarettes", "smoking", ("wine glass", "cup"), 96, 21),
    MovieSpec("Iron Man", "robot dancing", ("car", "airplane"), 126, 16),
    MovieSpec("Star Wars 3", "archery", ("bird", "cat"), 134, 14),
    MovieSpec("Titanic", "kissing", ("surfboard", "boat"), 194, 18),
)

#: Distractor objects present in every set (they are ingested and queried
#: against but never part of Table 1/2 ground truth intersections).
DISTRACTOR_OBJECTS: tuple[str, ...] = ("backpack", "laptop")


@dataclass(frozen=True)
class QuerySet:
    """A materialised Table-1 set: the query plus its labelled videos."""

    spec: QuerySetSpec
    videos: tuple[LabeledVideo, ...]


def build_youtube_set(
    spec: QuerySetSpec, seed: int = 0, scale: float = 1.0
) -> QuerySet:
    """Materialise one Table-1 query set.

    Videos are 2.5–6 minutes long (ActivityNet scale) and keep being added
    until the set reaches ``spec.minutes · scale`` total minutes.
    """
    if scale <= 0:
        raise ConfigurationError(f"scale must be positive; got {scale}")
    rng = derive_rng(seed, "youtube-set", spec.qid)
    target_seconds = spec.minutes * 60.0 * scale
    videos: list[LabeledVideo] = []
    accumulated = 0.0
    index = 0
    while accumulated < target_seconds:
        duration = float(rng.uniform(150.0, 360.0))
        duration = min(duration, max(60.0, target_seconds - accumulated))
        video = _youtube_video(spec, index, duration, seed)
        videos.append(video)
        accumulated += video.meta.duration_seconds
        index += 1
    return QuerySet(spec=spec, videos=tuple(videos))


def _youtube_video(
    spec: QuerySetSpec, index: int, duration_s: float, seed: int
) -> LabeledVideo:
    rng = derive_rng(seed, "youtube-video", spec.qid, index)
    occupancy = float(rng.uniform(0.18, 0.35))
    mean_episode = float(rng.uniform(12.0, 30.0))
    tracks: list[TrackSpec] = [
        TrackSpec(
            label=spec.action,
            kind="action",
            occupancy=occupancy,
            mean_duration_s=mean_episode,
        ),
        # The paper's Table-3 experiments lean on "person" being a highly
        # correlated, highly detectable predicate in every activity video.
        TrackSpec(
            label="person",
            kind="object",
            correlate_with=spec.action,
            correlation=0.97,
            occupancy=0.30,
            mean_duration_s=25.0,
        ),
    ]
    for obj in spec.objects:
        tracks.append(
            TrackSpec(
                label=obj,
                kind="object",
                correlate_with=spec.action,
                correlation=float(rng.uniform(0.85, 0.95)),
                occupancy=float(rng.uniform(0.02, 0.08)),
                mean_duration_s=float(rng.uniform(6.0, 15.0)),
            )
        )
    for obj in DISTRACTOR_OBJECTS:
        tracks.append(
            TrackSpec(
                label=obj,
                kind="object",
                occupancy=float(rng.uniform(0.03, 0.10)),
                mean_duration_s=8.0,
            )
        )
    scene = SceneSpec(
        video_id=f"{spec.qid}-v{index:03d}",
        duration_s=duration_s,
        tracks=tuple(tracks),
        title=f"{spec.action} #{index}",
    )
    return synthesize_video(scene, seed=derive_rng(seed, "yt", spec.qid, index).integers(2**31))


def build_movie(spec: MovieSpec, seed: int = 0, scale: float = 1.0) -> LabeledVideo:
    """Materialise one Table-2 movie.

    Action episodes are sparse (movies are mostly *not* the queried
    action); the episode count is set so the intersected ground truth has
    roughly ``spec.target_sequences`` result sequences at full scale.
    """
    if scale <= 0:
        raise ConfigurationError(f"scale must be positive; got {scale}")
    duration_s = spec.minutes * 60.0 * scale
    mean_episode_s = 22.0
    episodes = max(3, int(round(spec.target_sequences * 1.3 * scale)))
    occupancy = min(0.5, episodes * mean_episode_s / duration_s)
    tracks: list[TrackSpec] = [
        TrackSpec(
            label=spec.action,
            kind="action",
            occupancy=occupancy,
            mean_duration_s=mean_episode_s,
        ),
        TrackSpec(
            label="person",
            kind="object",
            occupancy=0.55,
            mean_duration_s=45.0,
        ),
    ]
    for obj in spec.objects:
        tracks.append(
            TrackSpec(
                label=obj,
                kind="object",
                correlate_with=spec.action,
                correlation=0.88,
                occupancy=0.05,
                mean_duration_s=10.0,
            )
        )
    for obj in DISTRACTOR_OBJECTS:
        tracks.append(
            TrackSpec(label=obj, kind="object", occupancy=0.06, mean_duration_s=9.0)
        )
    scene = SceneSpec(
        video_id=spec.video_id,
        duration_s=duration_s,
        tracks=tuple(tracks),
        title=spec.title,
    )
    return synthesize_video(scene, seed=derive_rng(seed, "movie", spec.title).integers(2**31))


def youtube_set_by_id(qid: str) -> QuerySetSpec:
    for spec in YOUTUBE_QUERY_SETS:
        if spec.qid == qid:
            return spec
    raise ConfigurationError(f"unknown YouTube query set {qid!r}")


def movie_by_title(title: str) -> MovieSpec:
    for spec in MOVIES:
        if spec.title.lower() == title.lower():
            return spec
    raise ConfigurationError(f"unknown movie {title!r}")
