"""Seeded input generators — the only code ``--seed`` reaches.

Everything the program under test receives is built here: videos (and the
simulated detector noise that goes with them), the standing-query fleet, the
SQL texts and the dense ranking repository.  The drivers hand these objects
to ``repro``; neither the seed nor a workload name crosses that boundary.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro import (
    IntervalSet,
    Query,
    QuerySpec,
    SceneSpec,
    TrackSpec,
    VideoRepository,
    synthesize_video,
)
from repro.storage import ClipScoreTable, VideoIngest
from repro.video.datasets import DISTRACTOR_OBJECTS, MOVIES, build_movie

#: The default seed — the only one ``expected.json`` holds digests for.
DEFAULT_SEED = 0

STREET_ACTION = "crossing"
STREET_OBJECTS = ("car", "person", "bicycle", "dog")
#: Seconds of video per clip under the default :class:`VideoGeometry`.
CLIP_SECONDS = 2.0

DENSE_ACTION = "a"
DENSE_OBJECTS = ("o1", "o2")

_PROCESS = (
    "FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, "
    "act USING ActionRecognizer)"
)


def subseed(seed: int, *tags: object) -> int:
    """A stable 31-bit seed for one named part of a workload's input."""
    text = "/".join(str(part) for part in (seed, *tags))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


# -- online inputs -----------------------------------------------------------------


def street_scene(video_id: str, n_clips: int, seed: int):
    """One busy street: a ``crossing`` action and four objects, two of them
    tied to the action — the label-overlap regime a query fleet shares."""
    tracks = [
        TrackSpec(label=STREET_ACTION, kind="action",
                  occupancy=0.2, mean_duration_s=15.0),
    ]
    for i, label in enumerate(STREET_OBJECTS):
        anchored = i % 2 == 0
        tracks.append(
            TrackSpec(
                label=label, kind="object",
                occupancy=0.08 + 0.06 * i, mean_duration_s=8.0,
                correlate_with=STREET_ACTION if anchored else None,
                correlation=0.85 if anchored else 0.0,
            )
        )
    spec = SceneSpec(
        video_id=video_id,
        duration_s=n_clips * CLIP_SECONDS,
        tracks=tuple(tracks),
    )
    return synthesize_video(spec, seed=seed)


def fleet_queries(n_queries: int) -> list[Query]:
    """One action + 1–3 of the four street objects per query, cycling, so
    every label is wanted by many queries."""
    pool = STREET_OBJECTS
    queries = []
    for i in range(n_queries):
        objects = [pool[i % len(pool)]]
        if i % 2:
            objects.append(pool[(i + 1) % len(pool)])
        if i % 3 == 2:
            objects.append(pool[(i + 2) % len(pool)])
        queries.append(Query(objects=objects, action=STREET_ACTION))
    return queries


def fleet_specs(
    n_queries: int, algorithms: tuple[str, ...], prefix: str = "q"
) -> list[QuerySpec]:
    """The fleet as named specs; ``algorithms`` cycles over the queries."""
    return [
        QuerySpec(f"{prefix}{i}", query,
                  algorithm=algorithms[i % len(algorithms)])
        for i, query in enumerate(fleet_queries(n_queries))
    ]


def online_sql(action: str, objects: tuple[str, ...], *, disjunct: bool) -> str:
    """A streaming statement: the objects as one conjunction, or — with
    ``disjunct`` — as an OR of single-object predicates."""
    if disjunct:
        where = " OR ".join(f"obj.include('{o}')" for o in objects)
        where = f"act = '{action}' AND ({where})"
    else:
        listed = ", ".join(f"'{o}'" for o in objects)
        where = f"act = '{action}' AND obj.include({listed})"
    return f"SELECT MERGE(clipID) AS Sequence {_PROCESS} WHERE {where}"


def ranked_sql(action: str, objects: tuple[str, ...], k: int) -> str:
    """A top-K statement (``ORDER BY RANK ... LIMIT k`` plans offline)."""
    listed = ", ".join(f"'{o}'" for o in objects)
    return (
        f"SELECT MERGE(clipID) AS Sequence, RANK(act, obj) {_PROCESS} "
        f"WHERE act = '{action}' AND obj.include({listed}) "
        f"ORDER BY RANK(act, obj) LIMIT {k}"
    )


@dataclass(frozen=True)
class Movie:
    """One Table-2 movie with the labels its ingest covers."""

    title: str
    action: str
    objects: tuple[str, ...]
    video: object

    @property
    def ingest_objects(self) -> list[str]:
        return [*self.objects, "person", *DISTRACTOR_OBJECTS]


def movies(n_movies: int, scale: float, seed: int) -> list[Movie]:
    return [
        Movie(spec.title, spec.action, spec.objects,
              build_movie(spec, seed=seed, scale=scale))
        for spec in MOVIES[:n_movies]
    ]


# -- offline inputs ----------------------------------------------------------------


def _dense_spans(rng: np.random.Generator, n_clips: int) -> IntervalSet:
    """Short runs (2–5 clips) separated by 1–3 clip gaps."""
    spans = []
    pos = 0
    while pos < n_clips:
        start = pos + int(rng.integers(0, 3))
        if start >= n_clips:
            break
        end = min(n_clips - 1, start + int(rng.integers(1, 5)))
        spans.append((start, end))
        pos = end + 2
    return IntervalSet(spans or [(0, n_clips - 1)])


def dense_repository(n_videos: int, n_clips: int, seed: int) -> VideoRepository:
    """Hand-built ingests (no detectors): random scores and dense short
    runs for one action and two objects, so ``|P_q|`` grows with
    ``n_videos * n_clips`` — the regime where bound refresh dominates."""
    rng = np.random.default_rng(seed)
    labels = (DENSE_ACTION, *DENSE_OBJECTS)
    repo = VideoRepository()
    for v in range(n_videos):
        tables = {
            label: ClipScoreTable(
                label, list(enumerate(np.round(rng.random(n_clips), 3)))
            )
            for label in labels
        }
        runs = {label: _dense_spans(rng, n_clips) for label in labels}
        repo.add(
            VideoIngest(
                video_id=f"v{v}",
                n_clips=n_clips,
                object_tables={o: tables[o] for o in DENSE_OBJECTS},
                action_tables={DENSE_ACTION: tables[DENSE_ACTION]},
                object_sequences={o: runs[o] for o in DENSE_OBJECTS},
                action_sequences={DENSE_ACTION: runs[DENSE_ACTION]},
            )
        )
    return repo
