#!/usr/bin/env python
"""Checkpoint and resume a long-running streaming query.

Real deployments restart: here a streaming SVAQD session is checkpointed
mid-stream into a JSON file, "the process dies", and a fresh session
restores the dynamic state (kernel estimators, the open result run, the
guard-band lookahead) and continues — producing exactly the answer an
uninterrupted run would have.

Run:  python examples/resumable_stream.py
"""

import json
import tempfile
from pathlib import Path

from repro import OnlineConfig, Query, SceneSpec, StreamSession, TrackSpec, synthesize_video
from repro.core.svaqd import SVAQD
from repro.detectors.zoo import default_zoo
from repro.video.stream import ClipStream


def build_video():
    return synthesize_video(
        SceneSpec(
            video_id="long-stream",
            duration_s=480.0,
            tracks=(
                TrackSpec(label="loitering", kind="action",
                          occupancy=0.15, mean_duration_s=20.0),
                TrackSpec(label="person", kind="object",
                          correlate_with="loitering", correlation=0.95,
                          occupancy=0.2),
            ),
        ),
        seed=13,
    )


def main() -> None:
    video = build_video()
    query = Query(objects=["person"], action="loitering")
    config = OnlineConfig()
    checkpoint_path = Path(tempfile.gettempdir()) / "svqact-checkpoint.json"

    # --- phase 1: process half the stream, checkpoint, "crash" ----------
    zoo = default_zoo(seed=6)
    stream = ClipStream(video.meta)
    session = StreamSession.for_query(zoo, query, video, config)
    half = video.meta.n_clips // 2
    for _ in range(half):
        session.process(stream.next())
    checkpoint_path.write_text(json.dumps(session.state_dict()))
    print(f"checkpointed after clip {session.clip_index} "
          f"-> {checkpoint_path} ({checkpoint_path.stat().st_size} bytes)")
    del session  # the process dies here

    # --- phase 2: new process restores and continues ----------------------
    restored = StreamSession.for_query(
        default_zoo(seed=6),  # same frozen models
        query, video, config,
    ).load_state_dict(json.loads(checkpoint_path.read_text()))
    print(f"resumed at clip {restored.clip_index}, "
          f"quotas {restored.quotas()}")
    while not stream.end():
        restored.process(stream.next())
    resumed_result = restored.finish()

    # --- compare with the uninterrupted run ------------------------------
    full = SVAQD(default_zoo(seed=6), query, config).run(video)
    print(f"resumed run found : {resumed_result.sequences.as_tuples()}")
    print(f"full run found    : {full.sequences.as_tuples()}")
    print(f"identical         : {resumed_result.sequences == full.sequences}")
    checkpoint_path.unlink()


if __name__ == "__main__":
    main()
