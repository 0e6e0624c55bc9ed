#!/usr/bin/env python
"""Concept drift on a surveillance stream — why SVAQD exists (§3.3).

A crossroad camera watches for loitering near a car.  Car traffic is calm,
then rush hour hits, then it calms down again: the background probability
of the ``car`` predicate changes mid-stream.  A static SVAQ configured
before the rush hour floods with false positives once traffic spikes;
SVAQD re-estimates the background probability on the fly and raises the
car predicate's critical value through the rush-hour phase.

Run:  python examples/surveillance_drift.py
"""

from repro import (
    ClipStream,
    OnlineConfig,
    OnlineEngine,
    Query,
    SceneSpec,
    StreamSession,
    TrackSpec,
    synthesize_video,
)
from repro.detectors.zoo import default_zoo
from repro.eval.metrics import match_sequences


def main() -> None:
    scene = SceneSpec(
        video_id="crossroad-cam",
        duration_s=600.0,
        tracks=(
            TrackSpec(label="loitering", kind="action",
                      occupancy=0.10, mean_duration_s=18.0),
            TrackSpec(
                label="car", kind="object",
                correlate_with="loitering", correlation=0.92,
                # calm -> rush hour -> calm background car traffic
                phases=((0.4, 0.04), (0.3, 0.35), (0.3, 0.04)),
                mean_duration_s=10.0,
            ),
        ),
    )
    video = synthesize_video(scene, seed=3)
    query = Query(objects=["car"], action="loitering")
    truth = video.truth.query_clips(query.objects, query.action, video.meta.geometry)
    print(f"ground truth: {truth.as_tuples()}\n")

    zoo = default_zoo(seed=2)
    config = OnlineConfig().with_p0(1e-4)  # tuned for the calm phase

    svaq = OnlineEngine(zoo, config).run(query, video, "svaq")
    report = match_sequences(svaq.sequences, truth)
    print(f"SVAQ  (static p0=1e-4): {len(svaq.sequences)} sequences, "
          f"F1 {report.f1:.2f} (P {report.precision:.2f})")

    # The engine runs SVAQD too; a session of our own can record the
    # critical values in force at every clip.
    session = StreamSession.for_query(zoo, query, video, config, record_trace=True)
    session.advance(ClipStream(video.meta))
    svaqd = session.finish()
    report = match_sequences(svaqd.sequences, truth)
    print(f"SVAQD (adaptive)      : {len(svaqd.sequences)} sequences, "
          f"F1 {report.f1:.2f} (P {report.precision:.2f})")

    # Show how the car predicate's critical value tracked the traffic.
    trace = [t["car"] for t in svaqd.k_crit_trace]
    phase = len(trace) // 10
    print("\ncar-predicate critical value along the stream:")
    for i in range(0, len(trace), phase):
        print(f"  clip {i:4d}: k_crit = {trace[i]}")
    print(f"\nfinal background estimates: "
          f"{ {k: f'{v:.4f}' for k, v in svaqd.final_rates.items()} }")


if __name__ == "__main__":
    main()
