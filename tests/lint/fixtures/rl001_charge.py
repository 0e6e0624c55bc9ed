"""RL001 fixture — linted under a fake src/repro/core path by the tests."""

from repro.detectors.retry import RetryPolicy, invoke_with_retry


def bad_direct_invocation(zoo, meta, truth):
    return zoo.detector.score_video(meta, truth, "car")  # line 7: finding


def bad_generic_name(model, frame):
    return model.predict(frame)  # line 11: finding


def good_wrapped(zoo, meta, truth):
    return invoke_with_retry(
        lambda: zoo.detector.score_video(meta, truth, "car"),
        RetryPolicy(),
    )


def _forward(call):
    return invoke_with_retry(call, RetryPolicy())


def good_local_wrapper(zoo, meta, truth):
    return _forward(lambda: zoo.recognizer.score_shot(meta, truth, "jump", 0))


def good_pragma(zoo, meta, truth):
    return zoo.detector.score_frame(meta, truth, "car", 0)  # reprolint: disable=RL001


def bad_per_video_tracker(zoo, meta, truth):
    return zoo.tracker.tracks_in_video(meta, truth, "car")  # line 34: finding


def good_per_video_tracker(zoo, meta, truth):
    return _forward(lambda: zoo.tracker.tracks_in_video(meta, truth, "car"))
