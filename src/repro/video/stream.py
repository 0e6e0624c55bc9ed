"""Clip-granularity streaming access to a video.

Algorithm 1 consumes the stream through exactly two operations —
``X.end()`` and ``X.next()`` — so that is the interface exposed here, plus
the Python iterator protocol for idiomatic use.  A stream can be bounded (a
fixed video processed online) or rewound for repeated experiments.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import VideoModelError
from repro.video.model import ClipView, VideoMeta


class ClipStream:
    """Iterates the clips of a video in order, like a live camera feed.

    ``start_clip`` / ``stop_clip`` bound the stream (``stop_clip`` is
    exclusive; ``None`` means the end of the video), which the experiment
    harness uses to stream selected spans.
    """

    def __init__(
        self,
        video: VideoMeta,
        start_clip: int = 0,
        stop_clip: int | None = None,
    ) -> None:
        stop = video.n_clips if stop_clip is None else stop_clip
        if not 0 <= start_clip <= stop <= video.n_clips:
            raise VideoModelError(
                f"stream bounds [{start_clip}, {stop}) invalid for video "
                f"{video.video_id!r} with {video.n_clips} clips"
            )
        self._video = video
        self._start = start_clip
        self._stop = stop
        self._cursor = start_clip

    def end(self) -> bool:
        """True when the stream is exhausted (Algorithm 1's ``X.end()``)."""
        return self._cursor >= self._stop

    def next(self) -> ClipView:
        """The next clip in the stream (Algorithm 1's ``X.next()``)."""
        if self.end():
            raise VideoModelError("next() called on an exhausted stream")
        view = ClipView(self._video, self._cursor)
        self._cursor += 1
        return view

    def take(self, n: int) -> range:
        """The ids of the next ``n`` clips (fewer at the end), at once and
        without a :class:`ClipView` each."""
        ids = range(self._cursor, min(self._stop, self._cursor + max(n, 0)))
        self._cursor = ids.stop
        return ids

    def rest(self) -> range:
        """The ids of the clips ``next()`` has not returned yet (:meth:`take`
        them all); the stream ends here."""
        return self.take(self._stop - self._cursor)

    def __iter__(self) -> Iterator[ClipView]:
        while not self.end():
            yield self.next()

    def __len__(self) -> int:
        return self._stop - self._start
