"""Argument validators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.config import OnlineConfig, RankingConfig
from repro.errors import ConfigurationError, ScanStatisticsError
from repro.scanstats.critical import critical_value
from repro.utils.validation import (
    require_non_negative,
    require_positive,
    require_positive_int,
    require_probability,
)
from repro.video.model import VideoGeometry, VideoMeta


class TestProbability:
    def test_accepts_bounds(self):
        assert require_probability(0.0, "p") == 0.0
        assert require_probability(1.0, "p") == 1.0

    def test_open_interval_excludes_bounds(self):
        with pytest.raises(ScanStatisticsError):
            require_probability(0.0, "p", open_interval=True)
        with pytest.raises(ScanStatisticsError):
            require_probability(1.0, "p", open_interval=True)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            require_probability(1.5, "p")


class TestNumeric:
    def test_positive_int(self):
        assert require_positive_int(3, "n") == 3
        # NumPy integers and integral floats pass, as whole numbers
        for whole in (np.int64(3), np.int32(3), 3.0, np.float64(3.0)):
            assert require_positive_int(whole, "n") == 3
        with pytest.raises(ConfigurationError):
            require_positive_int(0, "n")
        with pytest.raises(ConfigurationError):
            require_positive_int(2.5, "n")
        # None, NaN and infinities are configuration errors, not TypeError,
        # ValueError or OverflowError; True is not the integer 1
        nan, inf = math.nan, math.inf
        for build in (
            lambda: require_positive_int(None, "n"),
            lambda: OnlineConfig(horizon_ou=None),
            lambda: VideoGeometry(frames_per_shot=None),
            lambda: critical_value(0.01, None, 600, 0.05),
            lambda: RankingConfig(default_k=nan),
            lambda: critical_value(0.01, 10, nan, 0.05),
            lambda: OnlineConfig(cache_chunk_clips=inf),
            lambda: VideoMeta("v", n_frames=inf),
            lambda: OnlineConfig(retry_max_attempts=True),
            lambda: RankingConfig(default_k=True),
            lambda: critical_value(0.01, True, 600, 0.05),
            lambda: require_positive_int("3", "n"),
        ):
            with pytest.raises(ConfigurationError):
                build()

    def test_non_negative(self):
        assert require_non_negative(0.0, "x") == 0.0
        with pytest.raises(ConfigurationError):
            require_non_negative(-1e-9, "x")

    def test_positive(self):
        assert require_positive(0.1, "x") == 0.1
        with pytest.raises(ConfigurationError):
            require_positive(0.0, "x")
