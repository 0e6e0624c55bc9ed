"""Utility helpers: interval algebra, RNG plumbing, executors, validation."""

from repro.utils.intervals import Interval, IntervalSet, intersect_all
from repro.utils.rng import derive_rng, spawn_seed

__all__ = [
    "Interval",
    "IntervalSet",
    "intersect_all",
    "derive_rng",
    "spawn_seed",
]
