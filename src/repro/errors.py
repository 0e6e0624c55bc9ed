"""Exception hierarchy for the svq-act reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers embedding the library can catch a single base class.  Sub-classes are
grouped by the layer that raises them (configuration, data model, query
language, storage, statistics).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigurationError(ReproError, ValueError):
    """An engine, detector or dataset was configured with invalid values."""


class IntervalError(ReproError, ValueError):
    """An interval was constructed or combined in an invalid way."""


class VideoModelError(ReproError, ValueError):
    """Frame/shot/clip geometry is inconsistent (e.g. clip not a multiple
    of the shot length)."""


class GroundTruthError(ReproError, ValueError):
    """Ground-truth annotations are malformed (unknown label, interval
    outside the video, overlapping spans for one label)."""


class DetectorError(ReproError, RuntimeError):
    """A simulated detection model was used incorrectly (e.g. asked to score
    a label outside its vocabulary)."""


class ModelExecutionError(ReproError, RuntimeError):
    """A deployed model failed *at inference time* — the infrastructure
    failures (backend errors, timeouts, corrupted outputs) the
    fault-tolerance layer retries and degrades around, as opposed to
    :class:`DetectorError` which flags caller bugs."""


class TransientModelError(ModelExecutionError):
    """A model invocation failed transiently (flaky backend, dropped RPC);
    retrying the same call may succeed."""


class ModelTimeoutError(ModelExecutionError):
    """A model invocation exceeded its (simulated or configured) deadline."""


class CorruptedOutputError(ModelExecutionError):
    """A model returned unusable output (non-finite scores); the attempt
    is treated as failed and may be retried."""


class ModelGaveUpError(ModelExecutionError):
    """Retries were exhausted (or the per-call deadline passed) without a
    usable model answer.  ``last_error`` holds the final attempt's failure."""

    def __init__(self, message: str, last_error: Exception | None = None) -> None:
        super().__init__(message)
        self.last_error = last_error


class QueryError(ReproError, ValueError):
    """A query object is malformed (no action, duplicate predicates, labels
    outside the deployed models' vocabularies)."""


class AdmissionError(ReproError, RuntimeError):
    """The streaming query service refused a registration.

    Raised by per-tenant admission control when a tenant is at its
    concurrent-query quota or has exhausted its model-unit budget.  The
    message names the tenant and the limit that was hit; already-running
    queries are never affected by an admission rejection."""


class ScanStatisticsError(ReproError, ValueError):
    """Scan-statistics routines received out-of-domain parameters
    (probabilities outside (0, 1), non-positive window sizes, ...)."""


class StorageError(ReproError, RuntimeError):
    """Offline storage misuse: unknown video/label tables, access to a
    table row that does not exist, repository state violations."""


class IngestError(StorageError):
    """The ingestion phase failed (video already ingested, empty video)."""


class IngestBatchError(IngestError):
    """One or more videos of an ``ingest_many`` batch failed.

    Raised only under ``on_error="raise"`` — *after* every completed
    worker's cost charges were merged back into the shared meter.  A
    caller that salvages the completed ingests asks for
    ``on_error="capture"`` instead.
    """


class SqlSyntaxError(ReproError, ValueError):
    """The SQL-like query text could not be tokenised or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class PlanningError(ReproError, ValueError):
    """A parsed query could not be translated into an executable plan."""


class EvaluationError(ReproError, ValueError):
    """Metric computation received inconsistent inputs."""
