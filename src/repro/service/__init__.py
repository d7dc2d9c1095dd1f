"""`repro.service` — the long-running, concurrent snapshot-analysis
service (the deployment shape the paper's users actually run, §5).

The library surface stays :class:`repro.Session`; this package fronts
it for many concurrent callers:

* :class:`SnapshotStore` — named snapshots with typed errors, backed by
  the content-addressed cache so identical re-inits are free;
* :class:`JobQueue` — ``workers`` analysis slots behind a bounded
  queue, with per-job timeouts, cancellation, and request coalescing
  keyed on :attr:`Session.snapshot_key`; a caller that waits takes a
  free slot and runs its job itself, queued jobs go to worker threads;
* :class:`AnalysisService` — the stdlib HTTP JSON API, served by
  connection threads that accept for themselves, plus graceful SIGTERM
  drain (``python -m repro.service`` / ``repro-service``).
"""

from repro.service.api import AnalysisService, ServiceConfig
from repro.service.errors import (
    AnalysisError,
    InvalidRequestError,
    JobNotFoundError,
    JobTimeoutError,
    NotFoundError,
    QueueFullError,
    ServiceError,
    ShuttingDownError,
    SnapshotConflictError,
    SnapshotNotFoundError,
    UnknownQuestionError,
    to_service_error,
)
from repro.service.jobs import Job, JobQueue, JobStatus
from repro.service.serialize import QUESTIONS, run_question
from repro.service.store import SnapshotRecord, SnapshotStore

__all__ = [
    "AnalysisService",
    "AnalysisError",
    "InvalidRequestError",
    "Job",
    "JobNotFoundError",
    "JobQueue",
    "JobStatus",
    "JobTimeoutError",
    "NotFoundError",
    "QUESTIONS",
    "QueueFullError",
    "ServiceConfig",
    "ServiceError",
    "ShuttingDownError",
    "SnapshotConflictError",
    "SnapshotNotFoundError",
    "SnapshotRecord",
    "SnapshotStore",
    "UnknownQuestionError",
    "run_question",
    "to_service_error",
]
