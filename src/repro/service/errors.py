"""Typed service errors with stable wire codes and HTTP statuses.

Every failure a client can observe maps to one exception class here;
the API layer renders :meth:`ServiceError.payload` as the JSON body and
:attr:`ServiceError.status` as the HTTP status. Analysis failures —
non-convergence, bad question parameters — degrade to structured
payloads instead of killing the thread that hit them
(:func:`to_service_error` does the mapping at the job boundary).
"""

from __future__ import annotations

from typing import Dict

from repro.core.session import NotConvergedError
from repro.questions.params import ParamError


class ServiceError(Exception):
    """Base class: a failure with a wire code and an HTTP status."""

    status = 500
    code = "internal_error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details = {k: v for k, v in details.items() if v is not None}

    def payload(self) -> Dict:
        """The JSON error body the API returns."""
        body = {"code": self.code, "message": self.message}
        if self.details:
            body["details"] = self.details
        return {"error": body}


class InvalidRequestError(ServiceError):
    """Malformed body, unknown field, or out-of-range parameter."""

    status = 400
    code = "invalid_request"


class UnknownQuestionError(ServiceError):
    """The question name is not in the service's registry."""

    status = 400
    code = "unknown_question"


class NotFoundError(ServiceError):
    """Unknown API path."""

    status = 404
    code = "not_found"


class SnapshotNotFoundError(ServiceError):
    status = 404
    code = "snapshot_not_found"


class JobNotFoundError(ServiceError):
    status = 404
    code = "job_not_found"


class SnapshotConflictError(ServiceError):
    """Initializing a name that already exists (without ``force``)."""

    status = 409
    code = "snapshot_conflict"


class AnalysisError(ServiceError):
    """The analysis itself failed in a modelled way — non-convergent
    routing, parse-level breakage — as opposed to a service bug. The
    snapshot stays usable for other questions."""

    status = 422
    code = "analysis_failed"


class QueueFullError(ServiceError):
    """Backpressure: the bounded job queue is at capacity."""

    status = 429
    code = "queue_full"


class JobTimeoutError(ServiceError):
    """The job was still queued when its deadline passed."""

    status = 504
    code = "job_timeout"


class ShuttingDownError(ServiceError):
    """The service is draining and no longer accepts new work."""

    status = 503
    code = "shutting_down"


def to_service_error(exc: BaseException) -> ServiceError:
    """Map an arbitrary exception escaping a job to a typed error.

    This is the graceful-degradation boundary: whatever the analysis
    raises becomes a structured payload, and the thread that ran it survives.
    """
    if isinstance(exc, ServiceError):
        return exc
    if isinstance(exc, NotConvergedError):
        return AnalysisError(str(exc), kind="not_converged")
    if isinstance(exc, ParamError):
        return InvalidRequestError(str(exc), field=exc.field)
    if isinstance(exc, (TypeError, ValueError)):
        return InvalidRequestError(str(exc))
    return ServiceError(f"{type(exc).__name__}: {exc}", kind=type(exc).__name__)
