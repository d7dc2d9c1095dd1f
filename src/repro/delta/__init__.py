"""Incremental snapshot analysis: parse only changed files, then reuse
the base data plane when no routing fingerprint moved, else recompute.

Entry point: :meth:`repro.core.session.Session.delta`, or directly
:func:`delta_session`. Differential validation against a from-scratch
analysis is forced via ``REPRO_DELTA_VALIDATE=1`` (or
``validate=True``); ``python -m repro validate delta`` sweeps the
synthetic network registry with validation on.
"""

from repro.delta.engine import (
    DeltaInfo,
    DeltaValidationError,
    delta_session,
    fib_lines,
    validate_enabled,
)
from repro.delta.fingerprint import routing_fingerprint, routing_seeds

__all__ = [
    "DeltaInfo",
    "DeltaValidationError",
    "delta_session",
    "fib_lines",
    "routing_fingerprint",
    "routing_seeds",
    "validate_enabled",
]
