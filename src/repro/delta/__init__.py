"""Incremental snapshot analysis: parse only changed files, then take
each routing stage from the base whose projections and reads of the
main RIBs are unchanged.

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
from repro.delta.fingerprint import (
    Fingerprints,
    lint_changes,
    lint_fingerprint,
    routing_changes,
    routing_fingerprint,
)

__all__ = [
    "DeltaInfo",
    "DeltaValidationError",
    "Fingerprints",
    "delta_session",
    "fib_lines",
    "lint_changes",
    "lint_fingerprint",
    "routing_changes",
    "routing_fingerprint",
    "validate_enabled",
]
