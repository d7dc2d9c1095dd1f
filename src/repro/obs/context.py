"""Request-scoped trace context: which request this work is done for.

Spans should be attributable to the *request* that caused them, even
when the work happens on another thread (an HTTP handler thread enqueues a job, a queue worker
thread runs it) or in another process (a ``pmap`` pool worker runs
one sweep scenario). This module is the propagation mechanism:

* a :class:`RequestContext` is minted once, at the outermost entry
  point (the HTTP handler; CLI entry points may mint their own);
* it rides a :mod:`contextvars` variable, so it follows the logical
  flow of control within a thread and is cheap to read on hot paths
  (one ``ContextVar.get`` — no locks, no dict lookups);
* across *thread* boundaries it is carried explicitly (the
  :class:`repro.service.jobs.Job` stores it; the worker activates it);
* across the *process* boundary nothing carries it: :func:`repro.parallel.pmap`
  forks its pool inside the call, on the calling thread, so each worker
  starts with that thread's context and its spans carry the same
  ``request_id`` as the parent's.

The context is intentionally tiny and immutable: a request id, which
spans stamp. Anything bigger belongs in span attributes, not in the
ambient context. (Coverage touches go to the innermost open scope of
:mod:`repro.obs.coverage`, which ``pmap`` carries on its own.)
"""

from __future__ import annotations

import contextlib
import contextvars
import uuid
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True)
class RequestContext:
    """Immutable per-request attribution carried through the pipeline."""

    request_id: str


_CURRENT: contextvars.ContextVar[Optional[RequestContext]] = (
    contextvars.ContextVar("repro_request_context", default=None)
)


def new_request_id() -> str:
    """A fresh request id (``req-`` + 12 hex chars; unique enough for
    correlating telemetry, short enough for log lines)."""
    return f"req-{uuid.uuid4().hex[:12]}"


def current() -> Optional[RequestContext]:
    """The active request context on this thread, or None."""
    return _CURRENT.get()


def current_request_id() -> Optional[str]:
    """The active request id (the one hot paths stamp on events)."""
    context = _CURRENT.get()
    return None if context is None else context.request_id or None


def activate(context: Optional[RequestContext]) -> contextvars.Token:
    """Install ``context`` as current; returns the token for
    :func:`deactivate`. Used where a ``with`` block doesn't fit (a
    queued job's thread, an HTTP request)."""
    return _CURRENT.set(context)


def deactivate(token: contextvars.Token) -> None:
    _CURRENT.reset(token)


@contextlib.contextmanager
def request_context(request_id: Optional[str] = None) -> Iterator[RequestContext]:
    """Scope a request context over a block::

        with request_context() as ctx:
            session.reachability(...)   # spans carry ctx.request_id
    """
    context = RequestContext(request_id=request_id or new_request_id())
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)
