"""Request-scoped trace context: which request, and which question, this
work is done for.

Spans should be attributable to the *request* that caused them, and
coverage touches to the *question*, even when the work happens on
another thread (an HTTP handler thread enqueues a job, a queue worker
thread runs it) or in another process (a ``pmap`` pool worker parses
one config file). This module is the propagation mechanism:

* a :class:`RequestContext` is minted once, at the outermost entry
  point (the HTTP handler; CLI entry points may mint their own);
* it rides a :mod:`contextvars` variable, so it follows the logical
  flow of control within a thread and is cheap to read on hot paths
  (one ``ContextVar.get`` — no locks, no dict lookups);
* across *thread* boundaries it is carried explicitly (the
  :class:`repro.service.jobs.Job` stores it; the worker activates it);
* across *process* boundaries it is serialized into the worker payload
  (:func:`to_wire` / :func:`from_wire` — see
  :func:`repro.parallel.pmap`), so spans emitted inside pool workers
  carry the same ``request_id`` as the parent's.

The context is intentionally tiny and immutable: a request id and a
question label, each read by something (spans stamp the id, coverage
scopes by the question). Anything bigger belongs in span attributes,
not in the ambient context.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import uuid
from dataclasses import dataclass
from typing import Dict, Iterator, Optional


@dataclass(frozen=True)
class RequestContext:
    """Immutable per-request attribution carried through the pipeline."""

    request_id: str
    #: The question (or ``lint/<rule>`` label) this work is executing on
    #: behalf of. Empty string = unattributed. Coverage touches are
    #: scoped to this value, so per-question coverage vectors survive
    #: the job queue's thread hop and ``pmap``'s fork boundary the same
    #: way ``request_id`` does.
    question: str = ""


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
    """The active request id (the one hot paths stamp on events).

    Anonymous attribution-only contexts (see :func:`attribution`) carry
    an empty request id; those read as None here so events never get
    stamped with an empty ``rid``."""
    context = _CURRENT.get()
    if context is None:
        return None
    return context.request_id or None


def current_question() -> Optional[str]:
    """The question/rule label the current work is attributed to, or
    None. This is what :func:`repro.obs.trace.touch` scopes coverage
    touches with — a ``ContextVar.get`` plus one attribute read, cheap
    enough for the ACL/route-map hot paths."""
    context = _CURRENT.get()
    if context is None:
        return None
    return context.question or None


def activate(context: Optional[RequestContext]) -> contextvars.Token:
    """Install ``context`` as current; returns the token for
    :func:`deactivate`. Used where a ``with`` block doesn't fit (the
    job-queue worker loop)."""
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


@contextlib.contextmanager
def attribution(question: str) -> Iterator[RequestContext]:
    """Scope coverage attribution to ``question`` over a block.

    Derives from the active request context when there is one (so the
    request id keeps flowing), otherwise mints an anonymous context
    carrying only the question label. Used by
    :func:`repro.service.serialize.run_question` (question handlers)
    and the lint runner (``lint/<rule_id>``)::

        with attribution("reachability"):
            ...   # every obs.touch() lands in this question's vector
    """
    base = _CURRENT.get()
    if base is None:
        context = RequestContext(request_id="", question=question)
    else:
        context = dataclasses.replace(base, question=question)
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)


# ----------------------------------------------------------------------
# Process-boundary serialization (pmap worker payloads)


def to_wire(context: Optional[RequestContext]) -> Optional[Dict]:
    """JSON/pickle-ready form of a context (None stays None)."""
    if context is None:
        return None
    wire: Dict = {"request_id": context.request_id}
    if context.question:
        wire["question"] = context.question
    return wire


def from_wire(wire: Optional[Dict]) -> Optional[RequestContext]:
    """Rebuild a context shipped via :func:`to_wire` (tolerant of
    missing/extra keys — a version-skewed parent must not kill a
    worker)."""
    if not wire or not isinstance(wire, dict):
        return None
    request_id = wire.get("request_id") or ""
    question = wire.get("question") or ""
    # An attribution-only context (empty request id, question set) is a
    # legitimate wire — CLI entry points attribute without minting rids.
    if not request_id and not question:
        return None
    return RequestContext(request_id=str(request_id), question=str(question))
