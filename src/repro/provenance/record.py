"""The provenance recorder: an off-by-default event sink per context.

Mirrors the :mod:`repro.obs` discipline: recording is **off by
default** and every instrumentation point in the routing/dataplane code
guards through :func:`enabled` — one context-variable read and a falsy
branch per site, no formatting or allocation — so the <2% disabled
overhead budget of the benchmarks is preserved. Recording is switched
on per derivation by the :func:`recording` context manager (the way
``Session.explain_route`` re-derives the data plane with provenance on)
and only for the context that opened it: the recorder lives in a
:class:`~contextvars.ContextVar`, so a recording on one service worker
thread is invisible to every other thread, and leaving the block resets
exactly what entering it set.

Recorded events also flow through :mod:`repro.obs` when tracing is
enabled: each recording increments the ``provenance.recordings`` and
``provenance.route_events`` counters, which ride the existing
worker-dump metric merge.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.provenance.model import RouteEvent


class ProvenanceRecorder:
    """Collects :class:`RouteEvent`s during one derivation run."""

    def __init__(self):
        self.events: List[RouteEvent] = []
        self._by_key: Dict[Tuple[str, str], List[RouteEvent]] = {}
        self.iteration = 0
        self._seq = 0

    def route_event(
        self,
        node: str,
        prefix,
        protocol: str,
        action: str,
        detail: str,
        neighbor: str = "",
        policy: str = "",
        iteration: Optional[int] = None,
    ) -> None:
        self._seq += 1
        event = RouteEvent(
            seq=self._seq,
            node=node,
            prefix=str(prefix),
            protocol=protocol,
            action=action,
            detail=detail,
            neighbor=neighbor,
            policy=policy,
            iteration=self.iteration if iteration is None else iteration,
        )
        self.events.append(event)
        self._by_key.setdefault((event.node, event.prefix), []).append(event)

    def events_for(self, node: str, prefix) -> List[RouteEvent]:
        return list(self._by_key.get((node, str(prefix)), []))

    def __len__(self) -> int:
        return len(self.events)


_RECORDER: ContextVar[Optional[ProvenanceRecorder]] = ContextVar(
    "provenance_recorder", default=None
)


def enabled() -> bool:
    """The guard every instrumentation point checks first."""
    return _RECORDER.get() is not None


def recorder() -> Optional[ProvenanceRecorder]:
    return _RECORDER.get()


@contextmanager
def recording():
    """Record provenance in this context for the duration of the block.

    Yields the recorder; on exit the context's previous recorder (none,
    or an enclosing recording's) is back, so nested recordings compose.
    """
    current = ProvenanceRecorder()
    token = _RECORDER.set(current)
    try:
        yield current
    finally:
        _RECORDER.reset(token)
        if obs.enabled():
            obs.add("provenance.recordings")
            obs.add("provenance.route_events", len(current.events))


def route_event(
    node: str,
    prefix,
    protocol: str,
    action: str,
    detail: str,
    neighbor: str = "",
    policy: str = "",
    iteration: Optional[int] = None,
) -> None:
    """Record one derivation fact (no-op unless recording is enabled).

    Hot paths must guard with :func:`enabled` *before* building the
    ``detail`` string; this function re-checks only for safety.
    """
    rec = _RECORDER.get()
    if rec is None:
        return
    rec.route_event(
        node, prefix, protocol, action, detail,
        neighbor=neighbor, policy=policy, iteration=iteration,
    )


def set_iteration(iteration: int) -> None:
    """Stamp subsequent events with a convergence iteration number."""
    rec = _RECORDER.get()
    if rec is not None:
        rec.iteration = iteration
