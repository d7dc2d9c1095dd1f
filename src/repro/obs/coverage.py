"""Configuration coverage: which parts of a config one question run touched.

Xu et al.'s *Test Coverage for Network Configurations* argues that the
right observability primitive for tools like Batfish is per-structure
(ultimately per-line) coverage: a reachability suite that never
exercises an ACL line says nothing about that line. The engines report
"touches" of vendor-independent model structures as they evaluate them:

* ``interface`` — a packet (symbolic or concrete) entered/left it,
* ``acl_line`` — the concrete evaluator matched it (implicit deny is
  index ``-1``),
* ``route_map_clause`` — policy evaluation matched the clause.

A touch lands in the vector of the innermost open :func:`coverage_scope`
and nowhere else: outside a scope it records nothing. A scope belongs
to the thread (context) that opened it, so two questions running at
once on two threads never see each other's touches; a ``pmap`` worker
opens its own scope and ships the vector back, and the parent adds it
into the scope the map was called from (:func:`merge`). What a scope
collected becomes one run's record on the session it ran on
(:func:`repro.questions.coverage.recording`); there is no process-wide
tally.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Dict, Iterator, Optional, Tuple

#: kind, hostname, structure name, index-within-structure (or None).
CoverageKey = Tuple[str, str, str, Optional[int]]

KINDS = ("interface", "acl_line", "route_map_clause")

_SCOPE: contextvars.ContextVar[Optional[Dict[CoverageKey, int]]] = (
    contextvars.ContextVar("repro_coverage_scope", default=None)
)


def touch(kind: str, hostname: str, name: str, index: Optional[int] = None) -> None:
    """Count one touch in the innermost open scope (no-op outside one)."""
    vector = _SCOPE.get()
    if vector is not None:
        key = (kind, hostname, name, index)
        vector[key] = vector.get(key, 0) + 1


def coverage_scoped() -> bool:
    """Whether a scope is open here: the guard for call sites that would
    walk a whole answer to touch it."""
    return _SCOPE.get() is not None


@contextlib.contextmanager
def coverage_scope() -> Iterator[Dict[CoverageKey, int]]:
    """Open a scope over a block and yield its vector: every touch made
    in the block, inline or on a ``pmap`` worker, and no other."""
    vector: Dict[CoverageKey, int] = {}
    token = _SCOPE.set(vector)
    try:
        yield vector
    finally:
        _SCOPE.reset(token)


def merge(vector: Dict[CoverageKey, int]) -> None:
    """Add a ``pmap`` worker's scope vector into the innermost open
    scope (dropped when the map was called outside one)."""
    into = _SCOPE.get()
    if into is not None:
        for key, count in vector.items():
            into[key] = into.get(key, 0) + count


def render_key(key: CoverageKey) -> str:
    """The string form records, payloads and trace events carry."""
    kind, hostname, name, index = key
    rendered = f"{kind}:{hostname}:{name}"
    return rendered if index is None else f"{rendered}:{index}"


def parse_key(rendered: str) -> Optional[CoverageKey]:
    """Inverse of :func:`render_key` (None for a malformed key)."""
    parts = rendered.split(":")
    if len(parts) == 3:
        return (parts[0], parts[1], parts[2], None)
    if len(parts) == 4:
        try:
            return (parts[0], parts[1], parts[2], int(parts[3]))
        except ValueError:
            return None
    return None
