"""The correctness oracle, all of it outside the timed regions.

Two kinds of check. *Golden digests* (``golden.json``, committed): what
each network's analysis must produce — route count, a hash of the sorted
FIBs, violation count, disposition set, finding count. *Independent
checks*: a witness packet of a symbolic answer, pushed through the
concrete ``repro.traceroute`` engine, must meet a fate the symbolic
answer contains; and a hash of the FIBs is how an incremental result is
compared with a from-scratch one.

``run.py --record-golden`` rewrites ``golden.json`` from the current
code — only for a change that is meant to alter an answer.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Tuple

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


class Golden:
    """The committed digests, compared (or, when recording, replaced)."""

    def __init__(self, record: bool = False):
        self.record = record
        self.data: Dict[str, Dict] = {}
        if os.path.exists(GOLDEN_PATH):
            with open(GOLDEN_PATH) as handle:
                self.data = json.load(handle)

    def compare(self, key: str, digest: Dict) -> List[str]:
        """Mismatches between ``digest`` and the golden one for ``key``."""
        if self.record:
            self.data[key] = digest
            return []
        expected = self.data.get(key)
        if expected is None:
            return [f"no golden digest for {key}"]
        return [
            f"{key}: {name} is {digest.get(name)!r}, golden {expected.get(name)!r}"
            for name in sorted(set(expected) | set(digest))
            if expected.get(name) != digest.get(name)
        ]

    def save(self) -> None:
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(self.data, handle, indent=1, sort_keys=True)
            handle.write("\n")


def fib_digest(fibs) -> Tuple[str, int]:
    """(sha256 of the sorted FIB lines of every device, entry count)."""
    lines = sorted(
        f"{hostname} {entry.describe()}"
        for hostname, fib in fibs.items()
        for _prefix, entries in fib.entries()
        for entry in entries
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), len(lines)


def canonical_sha256(value) -> str:
    """Hash of a JSON-ready value, independent of dict order."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def concrete_traces(session, tracer, source: Tuple, packet) -> List:
    """Every path ``packet`` takes from graph source node ``source``
    through the concrete ``repro.traceroute`` engine."""
    with tracer.span("traceroute.trace"):
        return session.traceroute(packet, source[1], source[2])


def witness_errors(
    session,
    tracer,
    source: Tuple,
    packet,
    allowed: Iterable,
    required: Iterable = (),
    what: str = "witness",
) -> List[str]:
    """A witness packet of a symbolic answer, traced concretely: every
    path's fate must be one of ``allowed`` (the fates the symbolic answer
    contains) and each fate in ``required`` must occur on some path."""
    if packet is None:
        return [f"{what}: no example packet for a non-empty set at {source}"]
    fates = {t.disposition for t in concrete_traces(session, tracer, source, packet)}
    allowed, required = set(allowed), set(required)
    errors = []
    if not fates:
        errors.append(f"{what}: no trace from {source}")
    if fates - allowed:
        errors.append(
            f"{what}: {packet.describe()} from {source} met "
            f"{sorted(d.value for d in fates - allowed)}, symbolic answer "
            f"has {sorted(d.value for d in allowed)}"
        )
    if required - fates:
        errors.append(
            f"{what}: {packet.describe()} from {source} never met "
            f"{sorted(d.value for d in required - fates)}"
        )
    return errors
