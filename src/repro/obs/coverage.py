"""Configuration coverage: which parts of a config an analysis touched.

Xu et al.'s *Test Coverage for Network Configurations* argues that the
right observability primitive for tools like Batfish is per-structure
(ultimately per-line) coverage: a reachability suite that never
exercises an ACL line says nothing about that line. This module tracks
"touches" of vendor-independent model structures as queries run:

* ``interface`` — a packet (symbolic or concrete) entered/left it,
* ``acl_line`` — the concrete evaluator matched it (implicit deny is
  index ``-1``),
* ``route_map_clause`` — policy evaluation matched the clause.

Touches are attributed to the *question* (or ``lint/<rule_id>`` label)
riding the :mod:`repro.obs.context` contextvar — falling back to the
innermost open :class:`~repro.obs.trace.Span` — so a report can say
*which question* exercised a structure, and the tracker keeps one full
key-level coverage vector per attribution label. Totals come from
walking a :class:`~repro.config.model.Snapshot`, giving touched/total
ratios per structure kind — the coverage analogue of line/branch
coverage.

On top of the raw vectors the tracker keeps a small *run registry*:
one record per (snapshot, question, params) execution, holding the
question's coverage vector, its host footprint, and a scope class. The
delta engine reads the registry to rank questions by overlap with a
delta's changed hosts (coverage-guided prioritization; see
:mod:`repro.questions.coverage`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: kind, hostname, structure name, index-within-structure (or None).
CoverageKey = Tuple[str, str, str, Optional[int]]

KINDS = ("interface", "acl_line", "route_map_clause")


class CoverageTracker:
    """Accumulates structure touches; thread-safe, cheap when idle."""

    def __init__(self):
        self._lock = threading.Lock()
        self._touched: Dict[CoverageKey, int] = {}
        self._by_query: Dict[str, Dict[str, int]] = {}
        #: Full key-level coverage vector per attribution label
        #: (question name or ``lint/<rule_id>``).
        self._vectors: Dict[str, Dict[CoverageKey, int]] = {}
        #: Run registry: snapshot_key -> (question, params_key) ->
        #: record dict (see :func:`repro.questions.coverage`). Kept
        #: separate from the vectors: vectors describe the *current*
        #: tracker state, records describe completed executions and are
        #: what delta prioritization ranks against.
        self._runs: Dict[str, Dict[Tuple[str, str], Dict]] = {}

    def touch(
        self,
        kind: str,
        hostname: str,
        name: str,
        index: Optional[int] = None,
        query: Optional[str] = None,
    ) -> None:
        key = (kind, hostname, name, index)
        with self._lock:
            self._touched[key] = self._touched.get(key, 0) + 1
            if query:
                per_kind = self._by_query.setdefault(query, {})
                per_kind[kind] = per_kind.get(kind, 0) + 1
                vector = self._vectors.setdefault(query, {})
                vector[key] = vector.get(key, 0) + 1

    def reset(self) -> None:
        with self._lock:
            self._touched.clear()
            self._by_query.clear()
            self._vectors.clear()
            self._runs.clear()

    def invalidate_hosts(self, hostnames) -> int:
        """Drop all touches attributed to the given devices.

        The incremental delta engine calls this for changed devices:
        their structures changed, so previous touches no longer describe
        the current configuration. Touches on clean devices are kept; the per-query kind aggregates are
        *recomputed* from the surviving per-question vectors so they
        never go stale relative to the key-level data. The run registry
        is untouched — records describe past executions against past
        snapshots and are pruned by snapshot key, not by host. Returns
        the number of global entries dropped.
        """
        hosts = set(hostnames)
        with self._lock:
            stale = [key for key in self._touched if key[1] in hosts]
            for key in stale:
                del self._touched[key]
            for vector in self._vectors.values():
                for key in [k for k in vector if k[1] in hosts]:
                    del vector[key]
            self._vectors = {
                label: vector
                for label, vector in self._vectors.items()
                if vector
            }
            # Aggregates re-derived from what survived — this is the
            # invariant the old code broke (stale ratios after deltas).
            self._by_query = {}
            for label, vector in self._vectors.items():
                per_kind = self._by_query.setdefault(label, {})
                for key, count in vector.items():
                    per_kind[key[0]] = per_kind.get(key[0], 0) + count
        return len(stale)

    def touched_keys(self) -> List[CoverageKey]:
        with self._lock:
            return sorted(self._touched, key=_key_order)

    def question_vector(self, question: str) -> Dict[CoverageKey, int]:
        """The combined coverage vector for ``question``.

        Prefix-matched: the label ``question`` itself plus any
        ``question/<sub>`` labels fold together, so the eleven
        ``lint/<rule_id>`` vectors roll up under ``lint``."""
        prefix = question + "/"
        out: Dict[CoverageKey, int] = {}
        with self._lock:
            for label, vector in self._vectors.items():
                if label != question and not label.startswith(prefix):
                    continue
                for key, count in vector.items():
                    out[key] = out.get(key, 0) + count
        return out

    def vector_labels(self) -> List[str]:
        with self._lock:
            return sorted(self._vectors)

    # -- run registry --------------------------------------------------

    def record_run(
        self, snapshot_key: str, question: str, params_key: str, record: Dict
    ) -> None:
        """Register a completed (question, params) execution against a
        snapshot. Overwrites any previous record for the same triple —
        the latest execution is the freshest description."""
        with self._lock:
            per_snapshot = self._runs.setdefault(snapshot_key, {})
            per_snapshot[(question, params_key)] = record

    def recorded_runs(self, snapshot_key: str) -> Dict[Tuple[str, str], Dict]:
        with self._lock:
            return dict(self._runs.get(snapshot_key, {}))

    def dump(self) -> Dict[str, object]:
        """JSON-ready snapshot (keys rendered as strings). The run
        registry is deliberately excluded: it is parent-process state,
        not something pmap workers accumulate."""
        with self._lock:
            return {
                "touched": {
                    _render_key(key): count
                    for key, count in sorted(
                        self._touched.items(), key=lambda kv: _key_order(kv[0])
                    )
                },
                "by_query": {
                    query: dict(sorted(kinds.items()))
                    for query, kinds in sorted(self._by_query.items())
                },
                "vectors": {
                    label: {
                        _render_key(key): count
                        for key, count in sorted(
                            vector.items(), key=lambda kv: _key_order(kv[0])
                        )
                    }
                    for label, vector in sorted(self._vectors.items())
                },
            }

    def merge(self, dump: Dict[str, object]) -> None:
        """Fold a worker's :meth:`dump` back in (inverse of rendering)."""
        if not dump:
            return
        with self._lock:
            for rendered, count in dump.get("touched", {}).items():
                key = _parse_key(rendered)
                if key is not None:
                    self._touched[key] = self._touched.get(key, 0) + int(count)
            for query, kinds in dump.get("by_query", {}).items():
                per_kind = self._by_query.setdefault(query, {})
                for kind, count in kinds.items():
                    per_kind[kind] = per_kind.get(kind, 0) + int(count)
            for label, rendered_vector in dump.get("vectors", {}).items():
                vector = self._vectors.setdefault(label, {})
                for rendered, count in rendered_vector.items():
                    key = _parse_key(rendered)
                    if key is not None:
                        vector[key] = vector.get(key, 0) + int(count)


def _key_order(key: CoverageKey):
    kind, hostname, name, index = key
    return (kind, hostname, name, -1 if index is None else index)


def _render_key(key: CoverageKey) -> str:
    kind, hostname, name, index = key
    rendered = f"{kind}:{hostname}:{name}"
    return rendered if index is None else f"{rendered}:{index}"


def _parse_key(rendered: str) -> Optional[CoverageKey]:
    parts = rendered.split(":")
    if len(parts) == 3:
        return (parts[0], parts[1], parts[2], None)
    if len(parts) == 4:
        try:
            return (parts[0], parts[1], parts[2], int(parts[3]))
        except ValueError:
            return None
    return None


# Public aliases: the recorded question runs and the coverage API
# payloads carry keys in rendered form, so callers outside this module
# (repro.questions.coverage, the service) need the codec.
render_key = _render_key
parse_key = _parse_key


# ----------------------------------------------------------------------
# Reporting against a snapshot


@dataclass
class KindCoverage:
    kind: str
    touched: int
    total: int
    untouched: List[str] = field(default_factory=list)

    @property
    def pct(self) -> float:
        return 100.0 * self.touched / self.total if self.total else 0.0


@dataclass
class CoverageReport:
    """Touched/total per structure kind, with sample untouched labels."""

    kinds: Dict[str, KindCoverage]
    by_query: Dict[str, Dict[str, int]]

    def describe(self, max_untouched: int = 5) -> str:
        lines = []
        for kind in KINDS:
            cov = self.kinds[kind]
            lines.append(
                f"{kind:>17}: {cov.touched}/{cov.total} ({cov.pct:.0f}%)"
            )
            for label in cov.untouched[:max_untouched]:
                lines.append(f"{'':>19} untouched: {label}")
            hidden = len(cov.untouched) - max_untouched
            if hidden > 0:
                lines.append(f"{'':>19} ... and {hidden} more")
        return "\n".join(lines)


def coverage_report(tracker: CoverageTracker, snapshot) -> CoverageReport:
    """Compare touched structures against everything the snapshot defines."""
    touched = set()
    for kind, hostname, name, index in tracker.touched_keys():
        touched.add((kind, hostname, name, index))
    kinds: Dict[str, KindCoverage] = {
        kind: KindCoverage(kind=kind, touched=0, total=0) for kind in KINDS
    }

    def account(kind: str, hostname: str, name: str, index, label: str) -> None:
        cov = kinds[kind]
        cov.total += 1
        if (kind, hostname, name, index) in touched:
            cov.touched += 1
        else:
            cov.untouched.append(label)

    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        for iface_name in sorted(device.interfaces):
            account(
                "interface", hostname, iface_name, None,
                f"{hostname}:{iface_name}",
            )
        for acl_name in sorted(device.acls):
            for index, line in enumerate(device.acls[acl_name].lines):
                label = f"{hostname}:{acl_name}#{index}"
                if line.source_line:
                    label += f" ({line.source_file}:{line.source_line})"
                account("acl_line", hostname, acl_name, index, label)
        for rm_name in sorted(device.route_maps):
            for clause in device.route_maps[rm_name].sorted_clauses():
                account(
                    "route_map_clause", hostname, rm_name, clause.seq,
                    f"{hostname}:{rm_name} seq {clause.seq}",
                )
    return CoverageReport(kinds=kinds, by_query=tracker.dump()["by_query"])
