"""Delta analysis: reuse the base data plane, or recompute.

The production workload the paper centers on (§5.1) is reviewing one
small change against a large network, thousands of times a day. The
content-addressed cache only helps when snapshots are *identical*; a
delta makes the almost-identical case cheap from the base session in
memory, and never touches the disk cache (its key does not repeat):

1. Parse only changed files — every other file keeps the base's parsed
   device (:func:`repro.config.loader.parses_from_base`) — and compare
   routing fingerprints of the devices whose bytes changed
   (:mod:`repro.delta.fingerprint`).
2. No fingerprint moved, the host set is the same and the base
   converged: reuse the base data plane wholesale. Anything else: the
   new session recomputes routing in full through the one public
   ``compute_dataplane``.
3. Downstream of routing, one rule at every stage boundary: where the
   new session's output equals the base's, it takes the base's object,
   and the next stage reuses by identity (``Session.dataplane`` →
   ``.fibs`` → ``.analyzer``; DESIGN.md, "Reuse at stage boundaries").

Reuse is exact. The routing engine consumes only fingerprint-covered
fields, so a full run of the new snapshot would be input-identical to
the base run and, the schedule being deterministic (coloring + logical
clocks, §4.1.2), reproduce it byte for byte; step 3 compares outputs
and needs no argument. ``validate=True`` / ``REPRO_DELTA_VALIDATE=1``
checks the parsed snapshot, FIBs and forwarding graph against a
cache-less from-scratch session of the same texts, whatever was reused.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.config.loader import load_snapshot_from_texts, parses_from_base
from repro.delta.fingerprint import routing_seeds
from repro.provenance import DerivationNode, DerivationTree, first_divergence
from repro.reachability.graph import Constraint
from repro.routing.engine import DataPlane, NodeState


class DeltaValidationError(AssertionError):
    """Differential validation found a snapshot, FIB or graph mismatch
    between a delta session and a from-scratch analysis of the same
    config texts."""


@dataclass
class DeltaInfo:
    """What one :meth:`Session.delta` call changed and reused."""

    changed_files: List[str]
    seeds: List[str] = field(default_factory=list)
    #: Reporting only (every device on a recompute); no analysis reads it.
    dirty_devices: List[str] = field(default_factory=list)
    reused_devices: int = 0
    #: Files taken from the base without parsing: unchanged bytes, and a
    #: hostname no other base file shares.
    parse_memo_hits: int = 0
    fallback: bool = False
    fallback_reason: str = ""
    validated: bool = False
    #: Devices whose main RIB / FIB / graph pipeline is the base's own
    #: object — also after a full recompute, wherever the output came
    #: out equal. Filled as the session's lazy stages run (0 until then).
    reused_ribs: int = 0
    reused_fibs: int = 0
    reused_pipelines: int = 0
    #: Coverage-guided prioritization (repro.questions.coverage): the
    #: recorded questions whose historical coverage vectors overlap this
    #: delta's impact set, ranked most-exposed first, and the ones whose
    #: footprint provably misses it (their base answers still hold).
    #: Both empty when no question ran against the base snapshot.
    questions_affected: List[Dict] = field(default_factory=list)
    questions_skipped: List[Dict] = field(default_factory=list)

    def to_json(self) -> Dict:
        return asdict(self)


def validate_enabled() -> bool:
    """Whether ``REPRO_DELTA_VALIDATE`` requests differential checking."""
    value = os.environ.get("REPRO_DELTA_VALIDATE", "").strip().lower()
    return value not in ("", "0", "false", "no")


def delta_session(base, changed_configs: Dict[str, Optional[str]], validate=None):
    """Implementation behind :meth:`repro.core.session.Session.delta`."""
    from repro.core.session import BaseStages, Session

    if base._configs is None:
        raise ValueError(
            "delta requires a base session built via Session.from_texts or "
            "Session.from_dir (the engine diffs raw config texts)"
        )
    new_configs = dict(base._configs)
    for filename, text in changed_configs.items():
        if text is None:
            new_configs.pop(filename, None)
        elif not isinstance(text, str):
            raise TypeError(f"config text for {filename!r} must be str or None")
        else:
            new_configs[filename] = text
    if not new_configs:
        raise ValueError("delta removed every config file")

    # Files whose bytes actually differ between base and new — an edit
    # that rewrites a file with identical text is not a change.
    changed_files = {
        filename
        for filename in set(base._configs) | set(new_configs)
        if base._configs.get(filename) != new_configs.get(filename)
    }
    info = DeltaInfo(changed_files=sorted(changed_files))
    started = time.perf_counter()
    with obs.span("delta", changed=len(changed_files)):
        parsed = parses_from_base(new_configs, base._configs, base.snapshot)
        info.parse_memo_hits = len(parsed)
        # No cache: the session's key (from its texts) never repeats.
        new_session = Session(
            load_snapshot_from_texts(new_configs, parsed=parsed),
            settings=base.settings,
            semantics=base.semantics,
        )
        new_session._configs = new_configs
        new_session.delta_info = info
        changed_hosts = _changed_hosts(base, new_session, info)
        info.seeds = routing_seeds(
            base.snapshot, new_session.snapshot, changed_hosts
        )
        reason = _reuse_base(base, new_session, info.seeds)
        # Only what the base has computed by now: a delta never runs a
        # base stage for the sake of reusing it.
        nodes = base._dataplane.nodes if base._dataplane is not None else {}
        new_session._base = BaseStages(
            {hostname: state.main_rib for hostname, state in nodes.items()},
            dict(base._fibs or {}), base._analyzer, frozenset(changed_hosts),
        )
        if reason is None:
            info.reused_devices = len(new_session.snapshot.devices)
            new_session._count_reuse("rib", info.reused_devices)
        else:
            info.fallback = True
            info.fallback_reason = reason
            info.dirty_devices = sorted(new_session.snapshot.devices)
            obs.metrics().inc("delta.fallback_full")
        _prioritize_questions(base, new_session, info, changed_hosts)
        _record_metrics(info, len(new_session.snapshot.devices))
        should_validate = (
            validate if validate is not None else validate_enabled()
        )
        if should_validate:
            _validate(new_session)
            info.validated = True
    obs.observe_phase("delta", time.perf_counter() - started)
    return new_session


def _changed_hosts(base, new_session, info: DeltaInfo) -> Set[str]:
    """Devices whose config file changed bytes (on either side of a
    rename/delete)."""
    return {
        hostname
        for filename in info.changed_files
        for hostname in (
            base.snapshot.sources.get(filename),
            new_session.snapshot.sources.get(filename),
        )
        if hostname is not None
    }


def _prioritize_questions(
    base, new_session, info: DeltaInfo, changed: Set[str]
) -> None:
    """Rank recorded questions against this delta's impact set and drop
    coverage touches that no longer describe current structures.

    Structure identity (ACL line indices, clause seqs, source lines) can
    shift on *any* byte change — including routing-inert edits that
    reuse the base data plane — so changed-byte hosts are always
    invalidated here. The run registry survives invalidation: records
    describe past executions, and the skipped ones are carried forward
    under the new snapshot key by ``questions_for_delta`` because their
    answers are provably unchanged."""
    from repro.questions import coverage as qcov

    tracker = obs.coverage()
    # Scope rules: routing questions all rerun on a recompute, config
    # questions rerun exactly on changed-byte hosts. A changed device
    # *set* is unbounded: global answers enumerate the device universe,
    # so even an isolated new host can grow every answer.
    unbounded = base.snapshot.devices.keys() != new_session.snapshot.devices.keys()
    affected, skipped = qcov.questions_for_delta(
        tracker,
        base.snapshot_key,
        new_session.snapshot_key,
        changed_hosts=changed,
        routing_changed=info.fallback,
        everything=unbounded,
    )
    info.questions_affected = affected
    info.questions_skipped = skipped
    if changed:
        tracker.invalidate_hosts(changed)


def _record_metrics(info: DeltaInfo, devices: int) -> None:
    metrics = obs.metrics()
    metrics.inc("delta.runs")
    metrics.inc("delta.dirty_devices", len(info.dirty_devices))
    metrics.inc("delta.reused_devices", info.reused_devices)
    metrics.inc("delta.parse_memo_hits", info.parse_memo_hits)
    # Denominator of delta.reuse.{rib,fib,pipeline}, which the session's
    # stages count as they run.
    metrics.inc("delta.reuse.devices", devices)


def _reuse_base(base, new_session, seeds: List[str]) -> Optional[str]:
    """Install the base's data plane on ``new_session`` when it provably
    describes it and return None; else return why not (the session then
    computes lazily from scratch, which is always correct).

    Provable means: no seed — empty *seeds*, which also rules out an
    added or removed device — and a converged base. A full run of the
    new snapshot is then input-identical to the base run and would
    reproduce it byte for byte, order-sensitive tie-breaks included.
    """
    if seeds:
        shown = ", ".join(seeds[:3])
        if len(seeds) > 3:
            shown += f" (+{len(seeds) - 3} more)"
        return f"routing changed on {shown}"
    if not base.dataplane.converged:
        return "base data plane did not converge"
    new_session._dataplane = _reused_dataplane(
        base.dataplane, new_session.snapshot
    )
    return None


def _reused_dataplane(base_dp: DataPlane, new_snapshot) -> DataPlane:
    """Rewrap the base data plane around the new snapshot. Node states
    alias the base's converged RIBs (never mutated after compute); only
    the ``device`` reference is swapped so forwarding-time queries —
    which do read non-routing fields like zones — evaluate against the
    new snapshot's objects. The host sets are identical (empty seeds),
    so the base topology and sessions describe the new snapshot
    exactly."""
    nodes = {
        hostname: NodeState(
            device=new_snapshot.device(hostname),
            main_rib=base_dp.nodes[hostname].main_rib,
            bgp_rib=base_dp.nodes[hostname].bgp_rib,
            connected_routes=base_dp.nodes[hostname].connected_routes,
            bgp_in_main=base_dp.nodes[hostname].bgp_in_main,
        )
        for hostname in new_snapshot.hostnames()
    }
    return DataPlane(
        snapshot=new_snapshot,
        topology=base_dp.topology,
        nodes=nodes,
        sessions=base_dp.sessions,
        session_issues=base_dp.session_issues,
        converged=True,
        oscillating_prefixes=list(base_dp.oscillating_prefixes),
        stats=base_dp.stats,
    )


# ----------------------------------------------------------------------
# Differential validation (REPRO_DELTA_VALIDATE)


def fib_lines(fibs) -> Dict[str, List[str]]:
    """Canonical per-host FIB rendering used for byte-identity checks."""
    return {
        hostname: sorted(
            entry.describe()
            for _prefix, entries in fib.entries()
            for entry in entries
        )
        for hostname, fib in sorted(fibs.items())
    }


def graph_lines(analyzer) -> List[Tuple]:
    """Engine-independent rendering of a forwarding graph: per edge its
    tail, head, ``describe()`` and the canonical form of every
    constraint label on it, in the order of the first three."""
    canonical = analyzer.encoder.engine.canonical
    lines = [
        (
            str(edge.tail), str(edge.head), edge.fn.describe(),
            [
                canonical(part.label)
                for part in getattr(edge.fn, "parts", [edge.fn])
                if isinstance(part, Constraint)
            ],
        )
        for edge in analyzer.graph.edges
    ]
    return sorted(lines, key=lambda line: line[:3])


def _fib_tree(label: str, hostname: str, lines: List[str]) -> DerivationTree:
    root = DerivationNode(label=f"{label} fib[{hostname}]", kind="fib")
    for line in lines:
        root.add(DerivationNode(label=line, kind="fib"))
    return DerivationTree(node=hostname, prefix="*", root=root)


def _validate(new_session) -> None:
    """Analyze the new session's config texts from scratch — no cache
    and no base to take anything from — and require an equal parsed
    snapshot (the devices and warnings taken from the base included),
    byte-identical FIBs and the same forwarding graph; locate a FIB
    mismatch with the first-divergence machinery."""
    from repro.core.session import Session

    with obs.span("delta.validate"):
        scratch = Session.from_texts(
            new_session._configs,
            settings=new_session.settings,
            semantics=new_session.semantics,
        )
        _validate_snapshot(new_session.snapshot, scratch.snapshot)
        delta_lines = fib_lines(new_session.fibs)
        full_lines = fib_lines(scratch.fibs)
        if delta_lines == full_lines:
            _validate_graph(new_session.analyzer, scratch.analyzer)
            obs.metrics().inc("delta.validate.ok")
            return
    obs.metrics().inc("delta.validate.mismatch")
    mismatched = sorted(
        set(delta_lines) ^ set(full_lines)
        | {
            hostname
            for hostname in set(delta_lines) & set(full_lines)
            if delta_lines[hostname] != full_lines[hostname]
        }
    )
    details = []
    for hostname in mismatched[:5]:
        divergence = first_divergence(
            _fib_tree("delta", hostname, delta_lines.get(hostname, [])),
            _fib_tree("full", hostname, full_lines.get(hostname, [])),
        )
        if divergence is not None:
            details.append(f"{hostname}: {divergence.describe()}")
        else:
            details.append(f"{hostname}: host present on one side only")
    raise DeltaValidationError(
        "delta session's FIBs differ from a from-scratch analysis on "
        f"{len(mismatched)} device(s):\n" + "\n".join(details)
    )


def _validate_snapshot(delta_snapshot, full_snapshot) -> None:
    if delta_snapshot == full_snapshot:
        return
    obs.metrics().inc("delta.validate.mismatch")
    devices = delta_snapshot.devices.keys() | full_snapshot.devices.keys()
    differing = sorted(
        hostname for hostname in devices
        if delta_snapshot.devices.get(hostname) != full_snapshot.devices.get(hostname)
    )
    same_warnings = delta_snapshot.warnings == full_snapshot.warnings
    raise DeltaValidationError(
        "delta session's parsed snapshot differs from a from-scratch parse: "
        f"devices {differing[:5]}, warnings {'equal' if same_warnings else 'differ'}"
    )


def _validate_graph(delta_analyzer, full_analyzer) -> None:
    delta_graph, full_graph = graph_lines(delta_analyzer), graph_lines(full_analyzer)
    if delta_graph != full_graph:
        obs.metrics().inc("delta.validate.mismatch")
        differing = [
            line[:3] for line in delta_graph + full_graph
            if line not in delta_graph or line not in full_graph
        ]
        raise DeltaValidationError(
            "delta session's forwarding graph differs from a from-scratch "
            f"analysis ({len(delta_graph)} vs {len(full_graph)} edges), "
            f"first at {differing[:3]}"
        )
