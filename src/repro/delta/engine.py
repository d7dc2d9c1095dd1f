"""Delta analysis: take each routing stage from the base whose inputs
and reads are unchanged.

The production workload the paper centers on (§5.1) is reviewing one
small change against a large network, thousands of times a day. The
content-addressed cache only helps when snapshots are *identical*; a
delta makes the almost-identical case cheap from the base session in
memory, and never touches the disk cache (its key does not repeat):

1. Parse only changed files — every other file keeps the base's parsed
   device (:func:`repro.config.loader.parses_from_base`) — and compare
   the per-stage routing projections of the devices whose bytes changed
   (:mod:`repro.delta.fingerprint`). A *seed* is a device whose
   projection for some stage moved, or that exists on one side only.
2. When the new session's data plane is first asked for, it is computed
   from the data plane the base had computed at ``delta()`` time, if
   any (``compute_dataplane(base=…)``): a stage whose projections are
   equal, and whose computation from or reads of the main RIBs answer
   as in the base run, takes the base's output; a seed rebuilds its
   main RIB from its own connected/static routes and those outputs; a
   device whose connected/static inputs did not change keeps the base's
   ``Rib`` object when both stages are taken. An edit that moves no
   projection is the case where every stage is taken and no device
   is rebuilt.
3. Downstream of routing, one rule at every stage boundary: where the
   new session's output equals the base's, it takes the base's object,
   and the next stage reuses by identity (``Session.dataplane`` →
   ``.fibs`` → ``.analyzer``; DESIGN.md, "Reuse at stage boundaries").

Reuse is exact. Each stage is deterministic (coloring + logical clocks,
§4.1.2) and consumes only its projections and what it computed from or
read of the main RIBs, so with those equal it reproduces the base run's
output byte for byte; the RIB comparison of step 3 compares outputs.
``validate=True`` / ``REPRO_DELTA_VALIDATE=1`` checks the parsed
snapshot, FIBs and forwarding graph against a cache-less from-scratch
session of the same texts, whatever was reused.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.config.loader import load_snapshot_from_texts, parses_from_base
from repro.delta.fingerprint import routing_changes
from repro.provenance import DerivationNode, DerivationTree, first_divergence
from repro.reachability.graph import Constraint
from repro.routing.engine import RoutingStages


class DeltaValidationError(AssertionError):
    """Differential validation found a snapshot, FIB or graph mismatch
    between a delta session and a from-scratch analysis of the same
    config texts."""


@dataclass
class DeltaInfo:
    """What one :meth:`Session.delta` call changed and reused."""

    changed_files: List[str]
    #: Devices whose routing projection for some stage moved, or that
    #: exist in one snapshot only.
    seeds: List[str] = field(default_factory=list)
    #: Files taken from the base without parsing: unchanged bytes, and a
    #: hostname no other base file shares.
    parse_memo_hits: int = 0
    validated: bool = False
    #: How the session's data plane was produced; None until it is
    #: computed. Per routing stage ("igp", "bgp"): "reused" or
    #: "recomputed (why)".
    stages: Optional[Dict[str, str]] = None
    #: Some routing stage was recomputed.
    fallback: Optional[bool] = None
    #: Devices whose main RIB was rebuilt, and how many kept the base's.
    dirty_devices: Optional[List[str]] = None
    reused_devices: Optional[int] = None
    #: Devices whose main RIB / FIB / graph pipeline is the base's own
    #: object — by construction, or where the output came out equal.
    #: Filled as the session's lazy stages run (0 until then).
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

    def record_routing(self, stages: RoutingStages, devices: int) -> None:
        """Note how the session's data plane was produced, here and in
        the ``delta.stage.<stage>.{reused,recomputed}`` counters."""
        metrics = obs.metrics()
        self.stages = {}
        for stage, reason in stages.recomputed.items():
            self.stages[stage] = f"recomputed ({reason})" if reason else "reused"
            metrics.inc(f"delta.stage.{stage}.{'recomputed' if reason else 'reused'}")
        self.fallback = any(stages.recomputed.values())
        self.dirty_devices = list(stages.rebuilt)
        self.reused_devices = devices - len(stages.rebuilt)
        metrics.inc("delta.dirty_devices", len(self.dirty_devices))
        metrics.inc("delta.reused_devices", self.reused_devices)


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
        changes = routing_changes(base.snapshot, new_session.snapshot, changed_hosts)
        info.seeds = sorted(set().union(*changes.values()))
        # Only what the base has computed by now: a delta never runs a
        # base stage for the sake of reusing it. A base that computed
        # nothing passes on what it would have taken from its own base,
        # under both edits' changes (a device deleted by one and added
        # back by the other is changed in every stage).
        if base._dataplane is not None:
            stages = BaseStages(base._dataplane, dict(base._fibs or {}), base._analyzer)
        else:
            stages = base._base
        new_session._base = stages._replace(
            edited=stages.edited | changed_hosts,
            changed={
                stage: set(stages.changed.get(stage, ())) | set(hosts)
                for stage, hosts in changes.items()
            },
        )
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
    shift on *any* byte change — including routing-inert edits — so
    changed-byte hosts are always invalidated here. The run registry
    survives invalidation: records describe past executions, and the
    skipped ones are carried forward under the new snapshot key by
    ``questions_for_delta`` because their answers are provably
    unchanged."""
    from repro.questions import coverage as qcov

    tracker = obs.coverage()
    # Scope rules: routing questions all rerun when some main RIB may
    # have changed — only a seed's can, or one downstream of a seed —
    # whatever the stages reused; config questions rerun exactly on
    # changed-byte hosts. A changed device *set* is unbounded: global
    # answers enumerate the device universe, so even an isolated new
    # host can grow every answer.
    unbounded = base.snapshot.devices.keys() != new_session.snapshot.devices.keys()
    affected, skipped = qcov.questions_for_delta(
        tracker,
        base.snapshot_key,
        new_session.snapshot_key,
        changed_hosts=changed,
        routing_changed=bool(info.seeds),
        everything=unbounded,
    )
    info.questions_affected = affected
    info.questions_skipped = skipped
    if changed:
        tracker.invalidate_hosts(changed)


def _record_metrics(info: DeltaInfo, devices: int) -> None:
    metrics = obs.metrics()
    metrics.inc("delta.runs")
    metrics.inc("delta.parse_memo_hits", info.parse_memo_hits)
    # Denominator of delta.reuse.{rib,fib,pipeline}, which the session's
    # stages count as they run.
    metrics.inc("delta.reuse.devices", devices)


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
