"""Delta analysis: a session for an edited snapshot that takes what
its base computed wherever its own output equals it.

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
2. Then each stage of the session's table (``repro.core.session.STAGES``)
   that takes from the base does so where its output equals the base's:
   the data plane takes each routing stage whose projections, and
   whose computation from or reads of the main RIBs, are unchanged
   (``compute_dataplane(base=…)``) and each main RIB with equal best
   routes; the FIBs and the graph pipelines follow by identity
   (DESIGN.md, "Reuse at stage boundaries"), and the analyzer is the
   base's own where no FIB, link or edited device's lint projection
   moved. Each reports what it took through :meth:`DeltaInfo.record`:
   a row of ``DeltaInfo.stages`` ("reused" or "recomputed (why)") and
   its counts of ``DeltaInfo.reused``. The lint stage is carried at
   ``delta()`` time, where the base has one and no edited device's lint
   projection moved.

Reuse is exact. Each stage is deterministic (coloring + logical clocks,
§4.1.2) and consumes only its projections and what it computed from or
read of the main RIBs, so with those equal it reproduces the base run's
output byte for byte. ``validate=True`` / ``REPRO_DELTA_VALIDATE=1``
checks the parsed snapshot, FIBs and forwarding graph against a
cache-less from-scratch session of the same texts, whatever was reused.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro import obs
from repro.config.loader import load_snapshot_from_texts, parses_from_base
from repro.provenance import DerivationNode, DerivationTree, first_divergence
from repro.reachability.graph import Constraint


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
    #: What each stage took from the base, a row per stage as it is
    #: built: "reused" or "recomputed (why)". ``igp`` and ``bgp`` come
    #: with the data plane, ``fibs`` and ``analyzer`` where the base
    #: offered its own, ``lint`` at ``delta()`` time where the base had
    #: one.
    stages: Dict[str, str] = field(default_factory=dict)
    #: Some routing stage was recomputed; None until the data plane is.
    fallback: Optional[bool] = None
    #: Devices whose main RIB was rebuilt, and how many kept the base's.
    dirty_devices: Optional[List[str]] = None
    reused_devices: Optional[int] = None
    #: Devices whose main RIB (``rib``), FIB (``fib``) or graph pipeline
    #: (``pipeline``) is the base's own object, and the graph segments
    #: built anew whose destination labels were grafted onto the base's
    #: (``graft``); each counted as its session's stage is built.
    reused: Dict[str, int] = field(default_factory=dict)
    #: Coverage-guided prioritization (repro.questions.coverage): the
    #: base session's records whose coverage vectors overlap this
    #: delta's impact set, ranked most-exposed first, and the ones whose
    #: footprint provably misses it (their base answers still hold).
    #: Both empty when no question was recorded on the base session.
    questions_affected: List[Dict] = field(default_factory=list)
    questions_skipped: List[Dict] = field(default_factory=list)

    def to_json(self) -> Dict:
        return asdict(self)

    def record(
        self, stages: Mapping[str, str] = {}, reused: Mapping[str, int] = {}, **fields
    ) -> None:
        """The one path by which a delta, and then each stage its session
        builds, reports what it took from the base: each row of
        ``stages`` adds ``delta.stage.<stage>.<reused|recomputed>``, each
        count of ``reused`` adds ``delta.reuse.<key>``, and ``fields``
        are set as given."""
        vars(self).update(fields)
        for stage, outcome in stages.items():
            self.stages[stage] = outcome
            obs.add(f"delta.stage.{stage}.{outcome.split()[0]}")
        for key, count in reused.items():
            self.reused[key] = count
            obs.add(f"delta.reuse.{key}", count)


def validate_enabled() -> bool:
    """Whether ``REPRO_DELTA_VALIDATE`` requests differential checking."""
    value = os.environ.get("REPRO_DELTA_VALIDATE", "").strip().lower()
    return value not in ("", "0", "false", "no")


def delta_session(base, changed_configs: Dict[str, Optional[str]], validate=None):
    """Implementation behind :meth:`repro.core.session.Session.delta`."""
    from repro.core.session import Session

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
    with obs.phase("delta", changed=len(changed_files)):
        parsed = parses_from_base(new_configs, base._configs, base.snapshot)
        info = DeltaInfo(sorted(changed_files), parse_memo_hits=len(parsed))
        # No cache: the session's key (from its texts) never repeats.
        new_session = Session(
            load_snapshot_from_texts(new_configs, parsed=parsed),
            settings=base.settings,
            semantics=base.semantics,
        )
        new_session._configs = new_configs
        new_session.delta_info = info
        # Devices whose file changed bytes, on either side of a rename or
        # delete.
        changed_hosts = {
            hostname
            for filename in changed_files
            for hostname in (
                base.snapshot.sources.get(filename),
                new_session.snapshot.sources.get(filename),
            )
            if hostname is not None
        }
        changes = new_session._take_from(base, changed_hosts)
        info.seeds = sorted(set().union(*changes.values()))
        _prioritize_questions(base, new_session, info, changed_hosts)
        obs.add("delta.runs")
        obs.add("delta.reuse.devices", len(new_session.snapshot.devices))
        obs.add("delta.parse_memo_hits", len(parsed))
        if validate or (validate is None and validate_enabled()):
            _validate(new_session)
            info.validated = True
    return new_session


def _prioritize_questions(
    base, new_session, info: DeltaInfo, changed: Set[str]
) -> None:
    """Rank the base session's coverage records against this delta's
    impact set; the new session starts with the skipped ones, whose
    answers are provably unchanged, and no other."""
    from repro.questions import coverage as qcov

    # Scope rules: routing questions all rerun when some main RIB may
    # have changed — only a seed's can, or one downstream of a seed —
    # whatever the stages reused; config questions rerun exactly on
    # changed-byte hosts. A changed device *set* is unbounded: global
    # answers enumerate the device universe, so even an isolated new
    # host can grow every answer.
    unbounded = base.snapshot.devices.keys() != new_session.snapshot.devices.keys()
    info.questions_affected, info.questions_skipped = qcov.questions_for_delta(
        base,
        new_session,
        changed_hosts=changed,
        routing_changed=bool(info.seeds),
        everything=unbounded,
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
            obs.add("delta.validate.ok")
            return
    obs.add("delta.validate.mismatch")
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
    obs.add("delta.validate.mismatch")
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
        obs.add("delta.validate.mismatch")
        differing = [
            line[:3] for line in delta_graph + full_graph
            if line not in delta_graph or line not in full_graph
        ]
        raise DeltaValidationError(
            "delta session's forwarding graph differs from a from-scratch "
            f"analysis ({len(delta_graph)} vs {len(full_graph)} edges), "
            f"first at {differing[:3]}"
        )
