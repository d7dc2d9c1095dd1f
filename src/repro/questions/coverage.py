"""Coverage attribution: per-run coverage records, uncovered-stanza
risk, and coverage-guided question prioritization.

The Batfish paper's operational lesson is that operators trust analysis
they can *see the extent of* — a reachability suite that never exercises
an ACL line says nothing about that line (Xu et al., *Test Coverage for
Network Configurations*, who define coverage per configuration). So
coverage here belongs to the session it describes:

* **Records.** A question runs inside :func:`recording`, one
  :func:`repro.obs.coverage_scope`: the touches made in it (inline or on
  ``pmap`` workers) become a *record* — question, params, scope class,
  host footprint, vector — kept on the session it ran on
  (``Session.record_coverage``) and written to the trace as one
  ``coverage`` event. ``run_question``, the CI gate and library callers
  (``Session.question_scope``) all record through it; a lint run is one
  scope like any other question.
* **Prioritization.** Given a delta's changed files and whether its
  routing changed, :func:`prioritize_questions` splits the base
  session's records into *affected* (worth rerunning) and *skipped*
  (provably unchanged), ranked by overlap between each record's vector
  and the impacted hosts; :func:`questions_for_delta` gives the new
  session the skipped records. The delta engine surfaces this as
  ``DeltaInfo.questions_affected``.
* **Report.** :func:`uncovered_stanzas` reads one session's records
  over :func:`snapshot_structures` into an :class:`UncoveredReport`:
  per-kind and per-question ratios, and the structures no run touched,
  with file:line provenance and — for reachable uncovered ACL lines — a
  concrete witness packet from the line's BDD match set
  (:func:`witness_for_acl_line`). ``GET /snapshots/{name}/coverage``,
  the ``/metrics`` series, the CI gate and ``Session.coverage_report()``
  are all this report.

The module tail is the CI coverage gate's library (the command is
``python -m repro coverage``): it runs a fixed question battery over
registry networks and compares per-question coverage ratios against a
committed baseline; every discrepancy is a ``coverage``-category
:class:`repro.findings.Finding`.

Each record carries its question's scope class from the declaration in
:mod:`repro.questions.registry` (which says what the classes mean). A
record with no scope is ``global`` and one with no host footprint is
network-wide, so skipping is only ever an *optimization* of reruns,
never a soundness bet: anything the model cannot bound reruns.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro import obs
from repro.bdd.engine import FALSE
from repro.dataplane.acl import acl_line_spaces
from repro.findings import Finding, Location, RuleInfo, Severity
from repro.hdr import fields as hdr_fields
from repro.hdr.headerspace import PacketEncoder
from repro.obs.coverage import KINDS, CoverageKey, parse_key, render_key
from repro.questions.params import packet_to_json
from repro.questions.registry import Question
from repro.reachability.examples import default_preferences

RECORD_SCHEMA = "repro-coverage-record/v1"

#: Risk-ranked kind order for the uncovered report: an unexercised ACL
#: line is a live security hole, an untouched route-map clause a silent
#: policy gap, an untouched interface usually just an unused port.
RISK_ORDER = ("acl_line", "route_map_clause", "interface")


def canonical_params(params: Optional[Dict]) -> str:
    """Canonical rendering of question params — the params component of
    a record's key on its session. Matches the service's job-coalescing
    digest convention (sorted keys, compact)."""
    return json.dumps(params or {}, sort_keys=True, separators=(",", ":"))


def build_record(
    question: Question,
    params: Optional[Dict],
    args: Mapping[str, object],
    vector: Dict[CoverageKey, int],
) -> Dict:
    """One JSON-ready coverage record for a completed execution of
    ``question`` with raw ``params`` bound as ``args``.

    ``hosts`` is the record's footprint: the devices the execution
    touched plus any the params explicitly name. None (no touches, no
    named hosts) means the footprint is unknown and the question is
    treated as network-wide by prioritization."""
    touched_hosts = {key[1] for key in vector}
    hosts = sorted(touched_hosts | question.named_hosts(args).keys())
    return {
        "schema": RECORD_SCHEMA,
        "question": question.name,
        "params": dict(params or {}),
        "params_key": canonical_params(params),
        "scope": question.scope,
        "hosts": hosts if hosts else None,
        "vector": {
            render_key(key): count for key, count in sorted(vector.items())
        },
        "runs": 1,
    }


@contextlib.contextmanager
def recording(
    session,
    question: Question,
    params: Optional[Dict],
    args: Mapping[str, object],
) -> Iterator[None]:
    """Run a block as one execution of ``question`` with raw ``params``
    bound as ``args``: the touches made in it become one record on
    ``session`` and one ``coverage`` event in the trace. A block that
    raises records nothing."""
    with obs.coverage_scope() as vector:
        yield
    record = build_record(question, params, args, vector)
    session.record_coverage(record)
    obs.coverage_event(question.name, record["vector"])


# ----------------------------------------------------------------------
# Coverage-guided prioritization


def prioritize_questions(
    records: Dict[Tuple[str, str], Dict],
    changed_hosts: Iterable[str],
    routing_changed: bool,
    everything: bool = False,
) -> Tuple[List[Dict], List[Dict]]:
    """Split recorded questions into (affected, skipped) for a delta.

    ``changed_hosts`` are devices whose config bytes changed;
    ``routing_changed`` says the delta recomputed the data plane
    instead of reusing the base's; ``everything`` forces all questions
    affected (the device set changed, so per-host footprints bound
    nothing). Affected entries are ranked by overlap: the record's
    vector mass on impacted hosts plus its host intersection size, so
    the service can rerun the most-exposed questions first."""
    changed = set(changed_hosts)
    affected: List[Dict] = []
    skipped: List[Dict] = []
    for (question, _params_key), record in sorted(records.items()):
        scope = record.get("scope", "global")
        hosts = record.get("hosts")
        if scope == "config" or (scope == "routing" and not routing_changed):
            impact = changed
        else:
            impact = None  # global, or routing recomputed: always affected
        entry = {
            "question": question,
            "params": record.get("params") or {},
            "scope": scope,
            "overlap": 0,
        }
        if everything or impact is None or hosts is None or set(hosts) & impact:
            entry["overlap"] = _overlap(record, impact)
            affected.append(entry)
        else:
            skipped.append(entry)
    affected.sort(key=lambda e: (-e["overlap"], e["question"]))
    skipped.sort(key=lambda e: e["question"])
    return affected, skipped


def _overlap(record: Dict, impact: Optional[Set[str]]) -> int:
    """Vector mass on impacted hosts + host-intersection size (1 floor
    so an affected question never ranks at zero)."""
    impact_hosts = set(record.get("hosts") or [])
    if impact is not None:
        impact_hosts &= impact
    score = len(impact_hosts)
    for rendered, count in (record.get("vector") or {}).items():
        key = parse_key(rendered)
        if key is None:
            continue
        if impact is None or key[1] in impact:
            score += int(count)
    return max(score, 1)


def questions_for_delta(
    base,
    new_session,
    changed_hosts: Iterable[str],
    routing_changed: bool,
    everything: bool = False,
) -> Tuple[List[Dict], List[Dict]]:
    """The delta engine's entry point: prioritize the base session's
    records against the delta's impact, and give ``new_session`` every
    *skipped* record — its answer is unchanged, so the record still
    describes the new snapshot and chains across further deltas."""
    records = base.coverage_records()
    affected, skipped = prioritize_questions(
        records, changed_hosts, routing_changed, everything=everything
    )
    for entry in skipped:
        new_session.record_coverage(
            records[(entry["question"], canonical_params(entry["params"]))]
        )
    return affected, skipped


# ----------------------------------------------------------------------
# Structure inventory


def snapshot_structures(snapshot) -> List[Tuple[CoverageKey, str, str, int]]:
    """Every coverable structure a snapshot defines:
    (key, label, source_file, source_line)."""
    out: List[Tuple[CoverageKey, str, str, int]] = []
    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        for iface_name in sorted(device.interfaces):
            iface = device.interfaces[iface_name]
            out.append(
                (
                    ("interface", hostname, iface_name, None),
                    f"{hostname}:{iface_name}",
                    iface.source_file,
                    iface.source_line,
                )
            )
        for acl_name in sorted(device.acls):
            for index, line in enumerate(device.acls[acl_name].lines):
                out.append(
                    (
                        ("acl_line", hostname, acl_name, index),
                        f"{hostname}:{acl_name}#{index}"
                        + (f" ({line.name})" if line.name else ""),
                        line.source_file,
                        line.source_line,
                    )
                )
        for rm_name in sorted(device.route_maps):
            for clause in device.route_maps[rm_name].sorted_clauses():
                out.append(
                    (
                        ("route_map_clause", hostname, rm_name, clause.seq),
                        f"{hostname}:{rm_name} seq {clause.seq}",
                        clause.source_file,
                        clause.source_line,
                    )
                )
    return out


# ----------------------------------------------------------------------
# Uncovered-stanza risk report + witness packets


@dataclass
class UncoveredStanza:
    """One config structure no question or lint rule touched."""

    kind: str
    hostname: str
    name: str
    index: Optional[int]
    label: str
    source_file: str = ""
    source_line: int = 0
    #: For ACL lines: whether any packet can reach the line (False =
    #: shadowed — dead config, a lint matter rather than a blind spot).
    reachable: Optional[bool] = None
    #: Suggested probe: ``{"packet": {...}, "inject": {...}|None}``.
    witness: Optional[Dict] = None

    def to_json(self) -> Dict:
        doc: Dict = {
            "kind": self.kind,
            "hostname": self.hostname,
            "name": self.name,
            "index": self.index,
            "label": self.label,
        }
        if self.source_file:
            doc["source"] = f"{self.source_file}:{self.source_line}"
        if self.reachable is not None:
            doc["reachable"] = self.reachable
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


@dataclass
class UncoveredReport:
    """One session's coverage: per-kind totals, the distinct structures
    its records touched (all of them, and per question), and the
    untouched ones ranked by kind risk."""

    totals: Dict[str, int]
    touched: Dict[str, int]
    #: ``{question: {kind: distinct structures its runs touched}}``; a
    #: question whose runs touched nothing has no row.
    questions: Dict[str, Dict[str, int]]
    stanzas: List[UncoveredStanza]

    @property
    def uncovered_total(self) -> int:
        return len(self.stanzas)

    def by_kind(self) -> Dict[str, List[UncoveredStanza]]:
        grouped: Dict[str, List[UncoveredStanza]] = {
            kind: [] for kind in RISK_ORDER
        }
        for stanza in self.stanzas:
            grouped.setdefault(stanza.kind, []).append(stanza)
        return grouped

    def matrix(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per-question, per-kind coverage against the snapshot's totals:
        ``{question: {kind: {touched, total, ratio}}}``."""
        return {
            question: {
                kind: {
                    "touched": kinds[kind],
                    "total": self.totals[kind],
                    "ratio": (
                        round(kinds[kind] / self.totals[kind], 6)
                        if self.totals[kind]
                        else 0.0
                    ),
                }
                for kind in KINDS
            }
            for question, kinds in self.questions.items()
        }

    def to_json(self) -> Dict:
        return {
            "uncovered_total": self.uncovered_total,
            "totals": dict(self.totals),
            "touched": dict(self.touched),
            "stanzas": [stanza.to_json() for stanza in self.stanzas],
        }

    def describe(self, limit: int = 10) -> str:
        lines = [f"uncovered stanzas: {self.uncovered_total}"]
        for kind, group in self.by_kind().items():
            total = self.totals.get(kind, 0)
            lines.append(
                f"  {kind}: {len(group)} uncovered of {total}"
            )
            for stanza in group[:limit]:
                where = (
                    f" ({stanza.source_file}:{stanza.source_line})"
                    if stanza.source_file
                    else ""
                )
                lines.append(f"    {stanza.label}{where}")
            if len(group) > limit:
                lines.append(f"    ... and {len(group) - limit} more")
        return "\n".join(lines)


def _acl_bindings(device, acl_name: str) -> Optional[Dict]:
    """Where to inject a witness so the concrete engine evaluates the
    ACL: the first interface binding it as an ingress filter, else the
    first egress binding (annotated, since egress needs a forwarding
    path to reach it)."""
    for iface_name in sorted(device.interfaces):
        if device.interfaces[iface_name].incoming_acl == acl_name:
            return {
                "node": device.hostname,
                "interface": iface_name,
                "direction": "in",
            }
    for iface_name in sorted(device.interfaces):
        if device.interfaces[iface_name].outgoing_acl == acl_name:
            return {
                "node": device.hostname,
                "interface": iface_name,
                "direction": "out",
            }
    return None


def witness_for_acl_line(
    device, acl_name: str, index: int, encoder: Optional[PacketEncoder] = None
) -> Optional[Dict]:
    """A concrete probe that exercises exactly ``acl_name`` line
    ``index`` on ``device``: a satisfying packet of the line's
    *effective* match set (its space minus every earlier line's), so
    first-match semantics guarantee the probe matches this line and no
    earlier one. None when the line is shadowed (empty effective set)."""
    acl = device.acls.get(acl_name)
    if acl is None or not (0 <= index < len(acl.lines)):
        return None
    encoder = encoder or PacketEncoder()
    spaces = acl_line_spaces(acl, encoder)
    effective = spaces[index][1]
    if effective == FALSE:
        return None
    inject = _acl_bindings(device, acl_name)
    if inject is not None and inject["direction"] == "out":
        # An egress ACL is only evaluated for packets the FIB forwards
        # out that interface; steer the witness's destination into the
        # interface's connected subnet when the line's match set allows
        # it, so tracing the probe actually reaches the ACL.
        prefix = device.interfaces[inject["interface"]].prefix
        if prefix is not None:
            steered = encoder.engine.and_(
                effective, encoder.ip_in_prefix(hdr_fields.DST_IP, prefix)
            )
            if steered != FALSE:
                effective = steered
    packet = encoder.example_packet(
        effective, default_preferences(encoder)
    )
    if packet is None:
        return None
    return {
        "packet": packet_to_json(packet),
        "inject": inject,
    }


def uncovered_stanzas(session, witnesses: int = 0) -> UncoveredReport:
    """The blind-spot report: ``session``'s records read over its
    structures, untouched ones risk-ranked by kind. ``witnesses`` > 0
    additionally synthesizes up to that many probe packets for
    reachable uncovered ACL lines (witness generation builds BDD line
    spaces per ACL, so it is opt-in)."""
    by_question: Dict[str, Set[CoverageKey]] = {}
    for (question, _params_key), record in session.coverage_records().items():
        keys = by_question.setdefault(question, set())
        for rendered in record["vector"]:
            key = parse_key(rendered)
            if key is not None:
                keys.add(key)
    touched = set().union(*by_question.values())
    report = UncoveredReport(
        totals={kind: 0 for kind in KINDS},
        touched={kind: 0 for kind in KINDS},
        questions={
            question: {
                kind: sum(1 for key in keys if key[0] == kind)
                for kind in KINDS
            }
            for question, keys in sorted(by_question.items())
            if keys
        },
        stanzas=[],
    )
    ordered: Dict[str, List[UncoveredStanza]] = {kind: [] for kind in RISK_ORDER}
    for key, label, source_file, source_line in snapshot_structures(
        session.snapshot
    ):
        kind = key[0]
        report.totals[kind] += 1
        if key in touched:
            report.touched[kind] += 1
            continue
        ordered[kind].append(
            UncoveredStanza(
                kind=kind,
                hostname=key[1],
                name=key[2],
                index=key[3],
                label=label,
                source_file=source_file,
                source_line=source_line,
            )
        )
    budget = max(0, int(witnesses))
    if budget:
        encoder = PacketEncoder()
        for stanza in ordered["acl_line"]:
            if budget <= 0:
                break
            device = session.snapshot.device(stanza.hostname)
            witness = witness_for_acl_line(
                device, stanza.name, stanza.index, encoder
            )
            stanza.reachable = witness is not None
            if witness is not None:
                stanza.witness = witness
                budget -= 1
    for kind in RISK_ORDER:
        report.stanzas.extend(ordered[kind])
    return report


# ----------------------------------------------------------------------
# Service surfaces: coverage payload, Prometheus series


def coverage_payload(session, witnesses: int = 0) -> Dict:
    """The ``GET /snapshots/{name}/coverage`` body: the per-question
    attribution matrix, the session's records, and the uncovered-stanza
    list."""
    report = uncovered_stanzas(session, witnesses=witnesses)
    records = [
        {
            "question": record["question"],
            "params": record["params"],
            "scope": record["scope"],
            "hosts": record["hosts"],
            "touches": sum(record["vector"].values()),
            "runs": record["runs"],
        }
        for _key, record in sorted(session.coverage_records().items())
    ]
    return {
        "schema": "repro-coverage/v1",
        "snapshot_key": session.snapshot_key,
        "questions": report.matrix(),
        "records": records,
        "uncovered": report.to_json(),
    }


def prometheus_coverage(
    sessions: Mapping[str, object]
) -> Tuple[Dict[str, List[Tuple[Dict[str, str], float]]], int]:
    """Labeled gauge samples + the uncovered-stanza count for the
    ``/metrics`` exposition: ``coverage.ratio{snapshot, question, kind}``
    from each stored snapshot's own report, and the number of
    structures no run on their snapshot touched, summed over them."""
    samples: List[Tuple[Dict[str, str], float]] = []
    uncovered = 0
    for name, session in sorted(sessions.items()):
        report = uncovered_stanzas(session)
        uncovered += report.uncovered_total
        samples.extend(
            ({"snapshot": name, "question": question, "kind": kind}, cell["ratio"])
            for question, kinds in report.matrix().items()
            for kind, cell in kinds.items()
            if cell["total"]
        )
    return {"coverage.ratio": samples}, uncovered


# ----------------------------------------------------------------------
# CI coverage gate (the library behind ``python -m repro coverage``)

BASELINE_SCHEMA = "repro-coverage-baseline/v1"

GATE_TOOL = "repro-coverage-gate"
GATE_RULE = RuleInfo(
    "coverage-drift",
    Severity.ERROR,
    "coverage",
    "Per-question coverage ratio differs from the committed baseline",
)


def gate_battery(spec, scale: int = 1) -> Dict[str, Dict[str, List[int]]]:
    """Run the gate's fixed question battery over one registry network
    and return ``{question: {kind: [touched, total]}}``.

    The battery is reachability (the data-plane workhorse) plus lint
    (which sweeps every ACL line and route-map clause through the BDD
    rules) — together they bound how much of each structure kind the
    shipped questions can see, which is the ratio the gate pins."""
    from repro.core.session import Session

    session = Session.from_texts(spec.generate(scale))
    with session.question_scope("reachability", None):
        session.reachability()
    with session.question_scope("lint", None):
        session.lint()
    return {
        question: {
            kind: [cell["touched"], cell["total"]]
            for kind, cell in kinds.items()
        }
        for question, kinds in uncovered_stanzas(session).matrix().items()
    }


def gate_run(
    specs: Iterable,
    scale: int = 1,
    verbose: bool = False,
) -> Dict[str, Dict[str, Dict[str, List[int]]]]:
    """The gate sweep: the battery on a fresh session per selected
    registry network."""
    results: Dict[str, Dict[str, Dict[str, List[int]]]] = {}
    for spec in specs:
        results[spec.name] = gate_battery(spec, scale)
        if verbose:
            summary = ", ".join(
                f"{q}:{cells['acl_line'][0]}/{cells['acl_line'][1]} acl"
                for q, cells in sorted(results[spec.name].items())
            )
            print(f"{spec.name}: {summary}", flush=True)
    return results


def gate_diff(baseline: Dict, current: Dict) -> List[Finding]:
    """Exact-match comparison; every discrepancy (regressed ratio,
    improved ratio, missing/new network or question) is drift — the
    baseline stays a faithful description or it fails."""
    drift: List[Finding] = []
    base_networks = baseline.get("networks", {})

    def drifted(network: str, message: str, **extra) -> None:
        drift.append(
            GATE_RULE.finding(
                message,
                location=Location(f"<{network}>"),
                network=network,
                **extra,
            )
        )

    for network in sorted(set(base_networks) | set(current)):
        base = base_networks.get(network)
        now = current.get(network)
        if base is None or now is None:
            side = "missing from baseline" if base is None else "not measured"
            drifted(network, f"network {network} {side}")
            continue
        for question in sorted(set(base) | set(now)):
            base_q = base.get(question, {})
            now_q = now.get(question, {})
            for kind in sorted(set(base_q) | set(now_q)):
                expected = base_q.get(kind)
                measured = now_q.get(kind)
                if list(expected or []) != list(measured or []):
                    drifted(
                        network,
                        f"{network}/{question}/{kind}: "
                        f"baseline {expected} != current {measured}",
                        question=question,
                        kind=kind,
                        baseline=tuple(expected or ()),
                        current=tuple(measured or ()),
                    )
    return drift
