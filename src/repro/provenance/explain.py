"""Assemble recorded provenance events into derivation trees.

Two builders:

* :func:`build_route_tree` — "why is this route in the FIB": joins the
  FIB entries and main-RIB best routes of a (node, prefix) pair with the
  recorded derivation events (protocol origin, neighbor, policy clause,
  convergence iteration) and the suppressed alternatives.
* :func:`build_flow_explanation` — "why was this packet
  forwarded/dropped": lifts the concrete traceroute engine's hop steps
  into a :class:`FlowExplanation`, rendering each ACL line walk and NAT
  rule walk from the decision the step kept.

Plus :func:`datalog_route_tree`, which renders the original Datalog
model's derivation of the same (node, prefix) pair from its fact base —
the second tree the differential fidelity check diffs against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.config.model import NatKind
from repro.hdr.ip import Prefix
from repro.provenance.model import (
    SUPPRESSING_ACTIONS,
    DerivationNode,
    DerivationTree,
    Flow,
    FlowExplanation,
    FlowHopExplanation,
    FlowPathExplanation,
    FlowStepExplanation,
    RouteEvent,
)
from repro.provenance.record import ProvenanceRecorder

if TYPE_CHECKING:
    from repro.traceroute.engine import AclDecision, NatDecision, TraceStep


def _normalize_prefix(prefix) -> str:
    if isinstance(prefix, str):
        return str(Prefix(prefix))
    return str(prefix)


def build_route_tree(
    recorder: ProvenanceRecorder,
    dataplane,
    fibs: Dict[str, object],
    node: str,
    prefix,
) -> DerivationTree:
    """The derivation tree of one (node, prefix) pair.

    Layout::

        node 10.0.2.0/24 @ edge
          fib: 10.0.2.0/24 -> eth1 via 10.0.12.2
            [fib] resolved: ...
          rib: static 10.0.2.0/24 via 10.0.12.2
            [static] installed: next hop 10.0.12.2 resolved via ...
            [main-rib] best: ...
          suppressed alternatives
            [bgp] suppressed: ...
    """
    prefix_str = _normalize_prefix(prefix)
    root = DerivationNode(f"route {prefix_str} @ {node}", kind="root")
    events = recorder.events_for(node, prefix_str)
    by_action: Dict[str, List[RouteEvent]] = {}
    for event in events:
        by_action.setdefault(event.action, []).append(event)

    # FIB entries for the exact prefix.
    fib = fibs.get(node)
    fib_entries = []
    if fib is not None:
        for entry_prefix, entries in fib.entries():
            if str(entry_prefix) == prefix_str:
                fib_entries = entries
                break
    for entry in fib_entries:
        entry_node = root.add(
            DerivationNode(f"fib: {entry.describe()}", kind="fib")
        )
        for event in events:
            if event.protocol == "fib":
                entry_node.add(
                    DerivationNode(event.describe(), kind="event")
                )

    # Main-RIB best routes with their protocol derivations.
    state = dataplane.nodes.get(node)
    best_routes = (
        state.main_rib.best_routes(Prefix(prefix_str)) if state else []
    )
    for route in best_routes:
        protocol = route.protocol.value
        route_node = root.add(
            DerivationNode(f"rib: {route.describe()}", kind="rib")
        )
        for event in events:
            if event.protocol == protocol and event.action not in SUPPRESSING_ACTIONS:
                route_node.add(DerivationNode(event.describe(), kind="event"))
        for event in events:
            if event.protocol == "main-rib" and event.action not in SUPPRESSING_ACTIONS:
                route_node.add(DerivationNode(event.describe(), kind="event"))

    # Suppressed / displaced alternatives — the "why not" half.
    suppressed = [e for e in events if e.action in SUPPRESSING_ACTIONS]
    if suppressed:
        sup_node = root.add(
            DerivationNode("suppressed alternatives", kind="suppressed")
        )
        for event in suppressed:
            sup_node.add(DerivationNode(event.describe(), kind="event"))

    if not root.children and events:
        # No FIB/RIB entry but we do know why: surface the raw events.
        for event in events:
            root.add(DerivationNode(event.describe(), kind="event"))
    if not root.children:
        root.add(
            DerivationNode(
                "no route and no recorded derivation (prefix never "
                "advertised, originated, or configured here)",
                kind="empty",
            )
        )
    return DerivationTree(node=node, prefix=prefix_str, root=root, events=events)


def acl_walk(decision: "AclDecision") -> Tuple[str, ...]:
    """The first-match walk that reached ``decision``: every line before
    the deciding one did not match (first match wins), so the walk is
    exact without evaluating any line again."""
    acl, result = decision
    decided = len(acl.lines) if result.line_index is None else result.line_index
    walk = [
        f"line {index} [{_acl_label(acl.lines[index], index)}]: no match"
        for index in range(decided)
    ]
    if result.line is None:
        walk.append("end of ACL: implicit deny")
    else:
        label = _acl_label(result.line, decided)
        walk.append(f"line {decided} [{label}]: matched -> {result.action.value}")
    return tuple(walk)


def _acl_label(line, index: int) -> str:
    return line.name or f"{line.action.value} line {index}"


def nat_walk(decision: "NatDecision") -> Tuple[str, ...]:
    """The rule walk of a NAT rewrite: the rules before the one that
    matched did not match."""
    rules, matched, before, after = decision
    walk = [
        f"nat {_nat_label(rules[index], index)}: no match"
        for index in range(matched)
    ]
    rule = rules[matched]
    changed = (
        f"dst {before.dst_ip} -> {after.dst_ip}"
        if rule.kind is NatKind.DESTINATION
        else f"src {before.src_ip} -> {after.src_ip}"
    )
    walk.append(f"nat {_nat_label(rule, matched)}: matched, rewrote {changed}")
    return tuple(walk)


def _nat_label(rule, index: int) -> str:
    return f"{rule.kind.value} rule {index} pool {rule.pool}"


def _step_walk(step: "TraceStep") -> Tuple[str, ...]:
    """The evaluation detail of one step, rendered from its decision."""
    decision = step.decision
    if decision is None:
        return ()
    if step.kind in ("acl", "zone"):
        return acl_walk(decision)
    if step.kind == "nat":
        return nat_walk(decision)
    if step.kind == "fib" and decision.source_route is not None:
        return (f"route: {decision.source_route.describe()}",)
    return ()


def build_flow_explanation(flow: Flow, traces: Sequence) -> FlowExplanation:
    """Lift traceroute ``Trace`` objects into a :class:`FlowExplanation`,
    rendering each step's walk (``lines``) from the decision the trace
    kept: the ACL line or NAT rule that matched, the FIB entry's route.
    """
    explanation = FlowExplanation(flow=flow)
    for trace in traces:
        path = FlowPathExplanation(disposition=trace.disposition.value)
        for hop in trace.hops:
            hop_explanation = FlowHopExplanation(node=hop.node)
            for step in hop.steps:
                hop_explanation.steps.append(
                    FlowStepExplanation(
                        kind=step.kind,
                        detail=step.detail,
                        lines=_step_walk(step),
                    )
                )
            path.hops.append(hop_explanation)
        explanation.paths.append(path)
    return explanation


# ----------------------------------------------------------------------
# Datalog-side derivation trees (for the differential fidelity check)


def datalog_route_tree(datalog_dataplane, node: str, prefix) -> DerivationTree:
    """Render the original Datalog model's derivation of (node, prefix).

    The Datalog engine retains every derived fact (Lesson 1), so the
    tree is read straight out of the fact base: the ``Forward``/``Drop``
    conclusion on top, the supporting ``BestOspf`` / ``OspfRoute`` /
    ``StaticRoute`` / ``ConnectedRoute`` facts underneath.
    """
    prefix_str = _normalize_prefix(prefix)
    engine = datalog_dataplane.engine
    root = DerivationNode(f"route {prefix_str} @ {node} (datalog)", kind="root")
    events: List[RouteEvent] = []
    seq = 0

    def record(action: str, detail: str, protocol: str = "datalog") -> RouteEvent:
        nonlocal seq
        seq += 1
        event = RouteEvent(
            seq=seq, node=node, prefix=prefix_str, protocol=protocol,
            action=action, detail=detail,
        )
        events.append(event)
        return event

    def matches(terms, index_prefix: int) -> bool:
        return str(terms[0]) == node and str(terms[index_prefix]) == prefix_str

    for terms in sorted(engine.facts("Forward"), key=repr):
        if matches(terms, 1):
            conclusion = root.add(
                DerivationNode(
                    f"Forward({node}, {prefix_str}, {terms[2]})", kind="fib"
                )
            )
            record("installed", f"Forward via {terms[2]}")
            for sub in sorted(engine.facts("StaticForward"), key=repr):
                if matches(sub, 1):
                    conclusion.add(
                        DerivationNode(
                            f"StaticForward({node}, {prefix_str}, {sub[2]})",
                            kind="event",
                        )
                    )
                    record("installed", f"StaticForward via {sub[2]}", "static")
            for sub in sorted(engine.facts("BestOspf"), key=repr):
                if matches(sub, 1):
                    conclusion.add(
                        DerivationNode(
                            f"BestOspf({node}, {prefix_str}, cost {sub[2]}, "
                            f"via {sub[3]})",
                            kind="event",
                        )
                    )
                    record(
                        "installed",
                        f"BestOspf cost {sub[2]} via {sub[3]}",
                        "ospf",
                    )
    for terms in sorted(engine.facts("Drop"), key=repr):
        if matches(terms, 1):
            root.add(DerivationNode(f"Drop({node}, {prefix_str})", kind="fib"))
            record("dropped", "NullRoute")
    # Retained sub-optimal intermediates (what the imperative engine
    # never materializes) — shown so diffs point at the modeling gap.
    retained = [
        terms
        for terms in sorted(engine.facts("OspfRoute"), key=repr)
        if matches(terms, 1)
    ]
    if retained:
        sub = root.add(
            DerivationNode(
                f"retained intermediates ({len(retained)} OspfRoute facts)",
                kind="suppressed",
            )
        )
        for terms in retained[:8]:
            sub.add(
                DerivationNode(
                    f"OspfRoute({node}, {prefix_str}, cost {terms[2]}, "
                    f"via {terms[3]})",
                    kind="event",
                )
            )
    if not root.children:
        root.add(
            DerivationNode("no Forward/Drop fact derived", kind="empty")
        )
    return DerivationTree(node=node, prefix=prefix_str, root=root, events=events)
