"""Equivalence-class pruning: decide scenario verdicts without simulating.

Plankton's observation (PAPERS.md) is that the k-failure scenario space
is dominated by equivalence classes — most members provably share a
verdict with one representative. Three classes are exploited here, each
with a soundness argument spelled out in DESIGN.md ("Sweep pruning
soundness"):

1. **disconnected** — every host the scenario touches lies outside the
   property's *scope* (the influence-graph components containing the
   source and every owner of the destination address). The influence
   graph unions L3 adjacency, candidate-BGP-session edges, and
   same-address ownership coupling (duplicate IPs can re-target a BGP
   session when an owner's interface dies, so co-owners are coupled
   even without a link). Nothing inside the scope changes config or
   state, so the verdict is the base verdict.
2. **cut** — the scenario's shutdowns physically sever the source from
   every owner of the destination in the L3 graph. No forwarding path
   can reach an owner, so ACCEPTED is impossible: the property is
   broken, without simulating. Cuts are monotone (supersets of a cut
   are cuts), which is where the quadratic savings at k=2 comes from.
3. **fingerprint** — the scenario's per-host routing-fingerprint delta
   equals that of an already-evaluated scenario. Every operation the
   sweep emits flips only fingerprint-covered fields (interface
   ``enabled``, ``ospf_passive``), so equal deltas mean equal parsed
   snapshots — the verdict (indeed the whole trace) is the
   representative's. This is what collapses {flap u, flap v} onto the
   link element, and a node failure onto the set of its flaps.

Everything else is **evaluate**: materialize the edit and run it
through the delta engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.config.loader import parse_config_text
from repro.delta.fingerprint import protocol_edges, routing_fingerprint
from repro.hdr.ip import Ip
from repro.routing.topology import (
    InterfaceId,
    build_layer3_topology,
)
from repro.sweep.scenarios import (
    BASE_SCENARIO_ID,
    FailureOp,
    ReachabilityProperty,
    Scenario,
    host_files,
    _render_ops,
)

#: Plan-entry statuses.
EVALUATE = "evaluate"
PRUNED_DISCONNECTED = "pruned-disconnected"
PRUNED_CUT = "pruned-cut"
PRUNED_FINGERPRINT = "pruned-fingerprint"


@dataclass
class PlanEntry:
    """One scenario's disposition after pruning."""

    scenario: Scenario
    status: str
    #: For fingerprint-pruned entries: the scenario id whose verdict
    #: this one shares (``BASE_SCENARIO_ID`` when the edit collapses
    #: onto the unedited snapshot).
    representative: Optional[str] = None
    #: For evaluate entries: filename -> new text.
    changed_configs: Optional[Dict[str, str]] = None


@dataclass
class SweepPlan:
    """The pruned execution plan for one sweep."""

    entries: List[PlanEntry]
    #: Hosts inside the property's influence scope.
    scope_hosts: Set[str] = field(default_factory=set)
    #: Base-snapshot owners of the destination address.
    owners: Set[str] = field(default_factory=set)

    def counts(self) -> Dict[str, int]:
        out = {
            EVALUATE: 0,
            PRUNED_DISCONNECTED: 0,
            PRUNED_CUT: 0,
            PRUNED_FINGERPRINT: 0,
        }
        for entry in self.entries:
            out[entry.status] += 1
        return out


# ----------------------------------------------------------------------
# Influence graph and scope


def _components(hosts: Sequence[str], edges: Set[Tuple[str, str]]) -> Dict[str, int]:
    """Connected-component labels over an undirected host graph."""
    adjacency: Dict[str, Set[str]] = {host: set() for host in hosts}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    label: Dict[str, int] = {}
    current = 0
    for host in sorted(adjacency):
        if host in label:
            continue
        frontier = [host]
        label[host] = current
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency[node]:
                if neighbor not in label:
                    label[neighbor] = current
                    frontier.append(neighbor)
        current += 1
    return label


def influence_edges(snapshot) -> Set[Tuple[str, str]]:
    """Undirected host edges along which a config change anywhere on one
    side could alter routing or forwarding on the other: L3 adjacency,
    protocol edges (OSPF + candidate BGP sessions), and same-address
    ownership coupling (including shut interfaces — a failure elsewhere
    can promote them in session resolution races)."""
    edges: Set[Tuple[str, str]] = set()
    topology = build_layer3_topology(snapshot)
    for edge in topology.edges():
        a, b = edge.tail.node, edge.head.node
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edges |= protocol_edges(snapshot)
    owners_by_ip: Dict[Ip, Set[str]] = {}
    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        for iface in device.interfaces.values():
            if iface.address is not None:
                owners_by_ip.setdefault(iface.address, set()).add(hostname)
    for ip, owners in owners_by_ip.items():
        ordered = sorted(owners)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                edges.add((a, b))
    return edges


def property_scope(
    snapshot, prop: ReachabilityProperty
) -> Tuple[Set[str], Set[str]]:
    """(scope_hosts, owners): the union of influence components holding
    the source and every enabled owner of the destination address."""
    dst = Ip(prop.dst_ip)
    owners = {
        hostname
        for hostname in snapshot.hostnames()
        for _name, address, _len in snapshot.device(hostname).interface_ips()
        if address == dst
    }
    edges = influence_edges(snapshot)
    labels = _components(snapshot.hostnames(), edges)
    wanted = {labels[h] for h in owners | {prop.src_node} if h in labels}
    scope = {host for host, comp in labels.items() if comp in wanted}
    # A source absent from the snapshot would fail at evaluation time;
    # keep it in scope so no scenario is pruned to a stale base verdict.
    scope.add(prop.src_node)
    return scope, owners


# ----------------------------------------------------------------------
# Physical-cut check


class CutChecker:
    """Host-level reachability over the base L3 graph minus a scenario's
    shut interfaces."""

    def __init__(self, snapshot, prop: ReachabilityProperty, owners: Set[str]):
        topology = build_layer3_topology(snapshot)
        #: Undirected interface-pair edges of the base topology.
        self._links: List[Tuple[InterfaceId, InterfaceId]] = sorted(
            {tuple(sorted((e.tail, e.head))) for e in topology.edges()}
        )
        self._src = prop.src_node
        self._owners = owners

    def severed(self, shut: Set[InterfaceId]) -> bool:
        """True when no owner of the destination is reachable from the
        source over links whose endpoints both survived. Only meaningful
        when owners exist (an unowned address can never be ACCEPTED, but
        that verdict comes from the base evaluation, not from here)."""
        if not self._owners:
            return False
        if self._src in self._owners:
            return False
        adjacency: Dict[str, Set[str]] = {}
        for a, b in self._links:
            if a in shut or b in shut:
                continue
            adjacency.setdefault(a.node, set()).add(b.node)
            adjacency.setdefault(b.node, set()).add(a.node)
        seen = {self._src}
        frontier = [self._src]
        while frontier:
            node = frontier.pop()
            if node in self._owners:
                return False
            for neighbor in adjacency.get(node, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return not (seen & self._owners)


# ----------------------------------------------------------------------
# Fingerprint memo


class FingerprintMemo:
    """Per-(host, op-set) routing fingerprints, computed by parsing just
    the edited file (not the whole snapshot) and memoized across the
    sweep — the cheap oracle behind fingerprint-class deduplication."""

    def __init__(self, snapshot, configs: Dict[str, str]):
        self._snapshot = snapshot
        self._configs = configs
        self._files = host_files(snapshot)
        self._base: Dict[str, str] = {}
        self._edited: Dict[Tuple[str, Tuple[FailureOp, ...]], str] = {}
        self.parses = 0

    def base_fingerprint(self, host: str) -> str:
        fp = self._base.get(host)
        if fp is None:
            fp = self._base[host] = routing_fingerprint(
                self._snapshot.device(host)
            )
        return fp

    def edited_fingerprint(self, host: str, ops: Tuple[FailureOp, ...]) -> str:
        key = (host, ops)
        fp = self._edited.get(key)
        if fp is None:
            filename = self._files[host]
            text = _render_ops(self._configs[filename], ops)
            device, _warnings = parse_config_text(text, filename)
            self.parses += 1
            fp = self._edited[key] = routing_fingerprint(device)
        return fp

    def delta_key(self, scenario: Scenario) -> FrozenSet[Tuple[str, str]]:
        """The scenario's fingerprint delta: {(host, new_fp)} for every
        touched host whose fingerprint actually moved. Equal keys ⇒
        identical parsed snapshots (see module docstring)."""
        delta: Set[Tuple[str, str]] = set()
        for host, ops in scenario.op_map().items():
            new_fp = self.edited_fingerprint(host, ops)
            if new_fp != self.base_fingerprint(host):
                delta.add((host, new_fp))
        return frozenset(delta)


# ----------------------------------------------------------------------
# Planning


def plan_sweep(
    snapshot,
    configs: Dict[str, str],
    scenarios: Sequence[Scenario],
    prop: ReachabilityProperty,
    prune: bool = True,
) -> SweepPlan:
    """Classify every scenario, in order, into a :class:`SweepPlan`.

    Order matters for fingerprint pruning: scenarios arrive sorted by
    (size, id), so representatives are always the smallest member of
    their equivalence class.
    """
    from repro.sweep.scenarios import render_scenario_edits

    entries: List[PlanEntry] = []
    if not prune:
        for scenario in scenarios:
            entries.append(
                PlanEntry(
                    scenario=scenario,
                    status=EVALUATE,
                    changed_configs=render_scenario_edits(
                        snapshot, configs, scenario
                    ),
                )
            )
        return SweepPlan(entries=entries)

    scope, owners = property_scope(snapshot, prop)
    cuts = CutChecker(snapshot, prop, owners)
    memo = FingerprintMemo(snapshot, configs)
    seen: Dict[FrozenSet[Tuple[str, str]], str] = {}
    for scenario in scenarios:
        touched = set(scenario.touched_hosts())
        if not touched & scope:
            entries.append(
                PlanEntry(scenario=scenario, status=PRUNED_DISCONNECTED)
            )
            continue
        shut = {
            iid
            for element in scenario.elements
            for iid in element.shut_interfaces()
        }
        if cuts.severed(shut):
            entries.append(PlanEntry(scenario=scenario, status=PRUNED_CUT))
            continue
        delta = memo.delta_key(scenario)
        if not delta:
            entries.append(
                PlanEntry(
                    scenario=scenario,
                    status=PRUNED_FINGERPRINT,
                    representative=BASE_SCENARIO_ID,
                )
            )
            continue
        representative = seen.get(delta)
        if representative is not None:
            entries.append(
                PlanEntry(
                    scenario=scenario,
                    status=PRUNED_FINGERPRINT,
                    representative=representative,
                )
            )
            continue
        seen[delta] = scenario.scenario_id
        entries.append(
            PlanEntry(
                scenario=scenario,
                status=EVALUATE,
                changed_configs=render_scenario_edits(
                    snapshot, configs, scenario
                ),
            )
        )
    return SweepPlan(entries=entries, scope_hosts=scope, owners=owners)
