"""Pruning: decide scenario verdicts without simulating.

Plankton's observation (PAPERS.md) is that the k-failure scenario space
holds equivalence classes whose members provably share a verdict. Two
classes are exploited here, each sound by what the edit itself says
(DESIGN.md, "Sweep pruning soundness"):

1. **cut** — the scenario's shutdowns physically sever the source from
   every owner of the destination in the L3 graph. No forwarding path
   can reach an owner, so ACCEPTED is impossible: the property is
   broken, without simulating. Cuts are monotone (supersets of a cut
   are cuts), which is where the savings at k=2 come from.
2. **duplicate** — the scenario's op map (:meth:`Scenario.op_map`)
   equals an earlier scenario's, so both render byte-equal
   ``changed_configs``: the same snapshot, the same verdict. This is
   what collapses {flap u, flap v} onto the link element u--v, and a
   node failure onto the set of its flaps.

Everything else is **evaluate**: materialize the edit and run it
through the delta engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.hdr.ip import Ip
from repro.routing.topology import InterfaceId, build_layer3_topology
from repro.sweep.scenarios import (
    ReachabilityProperty,
    Scenario,
    render_scenario_edits,
)

#: Plan-entry statuses.
EVALUATE = "evaluate"
PRUNED_CUT = "pruned-cut"
PRUNED_DUPLICATE = "pruned-duplicate"


@dataclass
class PlanEntry:
    """One scenario's disposition after pruning."""

    scenario: Scenario
    status: str
    #: For duplicate entries: the id of the first scenario with the same
    #: op map, whose verdict this one shares.
    representative: Optional[str] = None
    #: For evaluate entries: filename -> new text.
    changed_configs: Optional[Dict[str, str]] = None


@dataclass
class SweepPlan:
    """The pruned execution plan for one sweep."""

    entries: List[PlanEntry]

    def counts(self) -> Dict[str, int]:
        out = {EVALUATE: 0, PRUNED_CUT: 0, PRUNED_DUPLICATE: 0}
        for entry in self.entries:
            out[entry.status] += 1
        return out


class CutChecker:
    """Host-level reachability over the base L3 graph minus a scenario's
    shut interfaces."""

    def __init__(self, snapshot, prop: ReachabilityProperty):
        topology = build_layer3_topology(snapshot)
        #: Undirected interface-pair edges of the base topology.
        self._links: List[Tuple[InterfaceId, InterfaceId]] = sorted(
            {tuple(sorted((e.tail, e.head))) for e in topology.edges()}
        )
        self._src = prop.src_node
        dst = Ip(prop.dst_ip)
        #: Base-snapshot owners of the destination address.
        self._owners: Set[str] = {
            hostname
            for hostname in snapshot.hostnames()
            for _name, address, _len in snapshot.device(hostname).interface_ips()
            if address == dst
        }

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


def plan_sweep(
    snapshot,
    configs: Dict[str, str],
    scenarios: Sequence[Scenario],
    prop: ReachabilityProperty,
) -> SweepPlan:
    """Classify every scenario, in order, into a :class:`SweepPlan`.

    Scenarios arrive sorted by (size, id), so a duplicate's
    representative is always the smallest member of its class. Equal op
    maps shut equal interfaces, so a class is cut as a whole and only
    evaluated scenarios ever represent one.
    """
    cuts = CutChecker(snapshot, prop)
    first: Dict[Tuple, str] = {}
    entries: List[PlanEntry] = []
    for scenario in scenarios:
        shut = {
            iid
            for element in scenario.elements
            for iid in element.shut_interfaces()
        }
        if cuts.severed(shut):
            entries.append(PlanEntry(scenario=scenario, status=PRUNED_CUT))
            continue
        key = tuple(sorted(scenario.op_map().items()))
        representative = first.setdefault(key, scenario.scenario_id)
        if representative != scenario.scenario_id:
            entries.append(
                PlanEntry(
                    scenario=scenario,
                    status=PRUNED_DUPLICATE,
                    representative=representative,
                )
            )
            continue
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
