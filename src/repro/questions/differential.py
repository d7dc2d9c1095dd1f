"""Differential (snapshot-comparison) questions.

Proactive validation (§5.1) is fundamentally comparative: a candidate
change is judged by what it *changes*. These questions compare two
snapshots — typically "deployed" vs "candidate" — at the routing and
forwarding levels, surfacing exactly the collateral movement that the
paper's §5.1.2 anecdote describes (an engineer discovering that ten
devices, not two, needed updates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bdd.engine import FALSE
from repro.hdr.headerspace import PacketEncoder
from repro.hdr.packet import Packet
from repro.reachability.examples import default_preferences
from repro.reachability.graph import GraphNode
from repro.reachability.queries import SUCCESS_DISPOSITIONS, NetworkAnalyzer
from repro.routing.engine import DataPlane


@dataclass(frozen=True)
class RouteDiffRow:
    node: str
    change: str  # "added" | "removed"
    description: str


@dataclass
class RouteDiffAnswer:
    rows: List[RouteDiffRow]

    @property
    def affected_nodes(self) -> List[str]:
        return sorted({row.node for row in self.rows})

    def added(self) -> List[RouteDiffRow]:
        return [row for row in self.rows if row.change == "added"]

    def removed(self) -> List[RouteDiffRow]:
        return [row for row in self.rows if row.change == "removed"]


def compare_routes(before: DataPlane, after: DataPlane) -> RouteDiffAnswer:
    """Diff the main RIBs of two computed data planes. A node whose two
    RIBs are one object — a delta session takes the base's where its own
    came out equal — has no rows, and none of its routes is rendered."""
    rows: List[RouteDiffRow] = []
    nodes = sorted(set(before.nodes) | set(after.nodes))
    for node in nodes:
        before_routes: Set[str] = set()
        after_routes: Set[str] = set()
        if node in before.nodes and node in after.nodes:
            if before.main_rib(node) is after.main_rib(node):
                continue
        if node in before.nodes:
            before_routes = set(before.main_rib(node).rendered())
        if node in after.nodes:
            after_routes = set(after.main_rib(node).rendered())
        for description in sorted(after_routes - before_routes):
            rows.append(RouteDiffRow(node, "added", description))
        for description in sorted(before_routes - after_routes):
            rows.append(RouteDiffRow(node, "removed", description))
    return RouteDiffAnswer(rows=rows)


@dataclass
class ReachabilityDiffAnswer:
    """Flows that change fate between two snapshots, per source. Sets
    and examples are in **source coordinates**: headers as injected at
    the source, before any NAT on the way."""

    #: source -> set of flows that succeed after but not before.
    gained: Dict[GraphNode, int] = field(default_factory=dict)
    #: source -> set of flows that succeeded before but not after.
    lost: Dict[GraphNode, int] = field(default_factory=dict)
    gained_examples: Dict[GraphNode, Packet] = field(default_factory=dict)
    lost_examples: Dict[GraphNode, Packet] = field(default_factory=dict)

    @property
    def unchanged(self) -> bool:
        return not self.gained and not self.lost


def compare_reachability(
    before: NetworkAnalyzer,
    after: NetworkAnalyzer,
    sources: Sequence[Tuple[str, Optional[str]]],
    headerspace_bdd: int = 1,
) -> ReachabilityDiffAnswer:
    """Differential reachability: which flows gain or lose end-to-end
    success under the candidate change?

    Both analyzers must share a :class:`PacketEncoder` so their BDDs are
    comparable.
    """
    if before.encoder is not after.encoder:
        raise ValueError("analyzers must share one PacketEncoder")
    engine = before.encoder.engine
    answer = ReachabilityDiffAnswer()
    preferences = default_preferences(before.encoder)
    for location in sources:
        before_map = before.sources_at([location], headerspace_bdd)
        after_map = after.sources_at([location], headerspace_bdd)
        for source in sorted(
            set(before_map) | set(after_map), key=lambda n: tuple(map(str, n))
        ):
            old = before.fated(
                source, SUCCESS_DISPOSITIONS, before_map.get(source, FALSE)
            )
            new = after.fated(
                source, SUCCESS_DISPOSITIONS, after_map.get(source, FALSE)
            )
            gained = engine.diff(new, old)
            lost = engine.diff(old, new)
            if gained != FALSE:
                answer.gained[source] = gained
                answer.gained_examples[source] = before.encoder.example_packet(
                    gained, preferences
                )
            if lost != FALSE:
                answer.lost[source] = lost
                answer.lost_examples[source] = before.encoder.example_packet(
                    lost, preferences
                )
    return answer
