"""BDD dataflow propagation over the forwarding graph (§4.2.1).

"Following standard dataflow analysis, we start with the set of packets
of interest at the source and iteratively traverse edges in the graph to
update the set of packets that can reach each node, until we reach a
fixed point." Multipath routing is modeled inherently since all paths
are traversed.

:func:`propagate` walks either way: forward, the general engine;
backward, the single-destination optimization: "we walk the graph
backwards from the destination toward the sources ... it saves us from
walking the edges that do not lie on the destination's forwarding
tree."
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Tuple

from repro.bdd.engine import FALSE
from repro.hdr.headerspace import PacketEncoder
from repro.reachability.graph import ForwardingGraph, GraphNode

#: Times a node may leave the worklist before the walk is declared
#: unstable; a sound walk on a finite lattice never gets near it.
_MAX_VISITS = 10_000


def propagate(
    graph: ForwardingGraph,
    encoder: PacketEncoder,
    seeds: Dict[GraphNode, int],
    backward: bool = False,
) -> Dict[GraphNode, int]:
    """Fixed-point propagation from ``seeds`` (graph node -> initial
    packet set) over ``graph``, whose labels belong to ``encoder``.

    Forward, the result maps every node to the set of packets that can
    reach it; receivers union incoming sets, so everything reachable
    over any path is captured. Backward, it maps each node to the set
    of packets that, arriving at that node, can go on to reach a seed,
    and only edges on the seeds' (reverse) forwarding tree are walked.
    """
    engine = encoder.engine
    adjacent = graph.in_edges if backward else graph.out_edges
    reach: Dict[GraphNode, int] = {}
    worklist = deque()
    queued = set()
    for node, packet_set in sorted(seeds.items(), key=_node_key):
        if packet_set == FALSE:
            continue
        reach[node] = engine.or_(reach.get(node, FALSE), packet_set)
        if node not in queued:
            worklist.append(node)
            queued.add(node)
    visits: Dict[GraphNode, int] = {}
    while worklist:
        node = worklist.popleft()
        queued.discard(node)
        visits[node] = visits.get(node, 0) + 1
        if visits[node] > _MAX_VISITS:
            raise RuntimeError(f"propagation did not stabilize at {node}")
        current = reach.get(node, FALSE)
        if current == FALSE:
            continue
        for edge in adjacent(node):
            if backward:
                moved, reached = edge.fn.backward(encoder, current), edge.tail
            else:
                moved, reached = edge.fn.forward(encoder, current), edge.head
            if moved == FALSE:
                continue
            existing = reach.get(reached, FALSE)
            merged = engine.or_(existing, moved)
            if merged != existing:
                reach[reached] = merged
                if reached not in queued:
                    worklist.append(reached)
                    queued.add(reached)
    return reach


def _node_key(item: Tuple[GraphNode, int]):
    return tuple(str(part) for part in item[0])
