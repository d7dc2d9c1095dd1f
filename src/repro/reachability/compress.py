"""Graph compression (§4.2.3).

"Many nodes in the dataflow graph are simple, i.e., they have only one
incoming or outgoing edge ... We implemented an optimization that
identifies and deletes these" — contracting chains of pass-through nodes
and composing their edge functions, which removes the repeated BDD work
of walking trivial hops during propagation.

A node is contractible when it has exactly one incoming and one outgoing
edge and is neither a source, a sink, nor a disposition node. The two
edge functions compose; adjacent :class:`Constraint` functions fuse into
a single conjunction so the compressed edge costs one BDD op.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Sequence, Set, Tuple

from repro.bdd.engine import BddEngine
from repro.reachability.graph import Compose, Constraint, Edge, EdgeFunction, Identity

#: Node kinds never contracted: sources, sinks, dispositions, and the
#: stateful-firewall points that session recording (post_zone) and
#: session fast-path splicing (zone_policy/zone_clear, in_acl) attach to.
_PROTECTED_KINDS = {
    "src", "sink", "disp", "zone_policy", "zone_clear", "post_zone", "in_acl",
}


class CompressionStats(NamedTuple):
    """Before/after sizes of a compressed edge list. A node counts
    where an edge leaves or enters it, but a ``src`` node only where an
    edge leaves it: other devices' links end there, and so the stats of
    the device segments add up to the whole graph's (:meth:`total`)."""

    nodes_before: int = 0
    edges_before: int = 0
    nodes_after: int = 0
    edges_after: int = 0
    nodes_removed: int = 0

    @classmethod
    def total(cls, parts: Iterable["CompressionStats"]) -> "CompressionStats":
        return cls(*map(sum, zip(*parts)))


def _compose(engine, first: EdgeFunction, second: EdgeFunction) -> EdgeFunction:
    """Compose two edge functions, fusing constraints where possible."""
    if isinstance(first, Identity):
        return second
    if isinstance(second, Identity):
        return first
    if isinstance(first, Constraint) and isinstance(second, Constraint):
        return Constraint(
            engine.and_(first.label, second.label), f"{first.note} & {second.note}"
        )
    parts: List[EdgeFunction] = []
    for fn in (first, second):
        if isinstance(fn, Compose):
            parts.extend(fn.parts)
        else:
            parts.append(fn)
    return Compose(parts)


def _counted_nodes(
    out_edges: Dict[tuple, List[Edge]], in_edges: Dict[tuple, List[Edge]]
) -> int:
    return len(out_edges.keys() | {node for node in in_edges if node[0] != "src"})


def compress_edges(
    edges: Sequence[Edge], engine: BddEngine
) -> Tuple[List[Edge], CompressionStats]:
    """Contract the simple nodes of ``edges``; returns the contracted
    list and before/after statistics.

    Whether a node is contracted, and into what, depends on the edges
    into and out of it alone. A contractible node is no ``src`` node,
    and only ``src`` nodes are entered from another device's segment
    of the graph, so compressing each segment on its own gives the
    segments of the compressed graph, edge for edge and in order.

    Works over mutable adjacency maps with a worklist, so each
    contraction is O(1) plus one BDD conjunction for fused constraints.
    """
    out_edges: Dict[tuple, List[Edge]] = {}
    in_edges: Dict[tuple, List[Edge]] = {}
    for edge in edges:
        out_edges.setdefault(edge.tail, []).append(edge)
        in_edges.setdefault(edge.head, []).append(edge)
    nodes_before = _counted_nodes(out_edges, in_edges)
    worklist = sorted(
        out_edges.keys() | in_edges.keys(), key=lambda n: tuple(str(p) for p in n)
    )
    queued: Set[tuple] = set(worklist)
    removed_nodes: Set[tuple] = set()
    while worklist:
        node = worklist.pop()
        queued.discard(node)
        if node in removed_nodes or node[0] in _PROTECTED_KINDS:
            continue
        ins = in_edges.get(node, [])
        outs = out_edges.get(node, [])
        if len(ins) != 1 or len(outs) != 1:
            continue
        incoming, outgoing = ins[0], outs[0]
        if incoming.tail == node or outgoing.head == node:
            continue  # self loop, leave alone
        fused = Edge(
            incoming.tail, outgoing.head, _compose(engine, incoming.fn, outgoing.fn)
        )
        out_edges[incoming.tail].remove(incoming)
        in_edges[outgoing.head].remove(outgoing)
        out_edges.setdefault(fused.tail, []).append(fused)
        in_edges.setdefault(fused.head, []).append(fused)
        in_edges.pop(node, None)
        out_edges.pop(node, None)
        removed_nodes.add(node)
        for endpoint in (incoming.tail, outgoing.head):
            if endpoint not in queued:
                worklist.append(endpoint)
                queued.add(endpoint)
    compressed = [edge for tail_edges in out_edges.values() for edge in tail_edges]
    return compressed, CompressionStats(
        nodes_before, len(edges), _counted_nodes(out_edges, in_edges),
        len(compressed), len(removed_nodes),
    )
