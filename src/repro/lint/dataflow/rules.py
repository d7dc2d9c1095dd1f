"""Cross-device dataflow lint rules.

Each rule interrogates the propagation-graph fixpoint (the
:class:`~repro.lint.dataflow.engine.DataflowAnalysis` the runner passes
it) instead of a single device's configuration: leaks, loops and dead
policy paths only exist relative to what the *rest of the network* can
deliver. Every finding names the configuration line to blame and,
where a route set witnesses the problem, one concrete abstract route
drawn from it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.bdd.engine import FALSE, TRUE
from repro.config.model import Action
from repro.lint.dataflow.domain import (
    NO_EXPORT_COMMUNITIES,
    ORIGIN_FLAG,
    AbstractRoutes,
    private_space,
)
from repro.lint.dataflow.engine import (
    DataflowAnalysis,
    PolicyStage,
    apply_edge,
    _protocol_resolution,
)
from repro.lint.dataflow.graph import NodeId, PolicySummary
from repro.findings import Finding, Location, Related, Severity
from repro.lint.registry import rule


def _witness(analysis: DataflowAnalysis, bdd: int) -> str:
    example = analysis.universe.space(bdd).example()
    if example is None:
        return ""
    prefix, communities = example
    carried = (
        " carrying " + ", ".join(sorted(communities)) if communities else ""
    )
    return f" (witness route: {prefix}{carried})"


def _redist_related(
    analysis: DataflowAnalysis, bgp_node: NodeId
) -> List[Related]:
    """The redistribute statements feeding a BGP domain — the origin of
    any ``redistributed``-flagged route there."""
    related = []
    for edge in analysis.graph.edges:
        if edge.kind == "redistribute" and edge.dst == bgp_node:
            assert edge.redist is not None
            related.append(
                Related(
                    edge.location,
                    f"route enters BGP here: redistribute "
                    f"{edge.redist.source.value} on {edge.hostname}",
                )
            )
    return related


@rule(
    "route-leak",
    Severity.ERROR,
    "dataflow",
    "Internal routes escaping over an eBGP session: a redistributed "
    "(internal-origin) route covering private address space, or a route "
    "carrying a no-export community, can reach an external peer "
    "(propagation-graph fixpoint; over-approximate, so silence is proof "
    "of confinement).",
    scope="dataflow",
)
def route_leak(analysis: DataflowAnalysis) -> List[Finding]:
    universe = analysis.universe
    engine = universe.engine
    findings: List[Finding] = []
    confined = private_space(universe)
    no_export = engine.or_all(
        [universe.community(name) for name in NO_EXPORT_COMMUNITIES]
    )
    for index, edge in enumerate(analysis.graph.edges):
        if edge.kind != "bgp-session" or not edge.is_ebgp:
            continue
        out = analysis.edge_outputs[index]
        stages = analysis.edge_stages(index)
        if edge.export_policy and analysis.graph.summary(
            edge.hostname, edge.export_policy
        ):
            summary = analysis.graph.summaries[
                (edge.hostname, edge.export_policy)
            ]
            location = summary.location
            policy_label = f"export route-map {edge.export_policy}"
        else:
            location = edge.location
            policy_label = "no export policy"
        related = _redist_related(analysis, edge.src)
        if edge.import_location.file:
            related.append(
                Related(
                    edge.import_location,
                    f"received by {edge.dst[0]} here",
                )
            )
        leak = engine.and_(
            engine.and_(out.bdd, confined), universe.flag(ORIGIN_FLAG)
        )
        if leak != FALSE:
            findings.append(
                Finding(
                    "route-leak",
                    Severity.ERROR,
                    "dataflow",
                    edge.hostname,
                    f"redistributed internal route in private address "
                    f"space can leak to eBGP peer {edge.dst[0]} "
                    f"({policy_label})" + _witness(analysis, leak),
                    location,
                    tuple(related),
                )
            )
        # no-export is checked on the export-stage output, before the
        # (widened) eBGP community strip: advertising at all is the bug.
        exported = stages[0].output if stages else out
        tagged = engine.and_(exported.bdd, no_export)
        if tagged != FALSE:
            findings.append(
                Finding(
                    "route-leak",
                    Severity.ERROR,
                    "dataflow",
                    edge.hostname,
                    f"route carrying a no-export community is advertised "
                    f"to eBGP peer {edge.dst[0]} ({policy_label})"
                    + _witness(analysis, tagged),
                    location,
                    tuple(related),
                )
            )
    return findings


def _strongly_connected(
    nodes: Sequence[NodeId], edge_pairs: Sequence[Tuple[NodeId, NodeId]]
) -> Dict[NodeId, int]:
    """Iterative Tarjan: node -> SCC id."""
    adjacency: Dict[NodeId, List[NodeId]] = {node: [] for node in nodes}
    for src, dst in edge_pairs:
        adjacency[src].append(dst)
    index_of: Dict[NodeId, int] = {}
    low: Dict[NodeId, int] = {}
    on_stack: Set[NodeId] = set()
    stack: List[NodeId] = []
    component: Dict[NodeId, int] = {}
    counter = [0]
    components = [0]
    for root in nodes:
        if root in index_of:
            continue
        work: List[Tuple[NodeId, int]] = [(root, 0)]
        while work:
            node, child = work.pop()
            if child == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            successors = adjacency[node]
            while child < len(successors):
                nxt = successors[child]
                child += 1
                if nxt not in index_of:
                    work.append((node, child))
                    work.append((nxt, 0))
                    recurse = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index_of[nxt])
            if recurse:
                continue
            if low[node] == index_of[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component[member] = components[0]
                    if member == node:
                        break
                components[0] += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return component


def _cycle_edges(
    analysis: DataflowAnalysis,
    start: NodeId,
    goal: NodeId,
    allowed: Set[NodeId],
) -> Optional[List[int]]:
    """Shortest edge path ``start -> goal`` inside one SCC."""
    if start == goal:
        return []
    frontier = [start]
    came_from: Dict[NodeId, Tuple[NodeId, int]] = {}
    seen = {start}
    while frontier:
        next_frontier: List[NodeId] = []
        for node in frontier:
            for edge_index in analysis.graph.out_edges.get(node, ()):
                dst = analysis.graph.edges[edge_index].dst
                if dst not in allowed or dst in seen:
                    continue
                seen.add(dst)
                came_from[dst] = (node, edge_index)
                if dst == goal:
                    path: List[int] = []
                    cursor = goal
                    while cursor != start:
                        cursor, via = came_from[cursor]
                        path.append(via)
                    path.reverse()
                    return path
                next_frontier.append(dst)
        frontier = next_frontier
    return None


@rule(
    "redistribution-loop",
    Severity.ERROR,
    "dataflow",
    "Mutual redistribution cycle that actually carries routes: a "
    "redistribute statement whose target domain can propagate routes "
    "back into its own source domain (protocol cycle through sessions, "
    "adjacencies and other redistributions).",
    scope="dataflow",
)
def redistribution_loop(analysis: DataflowAnalysis) -> List[Finding]:
    universe = analysis.universe
    graph = analysis.graph
    component = _strongly_connected(graph.nodes, graph.edge_pairs())
    findings: List[Finding] = []
    for index, edge in enumerate(graph.edges):
        if edge.kind != "redistribute":
            continue
        if component[edge.src] != component[edge.dst]:
            continue
        scc_nodes = {
            node
            for node in graph.nodes
            if component[node] == component[edge.src]
        }
        back_path = _cycle_edges(analysis, edge.dst, edge.src, scc_nodes)
        if back_path is None:
            continue
        cycle = [index] + back_path
        # Push the source domain's fixpoint value once around the cycle:
        # a non-empty result means routes genuinely circulate, not just
        # that the cycle exists structurally.
        value = analysis.states[edge.src]
        for step in cycle:
            value, _ = apply_edge(universe, graph, graph.edges[step], value)
            if value.is_bottom():
                break
        if value.is_bottom():
            continue
        assert edge.redist is not None
        related = tuple(
            Related(
                graph.edges[step].location,
                f"cycle continues: {graph.edges[step].describe()}",
            )
            for step in cycle[1:]
        )
        findings.append(
            Finding(
                "redistribution-loop",
                Severity.ERROR,
                "dataflow",
                edge.hostname,
                f"redistribute {edge.redist.source.value} into "
                f"{edge.dst[1]} on {edge.hostname} closes a "
                f"{len(cycle)}-edge redistribution cycle that carries "
                "routes back into its own source domain"
                + _witness(analysis, value.bdd),
                edge.location,
                related,
            )
        )
    return findings


def _is_identity_chain(
    summary: Optional[PolicySummary],
) -> bool:
    return summary is None or summary.is_identity()


@rule(
    "filter-gap",
    Severity.WARNING,
    "dataflow",
    "eBGP session direction with no effective route filtering anywhere "
    "along it: neither the sender's export policy nor the receiver's "
    "import policy constrains what is advertised.",
    scope="dataflow",
)
def filter_gap(analysis: DataflowAnalysis) -> List[Finding]:
    graph = analysis.graph
    unfiltered: Dict[str, List[int]] = {}
    for index, edge in enumerate(graph.edges):
        if edge.kind != "bgp-session" or not edge.is_ebgp:
            continue
        export_summary = graph.summary(edge.hostname, edge.export_policy)
        import_summary = graph.summary(edge.dst[0], edge.import_policy)
        if _is_identity_chain(export_summary) and _is_identity_chain(
            import_summary
        ):
            unfiltered.setdefault(edge.hostname, []).append(index)
    findings: List[Finding] = []
    for hostname in sorted(unfiltered):
        indices = unfiltered[hostname]
        first = graph.edges[indices[0]]
        peers = sorted({graph.edges[i].dst[0] for i in indices})
        related = tuple(
            Related(
                graph.edges[i].location,
                f"also unfiltered towards {graph.edges[i].dst[0]}",
            )
            for i in indices[1:]
        )
        findings.append(
            Finding(
                "filter-gap",
                Severity.WARNING,
                "dataflow",
                hostname,
                f"{len(indices)} eBGP session(s) from {hostname} "
                f"(peers: {', '.join(peers)}) advertise with no route "
                "filtering in either direction — everything in the BGP "
                "RIB is exported and accepted verbatim",
                first.location,
                related,
            )
        )
    return findings


def _edge_summaries(
    analysis: DataflowAnalysis, index: int
) -> List[PolicySummary]:
    edge = analysis.graph.edges[index]
    names: List[Tuple[str, Optional[str]]] = []
    if edge.kind == "redistribute":
        assert edge.redist is not None
        names.append((edge.hostname, edge.redist.route_map))
    elif edge.kind == "bgp-session":
        names.append((edge.hostname, edge.export_policy))
        names.append((edge.dst[0], edge.import_policy))
    summaries = []
    for hostname, name in names:
        summary = analysis.graph.summary(hostname, name)
        if summary is not None:
            summaries.append(summary)
    return summaries


def _downstream_matched(
    analysis: DataflowAnalysis,
) -> Dict[NodeId, FrozenSet[str]]:
    """For each node: every community some policy on an edge reachable
    *from* that node matches on."""
    edge_matched: List[FrozenSet[str]] = []
    for index in range(len(analysis.graph.edges)):
        members: Set[str] = set()
        for summary in _edge_summaries(analysis, index):
            for clause in summary.clauses:
                members.update(clause.matched_communities)
        edge_matched.append(frozenset(members))
    result: Dict[NodeId, FrozenSet[str]] = {}
    for node in analysis.graph.nodes:
        seen = {node}
        frontier = [node]
        matched: Set[str] = set()
        while frontier:
            current = frontier.pop()
            for edge_index in analysis.graph.out_edges.get(current, ()):
                matched |= edge_matched[edge_index]
                dst = analysis.graph.edges[edge_index].dst
                if dst not in seen:
                    seen.add(dst)
                    frontier.append(dst)
        result[node] = frozenset(matched)
    return result


@rule(
    "community-dataflow",
    Severity.WARNING,
    "dataflow",
    "Community plumbing that cannot work: a community set on routes that "
    "no downstream policy ever matches, or a community-list match on an "
    "edge where no arriving route can carry any of its members.",
    scope="dataflow",
)
def community_dataflow(analysis: DataflowAnalysis) -> List[Finding]:
    universe = analysis.universe
    engine = universe.engine
    graph = analysis.graph
    downstream = _downstream_matched(analysis)
    well_known = set(NO_EXPORT_COMMUNITIES)

    # key -> (feasible anywhere, consumed anywhere, sample finding args)
    set_candidates: Dict[Tuple[str, str, int, str], Tuple[bool, Location]] = {}
    set_consumed: Set[Tuple[str, str, int, str]] = set()
    match_candidates: Dict[Tuple[str, str, int, str], Location] = {}
    match_carried: Set[Tuple[str, str, int, str]] = set()

    for index, edge in enumerate(graph.edges):
        stages = analysis.edge_stages(index)
        for stage_pos, stage in enumerate(stages):
            if stage.policy is None:
                continue
            summary = graph.summary(stage.hostname, stage.policy)
            if summary is None or not summary.defined:
                continue
            later_matched: Set[str] = set(downstream[edge.dst])
            for later in stages[stage_pos + 1 :]:
                later_summary = graph.summary(later.hostname, later.policy)
                if later_summary is not None:
                    for clause in later_summary.clauses:
                        later_matched.update(clause.matched_communities)
            residual = stage.input.bdd
            for clause in summary.clauses:
                if residual == FALSE:
                    break
                feasible = engine.and_(residual, clause.guard) != FALSE
                key_base = (stage.hostname, summary.name, clause.seq)
                # (a) set-but-never-matched
                if clause.action is Action.PERMIT:
                    for _kind, members in clause.community_ops:
                        for member in members:
                            if member in well_known:
                                continue
                            key = key_base + (member,)
                            if member in later_matched:
                                set_consumed.add(key)
                            if feasible:
                                previous = set_candidates.get(key)
                                set_candidates[key] = (
                                    True,
                                    previous[1]
                                    if previous
                                    else clause.location,
                                )
                # (b) match-never-carried
                if residual != FALSE:
                    for list_name in clause.matched_lists:
                        key = key_base + (list_name,)
                        members = [
                            c
                            for c in clause.matched_communities
                            if universe.has_community(c)
                        ]
                        carriers = engine.and_(
                            residual,
                            engine.or_all(
                                [universe.community(c) for c in members]
                            )
                            if members
                            else FALSE,
                        )
                        if carriers != FALSE:
                            match_carried.add(key)
                        else:
                            match_candidates.setdefault(key, clause.location)
                if clause.is_exact(
                    _protocol_resolution(
                        clause.protocol_values, stage.source_protocols
                    )
                    == "pass"
                ):
                    residual = engine.diff(residual, clause.guard)

    findings: List[Finding] = []
    for key in sorted(set_candidates):
        if key in set_consumed:
            continue
        feasible, location = set_candidates[key]
        if not feasible:
            continue
        hostname, map_name, seq, member = key
        findings.append(
            Finding(
                "community-dataflow",
                Severity.WARNING,
                "dataflow",
                hostname,
                f"route-map {map_name} clause {seq} sets community "
                f"{member}, but no policy downstream of any edge using "
                "this map ever matches it — the community is dead "
                "signalling",
                location,
            )
        )
    for key in sorted(match_candidates):
        if key in match_carried:
            continue
        hostname, map_name, seq, list_name = key
        findings.append(
            Finding(
                "community-dataflow",
                Severity.WARNING,
                "dataflow",
                hostname,
                f"route-map {map_name} clause {seq} matches "
                f"community-list {list_name}, but no route the control "
                "plane can deliver to this policy carries any of its "
                "communities — the clause can never fire",
                match_candidates[key],
            )
        )
    return findings


@rule(
    "unreachable-policy-path",
    Severity.WARNING,
    "dataflow",
    "Route-map clause that is satisfiable in principle but dead in this "
    "network: no route the propagation fixpoint can deliver to any edge "
    "using the policy ever reaches the clause.",
    scope="dataflow",
)
def unreachable_policy_path(analysis: DataflowAnalysis) -> List[Finding]:
    universe = analysis.universe
    engine = universe.engine
    graph = analysis.graph

    # Join the abstract inputs of every stage that applies each policy.
    inputs: Dict[Tuple[str, str], AbstractRoutes] = {}
    protocols: Dict[Tuple[str, str], Set[str]] = {}
    for index in range(len(graph.edges)):
        for stage in analysis.edge_stages(index):
            if stage.policy is None:
                continue
            key = (stage.hostname, stage.policy)
            current = inputs.get(key)
            inputs[key] = (
                stage.input
                if current is None
                else current.join(stage.input, universe)
            )
            protocols.setdefault(key, set()).update(stage.source_protocols)

    findings: List[Finding] = []
    for key in sorted(inputs):
        hostname, map_name = key
        summary = graph.summary(hostname, map_name)
        if summary is None or not summary.defined:
            continue
        delivered = inputs[key]
        source_protocols = tuple(sorted(protocols.get(key, set())))
        intrinsic_residual = TRUE
        dataflow_residual = delivered.bdd
        for clause in summary.clauses:
            obs.touch("route_map_clause", hostname, map_name, clause.seq)
            intrinsically_reachable = (
                engine.and_(intrinsic_residual, clause.guard) != FALSE
            )
            resolution = _protocol_resolution(
                clause.protocol_values, source_protocols
            )
            dataflow_reachable = (
                resolution != "fail"
                and (
                    clause.tag_eq is None
                    or delivered.tags is None
                    or clause.tag_eq in delivered.tags
                )
                and engine.and_(dataflow_residual, clause.guard) != FALSE
            )
            if intrinsically_reachable and not dataflow_reachable:
                findings.append(
                    Finding(
                        "unreachable-policy-path",
                        Severity.WARNING,
                        "dataflow",
                        hostname,
                        f"route-map {map_name} clause {clause.seq} is "
                        "satisfiable on its own, but no route the "
                        "control plane delivers to this policy ever "
                        "reaches it (dead in this network, not in "
                        "general)",
                        clause.location,
                    )
                )
            if clause.is_exact(False):
                intrinsic_residual = engine.diff(
                    intrinsic_residual, clause.guard
                )
            if clause.is_exact(resolution == "pass") and dataflow_reachable:
                dataflow_residual = engine.diff(
                    dataflow_residual, clause.guard
                )
    return findings
