"""Worklist fixpoint over the route-propagation graph.

``analyze`` builds the snapshot's graph over the universe it is given
(the lint stage's one), seeds every node with its locally-originated
routes, and iterates edge transfers to a least fixpoint. The result
over-approximates, per RIB domain, every route the control plane can
ever carry there (DESIGN.md "Propagation-graph soundness").

The dataflow lint rules read the analysis off a
:class:`~repro.lint.runner.LintStage` (a session's, built once for the
session's life, or one of its own per run).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.config.model import Action, Snapshot
from repro.lint.dataflow.domain import (
    ORIGIN_FLAG,
    AbstractRoutes,
    DEFAULT_TAG,
    join_tags,
    tags_may_equal,
)
from repro.lint.dataflow.graph import (
    DOMAIN_BGP,
    DOMAIN_OSPF,
    DOMAIN_PROTOCOL_VALUES,
    Edge,
    NodeId,
    PropagationGraph,
    build_graph,
)
from repro.lint.routespace import PolicySummary, RouteSpaceUniverse


# ----------------------------------------------------------------------
# Transfer functions


def _apply_community_ops(
    universe: RouteSpaceUniverse,
    bdd: int,
    ops: Tuple[Tuple[str, Tuple[str, ...]], ...],
) -> int:
    """Replay ``set community [additive]`` on a route set: quantify the
    rewritten variables away, then pin them to their new values."""
    engine = universe.engine
    for kind, members in ops:
        if kind == "replace":
            all_levels = universe.community_levels()
            if all_levels:
                bdd = engine.exists(bdd, engine.cube(all_levels))
            member_levels = {
                universe.community_level(member) for member in members
            }
            for level in all_levels:
                if level in member_levels:
                    bdd = engine.and_(bdd, engine.var(level))
                else:
                    bdd = engine.and_(bdd, engine.nvar(level))
        else:  # "add"
            for member in members:
                level = universe.community_level(member)
                if level is None:
                    continue  # not in the alphabet: nothing can match it
                bdd = engine.exists(bdd, engine.cube([level]))
                bdd = engine.and_(bdd, engine.var(level))
    return bdd


def _strip_communities(universe: RouteSpaceUniverse, bdd: int) -> int:
    """Exact model of "communities dropped": quantify the community
    variables away, then pin them all to absent. Flag variables (our own
    instrumentation) survive."""
    engine = universe.engine
    levels = universe.community_levels()
    if not levels:
        return bdd
    bdd = engine.exists(bdd, engine.cube(levels))
    for level in levels:
        bdd = engine.and_(bdd, engine.nvar(level))
    return bdd


def _protocol_resolution(
    protocol_values: Tuple[str, ...], source_protocols: Tuple[str, ...]
) -> str:
    """How ``match protocol`` resolves against the edge's known source
    domain: "pass" (all possible source values match — exact),
    "fail" (none do — the clause can be skipped, exact), or "inexact"
    (mixed, or the source domain is unknown)."""
    if not protocol_values:
        return "pass"
    if not source_protocols:
        return "inexact"
    passing = [
        value
        for value in source_protocols
        if all(value.startswith(want) for want in protocol_values)
    ]
    if not passing:
        return "fail"
    if len(passing) == len(source_protocols):
        return "pass"
    return "inexact"


def apply_policy(
    universe: RouteSpaceUniverse,
    summary: Optional[PolicySummary],
    state: AbstractRoutes,
    source_protocols: Tuple[str, ...] = (),
) -> AbstractRoutes:
    """The abstract transfer of one route-map application.

    Mirrors the concrete first-match walk: a clause's *exact* match set
    is subtracted from the residual, an inexact clause's residual
    survives (it might not have matched concretely), and an
    unmatched-by-any-clause residual dies (implicit deny). Every inexact
    construct only ever widens the output.
    """
    if summary is None or not summary.defined:
        # No policy / undefined map: permit unchanged (DEFAULT_SEMANTICS
        # .undefined_route_map_permits).
        return state
    engine = universe.engine
    from repro.bdd.engine import FALSE

    residual = state.bdd
    out = FALSE
    out_tags = frozenset()  # type: ignore[var-annotated]
    for clause in summary.clauses:
        if residual == FALSE:
            break
        resolution = _protocol_resolution(
            clause.protocol_values, source_protocols
        )
        if resolution == "fail":
            continue  # exact: the clause never fires on this edge
        if clause.tag_eq is not None and not tags_may_equal(
            state.tags, clause.tag_eq
        ):
            continue  # exact: no route in the state carries that tag
        feasible = engine.and_(residual, clause.guard)
        if feasible == FALSE:
            # guard over-approximates, so concrete matches are empty too.
            continue
        if clause.action is Action.PERMIT:
            transformed = _apply_community_ops(
                universe, feasible, clause.community_ops
            )
            out = engine.or_(out, transformed)
            if clause.set_tag is not None:
                clause_tags = frozenset({clause.set_tag})
            elif clause.tag_eq is not None:
                clause_tags = frozenset({clause.tag_eq})
            else:
                clause_tags = state.tags
            out_tags = join_tags(out_tags, clause_tags)
        if clause.is_exact(resolution == "pass"):
            residual = engine.diff(residual, clause.guard)
        # Inexact clause: the residual survives untouched — routes it
        # *might* have matched also might fall through to later clauses.
    # Implicit deny: whatever residual remains is dropped.
    return AbstractRoutes(out, out_tags)


@dataclass(frozen=True)
class PolicyStage:
    """One route-map application along an edge, with its abstract
    input/output — the rules' window into per-clause dataflow."""

    role: str  # "redistribute" | "export" | "import"
    hostname: str
    policy: Optional[str]
    input: AbstractRoutes
    output: AbstractRoutes
    source_protocols: Tuple[str, ...] = ()


def apply_edge(
    universe: RouteSpaceUniverse,
    graph: PropagationGraph,
    edge: Edge,
    state: AbstractRoutes,
) -> Tuple[AbstractRoutes, List[PolicyStage]]:
    """The full transfer of one edge: value delivered into ``edge.dst``
    plus the per-policy stages for blame/coverage."""
    engine = universe.engine
    stages: List[PolicyStage] = []
    if edge.kind == "ospf-adjacency":
        # Flooding: identity (metric/area structure not modelled).
        return state, stages
    if edge.kind == "redistribute":
        assert edge.redist is not None
        source_protocols = DOMAIN_PROTOCOL_VALUES[edge.src[1]]
        # The concrete engine builds a *fresh* PolicyRoute per
        # redistributed route (tag 0, no communities are carried from
        # OSPF/static anyway — but BGP-sourced routes do keep their
        # communities in the BGP-redistribution path, which starts from
        # the main RIB; we over-approximate by feeding the full source
        # state through the map).
        state_in = AbstractRoutes(state.bdd, frozenset({DEFAULT_TAG}))
        summary = graph.summary(edge.hostname, edge.redist.route_map)
        out = apply_policy(universe, summary, state_in, source_protocols)
        stages.append(
            PolicyStage(
                role="redistribute",
                hostname=edge.hostname,
                policy=edge.redist.route_map,
                input=state_in,
                output=out,
                source_protocols=source_protocols,
            )
        )
        if edge.dst[1] == DOMAIN_OSPF:
            # OSPF externals carry (prefix, metric) only: communities,
            # flags and tags are all dropped.
            bdd = _strip_communities(universe, out.bdd)
            for level in universe.flag_levels():
                bdd = engine.exists(bdd, engine.cube([level]))
                bdd = engine.and_(bdd, engine.nvar(level))
            return AbstractRoutes(bdd, frozenset({DEFAULT_TAG})), stages
        assert edge.dst[1] == DOMAIN_BGP
        # Mark the origin: this route entered BGP via redistribution.
        flag_level = universe.flag_level(ORIGIN_FLAG)
        bdd = engine.exists(out.bdd, engine.cube([flag_level]))
        bdd = engine.and_(bdd, engine.var(flag_level))
        # local_route drops the transformed tag (fresh attributes).
        return AbstractRoutes(bdd, frozenset({DEFAULT_TAG})), stages
    assert edge.kind == "bgp-session"
    source_protocols = DOMAIN_PROTOCOL_VALUES[DOMAIN_BGP]
    export_summary = graph.summary(edge.hostname, edge.export_policy)
    exported = apply_policy(universe, export_summary, state, source_protocols)
    stages.append(
        PolicyStage(
            role="export",
            hostname=edge.hostname,
            policy=edge.export_policy,
            input=state,
            output=exported,
            source_protocols=source_protocols,
        )
    )
    if edge.is_ebgp:
        # Without send_community the concrete engine strips communities
        # on eBGP export. send_community is per-neighbor; modelling the
        # strip unconditionally would be *unsound* the other way (a
        # kept community could satisfy a later match), so widen: the
        # union of stripped and unstripped behaviours.
        stripped = _strip_communities(universe, exported.bdd)
        exported = AbstractRoutes(
            engine.or_(exported.bdd, stripped), exported.tags
        )
    import_summary = graph.summary(edge.dst[0], edge.import_policy)
    imported = apply_policy(universe, import_summary, exported, source_protocols)
    stages.append(
        PolicyStage(
            role="import",
            hostname=edge.dst[0],
            policy=edge.import_policy,
            input=exported,
            output=imported,
            source_protocols=source_protocols,
        )
    )
    return imported, stages


# ----------------------------------------------------------------------
# Fixpoint


def _run_fixpoint(
    universe: RouteSpaceUniverse,
    graph: PropagationGraph,
    states: Dict[NodeId, AbstractRoutes],
) -> int:
    queue = deque(graph.nodes)
    queued: Set[NodeId] = set(queue)
    iterations = 0
    while queue:
        node = queue.popleft()
        queued.discard(node)
        iterations += 1
        state = states[node]
        for edge_index in graph.out_edges.get(node, ()):
            edge = graph.edges[edge_index]
            delivered, _ = apply_edge(universe, graph, edge, state)
            current = states[edge.dst]
            joined = current.join(delivered, universe)
            if joined.bdd != current.bdd or joined.tags != current.tags:
                states[edge.dst] = joined
                if edge.dst not in queued:
                    queue.append(edge.dst)
                    queued.add(edge.dst)
    return iterations


@dataclass
class DataflowAnalysis:
    """The fixpoint and everything the rules need to interrogate it."""

    universe: RouteSpaceUniverse
    graph: PropagationGraph
    states: Dict[NodeId, AbstractRoutes]
    edge_outputs: List[AbstractRoutes]
    iterations: int
    fixpoint_seconds: float
    _stage_cache: Dict[int, List[PolicyStage]] = field(
        default_factory=dict, repr=False
    )

    def edge_stages(self, edge_index: int) -> List[PolicyStage]:
        """Per-policy stages of an edge evaluated at the fixpoint."""
        cached = self._stage_cache.get(edge_index)
        if cached is None:
            edge = self.graph.edges[edge_index]
            _, cached = apply_edge(
                self.universe, self.graph, edge, self.states[edge.src]
            )
            self._stage_cache[edge_index] = cached
        return cached


def analyze(snapshot: Snapshot, universe: RouteSpaceUniverse) -> DataflowAnalysis:
    """Run the propagation fixpoint for a snapshot over ``universe``
    (:func:`~repro.lint.dataflow.domain.build_universe` of it)."""
    started = time.perf_counter()
    graph = build_graph(snapshot, universe)
    states = dict(graph.seeds)
    iterations = _run_fixpoint(universe, graph, states)
    edge_outputs = [
        apply_edge(universe, graph, edge, states[edge.src])[0]
        for edge in graph.edges
    ]
    return DataflowAnalysis(
        universe=universe,
        graph=graph,
        states=states,
        edge_outputs=edge_outputs,
        iterations=iterations,
        fixpoint_seconds=time.perf_counter() - started,
    )

