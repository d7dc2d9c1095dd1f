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

from repro.bdd.engine import FALSE
from repro.config.model import Action, Snapshot
from repro.lint.dataflow.domain import (
    ORIGIN_FLAG,
    AbstractRoutes,
    DEFAULT_TAG,
    join_tags,
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
from repro.routing.policy import PolicySummary
from repro.routing.routespace import RouteSpaceUniverse


# ----------------------------------------------------------------------
# Transfer functions


def apply_policy(
    universe: RouteSpaceUniverse,
    summary: Optional[PolicySummary],
    state: AbstractRoutes,
    source_protocols: Tuple[str, ...] = (),
) -> AbstractRoutes:
    """The abstract transfer of one route-map application.

    Mirrors the concrete first-match walk (:meth:`PolicySummary.walk`):
    a clause's *exact* match set is subtracted from the residual, an
    inexact clause's residual survives (it might not have matched
    concretely), and an unmatched-by-any-clause residual dies (implicit
    deny). Every inexact construct only ever widens the output.
    """
    if summary is None or not summary.defined:
        # No policy / undefined map: permit unchanged (DEFAULT_SEMANTICS
        # .undefined_route_map_permits).
        return state
    out = FALSE
    out_tags = frozenset()  # type: ignore[var-annotated]
    for clause, _, matched in summary.walk(universe, state.bdd, state.tags, source_protocols):
        if clause.action is Action.PERMIT and matched != FALSE:
            transformed, clause_tags = clause.transfer(universe, matched, state.tags)
            out = universe.engine.or_(out, transformed)
            out_tags = join_tags(out_tags, clause_tags)
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
            bdd = universe.reset(out.bdd, universe.community_levels() + universe.flag_levels(), ())
            return AbstractRoutes(bdd, frozenset({DEFAULT_TAG})), stages
        assert edge.dst[1] == DOMAIN_BGP
        # Mark the origin: this route entered BGP via redistribution.
        flag = [universe.flag_level(ORIGIN_FLAG)]
        bdd = universe.reset(out.bdd, flag, flag)
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
        stripped = universe.reset(exported.bdd, universe.community_levels(), ())
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

