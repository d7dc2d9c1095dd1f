"""Containment differential: abstract fixpoint vs simulated routes.

The soundness contract (DESIGN.md "Propagation-graph soundness") is
checkable: every route the concrete simulation places in a RIB domain
must be contained in that domain's abstract fixpoint set, and every BGP
candidate a receiver holds from a peer must be contained in the
corresponding session edge's abstract output. ``python -m repro validate
dataflow`` runs this across the network registry (a leg of the
``validate`` CI job); any divergence is a transfer-function bug, never
"the network's fault"."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bdd.engine import FALSE
from repro.config.model import Protocol, Snapshot
from repro.lint.dataflow.domain import build_universe
from repro.lint.dataflow.engine import DataflowAnalysis, analyze
from repro.lint.dataflow.graph import (
    DOMAIN_BGP,
    DOMAIN_CONNECTED,
    DOMAIN_OSPF,
    DOMAIN_STATIC,
)

_PROTOCOL_DOMAIN: Dict[Protocol, str] = {
    Protocol.CONNECTED: DOMAIN_CONNECTED,
    Protocol.STATIC: DOMAIN_STATIC,
    Protocol.OSPF: DOMAIN_OSPF,
    Protocol.OSPF_IA: DOMAIN_OSPF,
    Protocol.OSPF_E2: DOMAIN_OSPF,
    Protocol.BGP: DOMAIN_BGP,
    Protocol.IBGP: DOMAIN_BGP,
}


def validate_containment(
    snapshot: Snapshot, analysis: Optional[DataflowAnalysis] = None
) -> List[str]:
    """Simulate the dataplane and check both containment obligations.

    Returns human-readable divergence descriptions (empty = sound on
    this snapshot).
    """
    from repro.routing.engine import compute_dataplane

    if analysis is None:
        analysis = analyze(snapshot, build_universe(snapshot))
    universe = analysis.universe
    engine = universe.engine
    dataplane = compute_dataplane(snapshot)
    divergences: List[str] = []

    # 1. Node-level: every simulated RIB route is in its domain's set.
    for hostname in sorted(dataplane.nodes):
        state = dataplane.nodes[hostname]
        for route in state.main_rib.routes():
            domain = _PROTOCOL_DOMAIN.get(route.protocol)
            if domain is None:
                continue  # aggregates etc.: domains we do not model
            node = (hostname, domain)
            abstract = analysis.states.get(node)
            if abstract is None:
                divergences.append(
                    f"{hostname}: simulated {route.protocol.value} route "
                    f"{route.prefix} but the graph has no {domain} domain"
                )
                continue
            atom = universe.prefix_atom(route.prefix)
            if engine.and_(atom, abstract.bdd) == FALSE:
                divergences.append(
                    f"{hostname}/{domain}: simulated route {route.prefix} "
                    f"({route.protocol.value}) is outside the abstract "
                    "fixpoint set"
                )

    # 2. Edge-level: every BGP candidate held from a peer is in the
    #    delivering session edge's abstract output.
    ip_owner: Dict[object, str] = {}
    for hostname in snapshot.hostnames():
        for _name, address, _length in snapshot.device(
            hostname
        ).interface_ips():
            ip_owner[address] = hostname
    edge_outputs_by_pair: Dict[tuple, int] = {}
    for index, edge in enumerate(analysis.graph.edges):
        if edge.kind != "bgp-session":
            continue
        pair = (edge.src[0], edge.dst[0])
        bdd = analysis.edge_outputs[index].bdd
        if pair in edge_outputs_by_pair:
            bdd = engine.or_(edge_outputs_by_pair[pair], bdd)
        edge_outputs_by_pair[pair] = bdd
    for hostname in sorted(dataplane.nodes):
        rib = dataplane.nodes[hostname].bgp_rib
        if rib is None:
            continue
        for prefix, peers in rib._candidates.items():
            for peer_ip, _route in peers.items():
                if peer_ip is None:
                    continue  # locally originated
                sender = ip_owner.get(peer_ip)
                if sender is None:
                    continue
                combined = edge_outputs_by_pair.get((sender, hostname))
                if combined is None:
                    divergences.append(
                        f"{hostname}: holds BGP candidate {prefix} from "
                        f"{sender} but the graph has no session edge "
                        f"{sender} -> {hostname}"
                    )
                    continue
                atom = universe.prefix_atom(prefix)
                if engine.and_(atom, combined) == FALSE:
                    divergences.append(
                        f"{hostname}: BGP candidate {prefix} received "
                        f"from {sender} is outside the session edge's "
                        "abstract output"
                    )
    return divergences
