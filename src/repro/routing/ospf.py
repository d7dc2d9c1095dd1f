"""OSPF route computation.

OSPF is link-state: every router in an area floods its adjacencies and
attached prefixes, then each router runs shortest-path-first over the
resulting area graph. The simulation mirrors that structure directly —
an area-wide link-state database is assembled from the configurations
(flooding always converges to exactly this database), then per-router
Dijkstra computes intra-area routes. Inter-area routes go through area-0
ABRs, and redistribution produces type-2 external routes whose metric
does not accumulate along the path (ties broken by distance to the
ASBR), matching the protocol specification.

Running IGP to convergence *before* BGP is one of the explicit
optimizations imperative evaluation enabled (§4.1.1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.config.model import Device, Snapshot
from repro.hdr.ip import Ip, Prefix
from repro.provenance import record as prov
from repro.routing.route import OspfRoute, OspfRouteType
from repro.routing.topology import InterfaceId, Layer3Edge, Layer3Topology

DEFAULT_EXTERNAL_METRIC = 20


@dataclass(frozen=True)
class OspfNeighbor:
    """An established OSPF adjacency (both sides enabled, same area,
    neither passive)."""

    edge: Layer3Edge
    area: int
    cost: int  # cost of the tail's outgoing interface


def interface_cost(device: Device, interface_name: str) -> int:
    """Interface cost: explicit `ip ospf cost`, else reference bandwidth
    divided by interface bandwidth (minimum 1)."""
    iface = device.interfaces[interface_name]
    if iface.ospf_cost is not None:
        return iface.ospf_cost
    reference = (
        device.ospf.reference_bandwidth if device.ospf else 100_000_000
    )
    return max(1, reference // max(iface.bandwidth, 1))


def ospf_neighbors(
    snapshot: Snapshot, topology: Layer3Topology
) -> List[OspfNeighbor]:
    """All OSPF adjacencies implied by the configurations."""
    neighbors: List[OspfNeighbor] = []
    for edge in topology.edges():
        tail_device = snapshot.device(edge.tail.node)
        head_device = snapshot.device(edge.head.node)
        if tail_device.ospf is None or head_device.ospf is None:
            continue
        tail_iface = tail_device.interfaces[edge.tail.interface]
        head_iface = head_device.interfaces[edge.head.interface]
        if not (tail_iface.ospf_enabled and head_iface.ospf_enabled):
            continue
        if tail_iface.ospf_passive or head_iface.ospf_passive:
            continue
        if tail_iface.ospf_area != head_iface.ospf_area:
            continue
        neighbors.append(
            OspfNeighbor(
                edge=edge,
                area=tail_iface.ospf_area,
                cost=interface_cost(tail_device, edge.tail.interface),
            )
        )
    return neighbors


@dataclass
class _AreaDatabase:
    """The link-state database of one area."""

    area: int
    # node -> [(neighbor_node, cost, edge)]
    adjacency: Dict[str, List[Tuple[str, int, Layer3Edge]]]
    # prefixes advertised into the area: node -> [(prefix, stub_cost)]
    prefixes: Dict[str, List[Tuple[Prefix, int]]]
    members: Set[str]


def _build_area_databases(
    snapshot: Snapshot, topology: Layer3Topology
) -> Dict[int, _AreaDatabase]:
    databases: Dict[int, _AreaDatabase] = {}

    def area_db(area: int) -> _AreaDatabase:
        if area not in databases:
            databases[area] = _AreaDatabase(area, {}, {}, set())
        return databases[area]

    for neighbor in ospf_neighbors(snapshot, topology):
        db = area_db(neighbor.area)
        db.adjacency.setdefault(neighbor.edge.tail.node, []).append(
            (neighbor.edge.head.node, neighbor.cost, neighbor.edge)
        )
        db.members.add(neighbor.edge.tail.node)
        db.members.add(neighbor.edge.head.node)
    # Advertised prefixes: every OSPF-enabled interface (incl. passive
    # and loopbacks) contributes its connected prefix as a stub network.
    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        if device.ospf is None:
            continue
        for iface in device.interfaces.values():
            if not (iface.ospf_enabled and iface.enabled):
                continue
            prefix = iface.prefix
            if prefix is None:
                continue
            db = area_db(iface.ospf_area)
            db.members.add(hostname)
            db.prefixes.setdefault(hostname, []).append(
                (prefix, interface_cost(device, iface.name))
            )
    return databases


def _dijkstra(
    db: _AreaDatabase, source: str
) -> Tuple[Dict[str, int], Dict[str, List[Layer3Edge]]]:
    """Shortest paths from ``source`` over the area graph.

    Returns distances and, for each reachable node, the set of first-hop
    edges (supporting equal-cost multipath).
    """
    dist: Dict[str, int] = {source: 0}
    first_hops: Dict[str, List[Layer3Edge]] = {source: []}
    heap: List[Tuple[int, str]] = [(0, source)]
    visited: Set[str] = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        for neighbor, cost, edge in sorted(
            db.adjacency.get(node, []), key=lambda item: (item[0], item[1])
        ):
            candidate = d + cost
            known = dist.get(neighbor)
            if known is None or candidate < known:
                dist[neighbor] = candidate
                first_hops[neighbor] = (
                    [edge] if node == source else list(first_hops[node])
                )
                heapq.heappush(heap, (candidate, neighbor))
            elif candidate == known:
                new_hops = [edge] if node == source else first_hops[node]
                merged = {
                    (h.tail, h.head): h
                    for h in first_hops.get(neighbor, []) + list(new_hops)
                }
                first_hops[neighbor] = [
                    merged[k] for k in sorted(merged, key=lambda k: (k[0], k[1]))
                ]
    return dist, first_hops


@dataclass
class OspfComputation:
    """Result of OSPF convergence: per-node route lists, plus the
    internal distance tables reused for external-route placement."""

    routes: Dict[str, List[OspfRoute]]
    # (area, source) -> distances
    distances: Dict[Tuple[int, str], Dict[str, int]]
    first_hops: Dict[Tuple[int, str], Dict[str, List[Layer3Edge]]]
    databases: Dict[int, _AreaDatabase]


def compute_ospf(snapshot: Snapshot, topology: Layer3Topology) -> OspfComputation:
    """Run OSPF to convergence for the whole snapshot."""
    databases = _build_area_databases(snapshot, topology)
    routes: Dict[str, List[OspfRoute]] = {
        hostname: [] for hostname in snapshot.hostnames()
    }
    distances: Dict[Tuple[int, str], Dict[str, int]] = {}
    all_first_hops: Dict[Tuple[int, str], Dict[str, List[Layer3Edge]]] = {}

    for area, db in sorted(databases.items()):
        for source in sorted(db.members):
            dist, first_hops = _dijkstra(db, source)
            distances[(area, source)] = dist
            all_first_hops[(area, source)] = first_hops
            device = snapshot.device(source)
            own_prefixes = {
                iface.prefix
                for iface in device.interfaces.values()
                if iface.prefix is not None
            }
            for advertiser in sorted(db.prefixes):
                if advertiser == source or advertiser not in dist:
                    continue
                for prefix, stub_cost in db.prefixes[advertiser]:
                    if prefix in own_prefixes:
                        if prov.enabled():
                            prov.route_event(
                                source, prefix, "ospf", "suppressed",
                                f"advertisement from {advertiser} for a "
                                "directly connected prefix: connected wins",
                                neighbor=advertiser,
                            )
                        continue  # connected beats OSPF
                    total = dist[advertiser] + stub_cost
                    for edge in first_hops[advertiser]:
                        routes[source].append(
                            OspfRoute(
                                prefix=prefix,
                                cost=total,
                                area=area,
                                next_hop_ip=edge.head_ip,
                                next_hop_interface=edge.tail.interface,
                                route_type=OspfRouteType.INTRA_AREA,
                            )
                        )

    _add_inter_area_routes(snapshot, databases, distances, all_first_hops, routes)
    return OspfComputation(
        routes=routes,
        distances=distances,
        first_hops=all_first_hops,
        databases=databases,
    )


def _area_border_routers(databases: Dict[int, _AreaDatabase]) -> Set[str]:
    """Routers present in area 0 and at least one other area."""
    if 0 not in databases:
        return set()
    backbone = databases[0].members
    others: Set[str] = set()
    for area, db in databases.items():
        if area != 0:
            others |= db.members
    return backbone & others


def _add_inter_area_routes(snapshot, databases, distances, first_hops, routes):
    """Propagate prefixes between areas through area-0 ABRs.

    For a router R in area A and a prefix P known in area B (≠ A), the
    route goes through an ABR of area A: cost = dist_A(R, ABR) +
    dist_{B via backbone}(ABR, P). We implement the standard two-level
    hierarchy: leaf areas exchange only through the backbone.
    """
    abrs = _area_border_routers(databases)
    if not abrs:
        return
    # Best known cost from each ABR to each prefix (intra-area costs,
    # through any area the ABR participates in).
    abr_prefix_cost: Dict[str, Dict[Prefix, int]] = {abr: {} for abr in abrs}
    for area, db in databases.items():
        for abr in abrs & db.members:
            dist = distances[(area, abr)]
            for advertiser, prefix_list in db.prefixes.items():
                if advertiser == abr:
                    base = 0
                elif advertiser in dist:
                    base = dist[advertiser]
                else:
                    continue
                for prefix, stub_cost in prefix_list:
                    total = base + stub_cost
                    best = abr_prefix_cost[abr].get(prefix)
                    if best is None or total < best:
                        abr_prefix_cost[abr][prefix] = total
    # Backbone transit: summaries propagate between ABRs through area 0
    # (standard OSPF: inter-area traffic crosses the backbone exactly
    # once, so one relaxation over ABR pairs with area-0 distances and
    # intra-area summary costs is exact).
    intra_summary = {abr: dict(costs) for abr, costs in abr_prefix_cost.items()}
    for abr_a in abrs:
        dist0 = distances.get((0, abr_a))
        if dist0 is None:
            continue
        for abr_b in abrs:
            if abr_b == abr_a or abr_b not in dist0:
                continue
            transit = dist0[abr_b]
            for prefix, cost_b in intra_summary[abr_b].items():
                candidate = transit + cost_b
                best = abr_prefix_cost[abr_a].get(prefix)
                if best is None or candidate < best:
                    abr_prefix_cost[abr_a][prefix] = candidate
    # Each router reaches remote prefixes via ABRs of its own areas.
    for area, db in sorted(databases.items()):
        for source in sorted(db.members):
            device = snapshot.device(source)
            dist = distances[(area, source)]
            hops = first_hops[(area, source)]
            local_prefixes = {
                route.prefix for route in routes[source]
            } | {
                iface.prefix
                for iface in device.interfaces.values()
                if iface.prefix is not None
            }
            candidates: Dict[Prefix, Tuple[int, List[Layer3Edge]]] = {}
            for abr in sorted(abrs):
                if abr == source or abr not in dist:
                    continue
                for prefix, abr_cost in abr_prefix_cost[abr].items():
                    if prefix in local_prefixes:
                        continue
                    total = dist[abr] + abr_cost
                    current = candidates.get(prefix)
                    if current is None or total < current[0]:
                        candidates[prefix] = (total, hops[abr])
                    elif total == current[0]:
                        merged = {
                            (h.tail, h.head): h for h in current[1] + hops[abr]
                        }
                        candidates[prefix] = (
                            total,
                            [merged[k] for k in sorted(merged)],
                        )
            for prefix, (total, edges) in sorted(candidates.items()):
                for edge in edges:
                    routes[source].append(
                        OspfRoute(
                            prefix=prefix,
                            cost=total,
                            area=area,
                            next_hop_ip=edge.head_ip,
                            next_hop_interface=edge.tail.interface,
                            route_type=OspfRouteType.INTER_AREA,
                        )
                    )


def compute_ospf_externals(
    snapshot: Snapshot,
    computation: OspfComputation,
    redistributed: Dict[str, List[Tuple[Prefix, int]]],
) -> Dict[str, List[OspfRoute]]:
    """Type-2 external routes for redistributed prefixes.

    ``redistributed`` maps ASBR hostname to (prefix, metric) pairs. The
    E2 metric does not accumulate; distance to the ASBR breaks ties.
    """
    externals: Dict[str, List[OspfRoute]] = {
        hostname: [] for hostname in snapshot.hostnames()
    }
    # Group each source's area memberships so multi-area routers merge
    # candidates across areas instead of duplicating routes per area.
    areas_of: Dict[str, List[int]] = {}
    for area, source in computation.distances:
        areas_of.setdefault(source, []).append(area)
    abrs = _area_border_routers(computation.databases)
    # Hierarchical ABR -> ASBR distances: intra-area where they share an
    # area, else once across the backbone via another ABR (type-4-style
    # ASBR summaries).
    abr_to_asbr: Dict[str, Dict[str, int]] = {abr: {} for abr in abrs}
    for abr in abrs:
        for area in areas_of.get(abr, []):
            dist = computation.distances[(area, abr)]
            for asbr in redistributed:
                if asbr == abr:
                    abr_to_asbr[abr][asbr] = 0
                elif asbr in dist:
                    current = abr_to_asbr[abr].get(asbr)
                    if current is None or dist[asbr] < current:
                        abr_to_asbr[abr][asbr] = dist[asbr]
    intra_asbr = {abr: dict(costs) for abr, costs in abr_to_asbr.items()}
    for abr_a in abrs:
        dist0 = computation.distances.get((0, abr_a))
        if dist0 is None:
            continue
        for abr_b in abrs:
            if abr_b == abr_a or abr_b not in dist0:
                continue
            for asbr, cost_b in intra_asbr[abr_b].items():
                candidate = dist0[abr_b] + cost_b
                current = abr_to_asbr[abr_a].get(asbr)
                if current is None or candidate < current:
                    abr_to_asbr[abr_a][asbr] = candidate

    for source, areas in sorted(areas_of.items()):
        device = snapshot.device(source)
        local_prefixes = {
            iface.prefix
            for iface in device.interfaces.values()
            if iface.prefix is not None
        }
        # prefix -> (metric, asbr_dist, area, edges)
        best: Dict[Prefix, Tuple[int, int, int, List[Layer3Edge]]] = {}

        def consider(prefix, metric, asbr_dist, area, edges):
            key = (metric, asbr_dist)
            current = best.get(prefix)
            if current is None or key < (current[0], current[1]):
                best[prefix] = (metric, asbr_dist, area, list(edges))
            elif key == (current[0], current[1]):
                merged = {(h.tail, h.head): h for h in current[3] + list(edges)}
                best[prefix] = (
                    metric, asbr_dist, current[2],
                    [merged[k] for k in sorted(merged)],
                )

        for area in sorted(areas):
            dist = computation.distances[(area, source)]
            hops = computation.first_hops[(area, source)]
            for asbr, prefix_list in sorted(redistributed.items()):
                if asbr == source:
                    continue
                if asbr in dist:
                    # ASBR in the same area: direct intra-area path.
                    for prefix, metric in prefix_list:
                        if prefix in local_prefixes:
                            continue
                        consider(prefix, metric, dist[asbr], area, hops[asbr])
                    continue
                # ASBR elsewhere: go through this area's ABRs.
                for abr in sorted(abrs):
                    if abr == source or abr not in dist:
                        continue
                    via = abr_to_asbr.get(abr, {}).get(asbr)
                    if via is None:
                        continue
                    for prefix, metric in prefix_list:
                        if prefix in local_prefixes:
                            continue
                        consider(
                            prefix, metric, dist[abr] + via, area, hops[abr]
                        )
        for prefix, (metric, _asbr_dist, area, edges) in sorted(best.items()):
            for edge in edges:
                externals[source].append(
                    OspfRoute(
                        prefix=prefix,
                        cost=metric,
                        area=area,
                        next_hop_ip=edge.head_ip,
                        next_hop_interface=edge.tail.interface,
                        route_type=OspfRouteType.EXTERNAL_2,
                    )
                )
    return externals
