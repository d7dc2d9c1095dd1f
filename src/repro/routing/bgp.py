"""BGP: session establishment, the decision process, and the BGP RIB.

Two of the paper's convergence techniques live here and in
:mod:`repro.routing.engine`:

* **logical clocks** (§4.1.2): "we add logical clocks to our BGP RIB
  implementation, helping us to tie break routing advertisements based
  on arrival time, like routers do. This technique removes pathological
  re-advertisement loops." The RIB stamps each *changed* candidate with
  the engine's logical clock; the decision process prefers older routes
  at the final tie-break (before router-id).
* **session viability** (§4.1.1): "the establishment of a BGP session
  between two peers depends on a successful TCP connection, which can
  be prevented by misconfigured ACLs" — session compatibility and TCP
  viability are evaluated against partial data-plane state and
  re-evaluated as the computation proceeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.config.model import BgpNeighbor, Device, Snapshot
from repro.hdr.ip import Ip, Prefix
from repro.provenance import record as prov
from repro.routing.rib import RibDelta, sorted_best_set
from repro.routing.route import (
    AD_EBGP,
    AD_IBGP,
    BgpAttributes,
    BgpRoute,
    Origin,
    intern_as_path,
    intern_communities,
)
from repro.routing.topology import InterfaceId, Layer3Topology


@dataclass
class BgpSession:
    """One direction of a candidate BGP peering (local view)."""

    local_node: str
    remote_node: str
    local_ip: Ip
    remote_ip: Ip
    local_as: int
    remote_as: int
    neighbor: BgpNeighbor  # the local neighbor configuration
    is_ibgp: bool
    established: bool = False
    failure_reason: str = ""

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.local_node, str(self.local_ip), str(self.remote_ip))


@dataclass(frozen=True)
class SessionCompatibilityIssue:
    """A misconfigured peering found by compatibility checking (also the
    Lesson 5 `bgpSessionCompatibility` question)."""

    node: str
    peer_ip: Ip
    issue: str


def _local_ips(device: Device) -> Dict[Ip, str]:
    """address -> interface for all enabled addressed interfaces."""
    return {
        address: name for name, address, _len in device.interface_ips()
    }


def compute_bgp_sessions(
    snapshot: Snapshot,
) -> Tuple[List[BgpSession], List[SessionCompatibilityIssue]]:
    """Pair up neighbor configurations into candidate sessions.

    A session candidate exists when some device owns the configured peer
    address, has a reciprocal neighbor statement, and the AS numbers
    agree in both directions. Everything else becomes a compatibility
    issue (half-open config, AS mismatch, unknown peer IP).
    """
    ip_owner: Dict[Ip, str] = {}
    for hostname in snapshot.hostnames():
        for address in _local_ips(snapshot.device(hostname)):
            ip_owner.setdefault(address, hostname)

    sessions: List[BgpSession] = []
    issues: List[SessionCompatibilityIssue] = []
    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        if device.bgp is None:
            continue
        local_addresses = _local_ips(device)
        for peer_ip, neighbor in sorted(device.bgp.neighbors.items()):
            remote_node = ip_owner.get(peer_ip)
            if remote_node is None:
                issues.append(
                    SessionCompatibilityIssue(
                        hostname, peer_ip, "peer address not present in snapshot"
                    )
                )
                continue
            remote_device = snapshot.device(remote_node)
            if remote_device.bgp is None:
                issues.append(
                    SessionCompatibilityIssue(
                        hostname, peer_ip, f"{remote_node} has no BGP process"
                    )
                )
                continue
            # The remote side must have a neighbor statement pointing at
            # one of our addresses.
            reciprocal: Optional[BgpNeighbor] = None
            local_ip: Optional[Ip] = None
            for address in sorted(local_addresses):
                remote_neighbor = remote_device.bgp.neighbors.get(address)
                if remote_neighbor is not None:
                    reciprocal = remote_neighbor
                    local_ip = address
                    break
            if reciprocal is None or local_ip is None:
                issues.append(
                    SessionCompatibilityIssue(
                        hostname, peer_ip,
                        f"{remote_node} has no reciprocal neighbor statement",
                    )
                )
                continue
            local_as = neighbor.local_as or device.bgp.local_as
            remote_as_actual = reciprocal.local_as or remote_device.bgp.local_as
            if neighbor.remote_as != remote_as_actual:
                issues.append(
                    SessionCompatibilityIssue(
                        hostname, peer_ip,
                        f"remote-as {neighbor.remote_as} does not match "
                        f"{remote_node}'s AS {remote_as_actual}",
                    )
                )
                continue
            if reciprocal.remote_as != local_as:
                issues.append(
                    SessionCompatibilityIssue(
                        hostname, peer_ip,
                        f"{remote_node} expects AS {reciprocal.remote_as}, "
                        f"local AS is {local_as}",
                    )
                )
                continue
            sessions.append(
                BgpSession(
                    local_node=hostname,
                    remote_node=remote_node,
                    local_ip=local_ip,
                    remote_ip=peer_ip,
                    local_as=local_as,
                    remote_as=neighbor.remote_as,
                    neighbor=neighbor,
                    is_ibgp=local_as == neighbor.remote_as,
                )
            )
    return sessions, issues


# ----------------------------------------------------------------------
# Decision process


_ORIGIN_RANK = {Origin.IGP: 0, Origin.EGP: 1, Origin.INCOMPLETE: 2}


def _zero_igp_cost(_ip: Ip) -> Optional[int]:
    """Default IGP cost resolver (picklable, unlike a lambda)."""
    return 0


class BgpRib:
    """The BGP RIB of one node: per-peer candidates, best selection via
    the full decision process, logical clocks, and a RIB delta."""

    def __init__(
        self,
        local_as: int,
        multipath: int = 1,
        igp_cost: Optional[Callable[[Ip], Optional[int]]] = None,
        use_clocks: bool = True,
        owner: Optional[str] = None,
    ):
        self.local_as = local_as
        self.multipath = max(1, multipath)
        self._igp_cost = igp_cost or _zero_igp_cost
        self.use_clocks = use_clocks
        #: hosting node, for provenance recording of decision outcomes
        self.owner = owner
        # prefix -> {received_from (None = local): route}
        self._candidates: Dict[Prefix, Dict[Optional[Ip], BgpRoute]] = {}
        self._clocks: Dict[Tuple[Prefix, Optional[Ip]], int] = {}
        self._best: Dict[Prefix, List[BgpRoute]] = {}
        #: the prefixes of ``_best`` in ``all_best`` order; None after
        #: a prefix appeared or disappeared
        self._order: Optional[List[Prefix]] = None
        self.delta = RibDelta()

    def __getstate__(self):
        """Pickle support for the snapshot cache: the IGP cost resolver
        is a closure over live node state and is not serialized; a
        cached (already converged) RIB never re-runs best selection."""
        state = self.__dict__.copy()
        state["_igp_cost"] = None
        state["_order"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self._igp_cost is None:
            self._igp_cost = _zero_igp_cost

    # -- mutation ---------------------------------------------------------

    def put(self, route: BgpRoute, clock: int) -> bool:
        """Install/replace the candidate from ``route.received_from``.

        Identical re-advertisements do not refresh the clock (so stable
        routes keep their seniority). Returns True if the best set
        changed.
        """
        peers = self._candidates.setdefault(route.prefix, {})
        existing = peers.get(route.received_from)
        if existing == route:
            return False
        peers[route.received_from] = route
        self._clocks[(route.prefix, route.received_from)] = clock
        return self._reselect(route.prefix)

    def withdraw(self, prefix: Prefix, peer: Optional[Ip]) -> bool:
        """Remove the candidate learned from ``peer``."""
        peers = self._candidates.get(prefix)
        if not peers or peer not in peers:
            return False
        del peers[peer]
        self._clocks.pop((prefix, peer), None)
        if not peers:
            del self._candidates[prefix]
        return self._reselect(prefix)

    def _reselect(self, prefix: Prefix) -> bool:
        old_best = self._best.get(prefix, [])
        new_best = self._select(prefix)
        if new_best == old_best:
            return False
        if not (old_best and new_best):
            self._order = None  # the prefix appears or disappears
        if new_best:
            self._best[prefix] = new_best
        else:
            del self._best[prefix]
        for route in old_best:
            if route not in new_best:
                self.delta.removed.append(route)
                if prov.enabled() and self.owner is not None:
                    prov.route_event(
                        self.owner, prefix, "bgp", "displaced",
                        f"{route.describe()} no longer best in BGP decision "
                        "process",
                        neighbor=str(route.received_from)
                        if route.received_from is not None
                        else None,
                    )
        for route in new_best:
            if route not in old_best:
                self.delta.added.append(route)
                if prov.enabled() and self.owner is not None:
                    detail = f"{route.describe()} won BGP decision process"
                    if len(new_best) > 1:
                        detail += f" (multipath set of {len(new_best)})"
                    prov.route_event(
                        self.owner, prefix, "bgp", "best", detail,
                        neighbor=str(route.received_from)
                        if route.received_from is not None
                        else None,
                    )
        return True

    def _select(self, prefix: Prefix) -> List[BgpRoute]:
        """The BGP decision process (§4.1.2 plus standard steps).

        Order: weight, local-pref, AS-path length, origin, MED,
        eBGP-over-iBGP, IGP cost to next hop, then (single-path only)
        arrival-time logical clock, then lowest neighbor address. The
        first seven steps are one lexicographic minimum over a tuple.
        """
        peers = self._candidates.get(prefix)
        if not peers:
            return []
        ranked: List[Tuple[Tuple, BgpRoute]] = []
        for route in peers.values():
            cost = self._resolve_igp_cost(route)
            if cost is None:
                continue  # unresolvable next hop: route stays inactive
            attrs = route.attributes
            ranked.append(
                (
                    (
                        -attrs.weight,
                        -attrs.local_pref,
                        len(attrs.as_path),
                        _ORIGIN_RANK[attrs.origin],
                        attrs.med,
                        attrs.from_ibgp,
                        cost,
                    ),
                    route,
                )
            )
        if not ranked:
            return []
        if len(ranked) == 1:
            return [ranked[0][1]]
        best_rank = min(rank for rank, _route in ranked)
        candidates = [route for rank, route in ranked if rank == best_rank]
        if self.multipath > 1:
            return sorted_best_set(candidates)[: self.multipath]
        if len(candidates) > 1:
            # With logical clocks (§4.1.2) the *oldest* advertisement
            # wins, like routers: an equally good newcomer never
            # displaces the incumbent, removing re-advertisement churn.
            # Without clocks we model the naive behaviour — the newest
            # update wins — whose churn the clocks were added to remove.
            clocks = [
                self._clocks.get((prefix, r.received_from), 0) for r in candidates
            ]
            target = min(clocks) if self.use_clocks else max(clocks)
            candidates = [
                r
                for r, c in zip(candidates, clocks)
                if c == target
            ]
        # Final deterministic tie-break: lowest advertiser address
        # (local routes, peer None, win over learned ones). A prefix has
        # one candidate per advertiser, so this leaves exactly one.
        return [
            min(
                candidates,
                key=lambda r: -1 if r.received_from is None else r.received_from.value,
            )
        ]

    def _resolve_igp_cost(self, route: BgpRoute) -> Optional[int]:
        if route.received_from is None:
            return 0  # locally originated
        return self._igp_cost(route.next_hop_ip)

    # -- queries ----------------------------------------------------------

    def best_routes(self, prefix: Prefix) -> List[BgpRoute]:
        return list(self._best.get(prefix, []))

    def all_best(self) -> List[BgpRoute]:
        if self._order is None:
            self._order = sorted(self._best, key=str)
        result: List[BgpRoute] = []
        for prefix in self._order:
            result.extend(self._best[prefix])
        return result

    def candidate_count(self) -> int:
        return sum(len(peers) for peers in self._candidates.values())

    def take_delta(self) -> RibDelta:
        return self.delta.clear()


# ----------------------------------------------------------------------
# Advertisement construction (export side)


def export_route(
    session: BgpSession, route: BgpRoute, next_hop_override: Optional[Ip] = None
) -> Optional[BgpRoute]:
    """Transform a locally-selected route into the advertisement the
    remote peer receives on ``session`` (before the remote import
    policy). Returns None when BGP rules forbid the advertisement. The
    advertisement's community set is canonical (sorted, no repeats)
    whatever built the route's bundle.
    """
    attrs = route.attributes
    if session.is_ibgp:
        if attrs.from_ibgp and not session.neighbor.route_reflector_client:
            # iBGP-learned routes only go to route-reflector clients.
            return None
        next_hop = route.next_hop_ip
        if session.neighbor.next_hop_self or route.received_from is None:
            next_hop = session.local_ip
        new_attrs = attrs.with_changes(
            from_ibgp=True,
            admin_distance=AD_IBGP,
            originator_id=attrs.originator_id
            or (route.received_from if attrs.from_ibgp else None),
            communities=intern_communities(attrs.communities),
        )
    else:
        next_hop = next_hop_override or session.local_ip
        new_attrs = attrs.with_changes(
            as_path=intern_as_path((session.local_as,) + attrs.as_path),
            local_pref=100,  # local-pref is not carried across eBGP
            from_ibgp=False,
            admin_distance=AD_EBGP,
            originator_id=None,
            weight=0,
            med=0 if attrs.from_ibgp else attrs.med,
            communities=intern_communities(attrs.communities)
            if session.neighbor.send_community
            else (),
        )
    return BgpRoute(
        prefix=route.prefix,
        next_hop_ip=next_hop,
        attributes=new_attrs,
        received_from=session.local_ip,  # will be the receiver's peer ip
    )


def accepts_route(session: BgpSession, route: BgpRoute) -> Tuple[bool, str]:
    """Receiver-side sanity rules: AS-path loop prevention and
    originator-id reflection loop prevention."""
    if not session.is_ibgp and session.local_as in route.attributes.as_path:
        return False, "as-path loop"
    if (
        session.is_ibgp
        and route.attributes.originator_id is not None
        and route.attributes.originator_id == session.local_ip
    ):
        return False, "originator-id loop"
    return True, ""


def local_route(
    prefix: Prefix,
    next_hop: Ip,
    local_as: int,
    source_protocol=None,
    med: int = 0,
    communities: Tuple[str, ...] = (),
) -> BgpRoute:
    """A locally-originated BGP route (network statement or
    redistribution)."""
    return BgpRoute(
        prefix=prefix,
        next_hop_ip=next_hop,
        attributes=BgpAttributes.make(
            as_path=intern_as_path(()),
            origin=Origin.IGP if source_protocol is None else Origin.INCOMPLETE,
            med=med,
            communities=intern_communities(communities),
            weight=32768,  # locally originated routes win by weight
            admin_distance=AD_EBGP,
            source_protocol=source_protocol,
        ),
        received_from=None,
    )
