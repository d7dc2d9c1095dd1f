"""Routing-policy (route-map) evaluation.

This is the imperative replacement for what Datalog could not express
well (Lesson 1: "route maps can use regular expressions and
arithmetic"). A route map is evaluated clause by clause against a
mutable working copy of a route; the first clause whose matches all hold
decides permit (apply the set clauses) or deny.

The *long tail* of undocumented vendor semantics (Lesson 3) is made
explicit and configurable through :class:`PolicySemantics` — e.g. "what
should happen to incoming routing announcements when a BGP neighbor is
configured to use a route map that is not defined anywhere?". The
fidelity labs (§4.3.1) inject deviations by flipping these knobs and
checking the model against collected ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Set, Tuple

from repro import obs
from repro.config.model import (
    Action,
    Device,
    MatchKind,
    Protocol,
    RouteMap,
    SetKind,
)
from repro.hdr.ip import Ip, Prefix
from repro.routing.route import Origin


@dataclass
class PolicySemantics:
    """Model decisions for under-documented situations (Lesson 3)."""

    #: An applied route map that is not defined: permit everything
    #: unchanged (True) or drop everything (False).
    undefined_route_map_permits: bool = True
    #: A `match prefix-list NAME` where NAME is undefined: treat the
    #: match as failing (True) or as passing (False).
    undefined_prefix_list_fails_match: bool = True
    #: A route-map clause with no match statements matches everything.
    empty_clause_matches_all: bool = True


DEFAULT_SEMANTICS = PolicySemantics()


@dataclass
class PolicyRoute:
    """The mutable route view a policy operates on."""

    prefix: Prefix
    next_hop_ip: Optional[Ip] = None
    as_path: Tuple[int, ...] = ()
    local_pref: int = 100
    med: int = 0
    origin: Origin = Origin.IGP
    communities: Set[str] = field(default_factory=set)
    weight: int = 0
    tag: int = 0
    source_protocol: Optional[Protocol] = None

    def copy(self) -> "PolicyRoute":
        duplicate = replace(self)
        duplicate.communities = set(self.communities)
        return duplicate


@dataclass
class PolicyResult:
    """Outcome of a policy evaluation, with the trace used for
    counterexample annotation (Stage 4).

    ``matched_clause`` is the sequence number of the deciding route-map
    clause (None when no policy applied, the policy was undefined, or no
    clause matched) — the provenance layer records it so derivation
    trees can point at the exact configuration clause."""

    permitted: bool
    route: Optional[PolicyRoute]
    trace: List[str] = field(default_factory=list)
    matched_clause: Optional[int] = None


def apply_route_map(
    device: Device,
    route_map_name: Optional[str],
    route: PolicyRoute,
    semantics: PolicySemantics = DEFAULT_SEMANTICS,
) -> PolicyResult:
    """Evaluate a named route map of ``device`` against ``route``.

    ``route_map_name`` of ``None`` (no policy applied) permits the route
    unchanged, matching router behaviour.
    """
    if route_map_name is None:
        return PolicyResult(True, route.copy(), ["no policy: permit"])
    route_map = device.route_maps.get(route_map_name)
    if route_map is None:
        permitted = semantics.undefined_route_map_permits
        trace = [
            f"route-map {route_map_name} undefined: "
            + ("permit (model default)" if permitted else "deny")
        ]
        return PolicyResult(permitted, route.copy() if permitted else None, trace)
    return _evaluate(device, route_map, route, semantics)


def _evaluate(
    device: Device,
    route_map: RouteMap,
    route: PolicyRoute,
    semantics: PolicySemantics,
) -> PolicyResult:
    trace: List[str] = []
    for clause in route_map.sorted_clauses():
        if not _clause_matches(device, clause, route, semantics, trace):
            continue
        obs.touch("route_map_clause", device.hostname, route_map.name, clause.seq)
        label = f"route-map {route_map.name} clause {clause.seq}"
        if clause.action is Action.DENY:
            trace.append(f"{label}: deny")
            return PolicyResult(False, None, trace, matched_clause=clause.seq)
        transformed = route.copy()
        for set_clause in clause.sets:
            _apply_set(transformed, set_clause, trace)
        trace.append(f"{label}: permit")
        return PolicyResult(True, transformed, trace, matched_clause=clause.seq)
    trace.append(f"route-map {route_map.name}: no clause matched, implicit deny")
    return PolicyResult(False, None, trace)


def _clause_matches(device, clause, route, semantics, trace) -> bool:
    if not clause.matches:
        return semantics.empty_clause_matches_all
    for match in clause.matches:
        if not _match_one(device, match, route, semantics):
            return False
    return True


def _match_one(device, match, route: PolicyRoute, semantics) -> bool:
    if match.kind is MatchKind.PREFIX_LIST:
        plist = device.prefix_lists.get(match.value)
        if plist is None:
            return not semantics.undefined_prefix_list_fails_match
        return plist.permits(route.prefix)
    if match.kind is MatchKind.COMMUNITY:
        clist = device.community_lists.get(match.value)
        if clist is None:
            return False
        return clist.permits(sorted(route.communities))
    if match.kind is MatchKind.AS_PATH:
        alist = device.as_path_lists.get(match.value)
        if alist is None:
            return False
        return alist.permits(route.as_path)
    if match.kind in (MatchKind.TAG, MatchKind.METRIC):
        # A value that is not a number (a parse warning) matches no route.
        value = route.tag if match.kind is MatchKind.TAG else route.med
        return match.value.isdecimal() and value == int(match.value)
    if match.kind is MatchKind.PROTOCOL:
        return (
            route.source_protocol is not None
            and route.source_protocol.value.startswith(match.value)
        )
    return False


def _apply_set(route: PolicyRoute, set_clause, trace: List[str]) -> None:
    kind, value = set_clause.kind, set_clause.value
    if kind is SetKind.LOCAL_PREF:
        route.local_pref = int(value)
    elif kind is SetKind.METRIC:
        route.med = int(value)
    elif kind is SetKind.COMMUNITY:
        route.communities = set(value.split())
    elif kind is SetKind.COMMUNITY_ADDITIVE:
        route.communities |= set(value.split())
    elif kind is SetKind.AS_PATH_PREPEND:
        prepend = tuple(int(asn) for asn in value.split())
        route.as_path = prepend + route.as_path
    elif kind is SetKind.NEXT_HOP:
        route.next_hop_ip = Ip(value)
    elif kind is SetKind.TAG:
        route.tag = int(value)
    elif kind is SetKind.WEIGHT:
        route.weight = int(value)
    trace.append(f"set {kind.value} {value}")
