"""Routing-policy (route-map) evaluation, and its compilation into route
space.

This is the imperative replacement for what Datalog could not express
well (Lesson 1: "route maps can use regular expressions and
arithmetic"). A route map is evaluated clause by clause against a
mutable working copy of a route; the first clause whose matches all hold
decides permit (apply the set clauses) or deny.

Each match and set kind means one thing, declared once as a row of
:data:`MATCH_ROWS` (the concrete test on a :class:`PolicyRoute`, the
symbolic guard over a :class:`~repro.routing.routespace.RouteSpaceUniverse`,
whether that guard is exact) or :data:`SET_ROWS` (the concrete rewrite,
its route-space transfer). The simulator (:func:`apply_route_map`) and
the compiler lint reads (:func:`compile_policy`) both evaluate clauses
through these rows, so the static and the simulated reading of a route
map cannot drift apart (§4.3). Prefix-list and community-list guards are
exact; the others over-approximate, and an inexact clause is never
subtracted from the routes later clauses see, so a clause is only found
unreachable when even the over-approximation has no route left.

The *long tail* of undocumented vendor semantics (Lesson 3) is explicit
where the model has a choice: :class:`PolicySemantics` says what an
applied route map defined nowhere does. The fidelity labs (§4.3.1) flip
it and check the model against collected ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.bdd.engine import FALSE, TRUE
from repro.config.model import (
    Action,
    Device,
    MatchKind,
    Protocol,
    RouteMap,
    RouteMapClause,
    SetKind,
)
from repro.findings import Location
from repro.hdr.ip import Ip, Prefix
from repro.routing.route import Origin
from repro.routing.routespace import RouteSpaceUniverse, TagSet


@dataclass
class PolicySemantics:
    """Model decisions for under-documented situations (Lesson 3)."""

    #: An applied route map that is not defined: permit everything
    #: unchanged (True) or drop everything (False).
    undefined_route_map_permits: bool = True


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


# ----------------------------------------------------------------------
# One row per match kind and per set kind


@dataclass(frozen=True)
class MatchRow:
    """What ``match KIND value`` means, concretely and in route space."""

    reads: str  #: the PolicyRoute attribute ``test`` reads
    #: Whether ``route`` passes the match on ``device``.
    test: Callable[[Device, str, PolicyRoute], bool]
    #: The prefix/community routes that may pass, over a universe.
    guard: Callable[[RouteSpaceUniverse, Device, str], int]
    exact: bool  #: ``guard`` holds just the routes that pass (else more)
    #: The tags a passing route may carry (``None``: any).
    tags: Callable[[str], TagSet] = lambda value: None
    #: The communities a passing route carries one of.
    members: Callable[[Device, str], Tuple[str, ...]] = lambda device, value: ()


def _listed(structures: str, attribute: str):
    """The test "the named list, if defined, permits the route's ``attribute``"."""

    def test(device: Device, value: str, route: PolicyRoute) -> bool:
        listed = getattr(device, structures).get(value)
        return listed is not None and listed.permits(getattr(route, attribute))

    return test


def _equals(attribute: str):
    """The test "the route's ``attribute`` is the number"; a word never is."""
    return lambda device, value, route: (
        value.isdecimal() and getattr(route, attribute) == int(value)
    )


def _a_number(universe: RouteSpaceUniverse, device: Device, value: str) -> int:
    return TRUE if value.isdecimal() else FALSE


def _anything(universe: RouteSpaceUniverse, device: Device, value: str) -> int:
    return TRUE


MATCH_ROWS: Dict[MatchKind, MatchRow] = {
    MatchKind.PREFIX_LIST: MatchRow(
        "prefix", _listed("prefix_lists", "prefix"),
        lambda universe, device, value: (
            FALSE if value not in device.prefix_lists
            else universe.prefix_list_space(device.prefix_lists[value])
        ),
        exact=True,
    ),
    MatchKind.COMMUNITY: MatchRow(
        "communities", _listed("community_lists", "communities"),
        lambda universe, device, value: universe.community_list_space(
            device.community_lists.get(value)
        ),
        exact=True,
        members=lambda device, value: tuple(
            device.community_lists[value].communities if value in device.community_lists else ()
        ),
    ),
    # The BDD holds no as-path, metric, tag or protocol: the guard widens.
    MatchKind.AS_PATH: MatchRow("as_path", _listed("as_path_lists", "as_path"), _anything, False),
    MatchKind.METRIC: MatchRow("med", _equals("med"), _a_number, False),
    MatchKind.TAG: MatchRow(
        "tag", _equals("tag"), _a_number, False,
        tags=lambda value: frozenset({int(value)}) if value.isdecimal() else frozenset(),
    ),
    # An edge that knows its routes' source protocol decides it
    # (ClauseSummary.resolve).
    MatchKind.PROTOCOL: MatchRow(
        "source_protocol",
        lambda device, value, route: (
            route.source_protocol is not None and route.source_protocol.value.startswith(value)
        ),
        _anything, False,
    ),
}


@dataclass(frozen=True)
class SetRow:
    """What ``set KIND value`` means, concretely and in route space."""

    #: Rewrite the simulator's working copy of a route.
    apply: Callable[[PolicyRoute, str], None]
    #: Rewrite routes (a BDD over a universe) and the tags they carry;
    #: ``None``: the identity (route space does not hold the attribute).
    transfer: Optional[Callable[[RouteSpaceUniverse, str, int, TagSet], Tuple[int, TagSet]]] = None
    #: The communities the set writes.
    communities: Callable[[str], Tuple[str, ...]] = lambda value: ()


def _assign(attribute: str, parse: Callable[[str], object]):
    return lambda route, value: setattr(route, attribute, parse(value))


def _add_communities(route: PolicyRoute, value: str) -> None:
    route.communities |= set(value.split())


def _prepend(route: PolicyRoute, value: str) -> None:
    route.as_path = tuple(int(asn) for asn in value.split()) + route.as_path


SET_ROWS: Dict[SetKind, SetRow] = {
    SetKind.LOCAL_PREF: SetRow(_assign("local_pref", int)),
    SetKind.METRIC: SetRow(_assign("med", int)),
    SetKind.COMMUNITY: SetRow(
        _assign("communities", lambda value: set(value.split())),
        lambda universe, value, bdd, tags: (universe.with_communities(bdd, value.split()), tags),
        lambda value: tuple(value.split()),
    ),
    SetKind.COMMUNITY_ADDITIVE: SetRow(
        _add_communities,
        lambda universe, value, bdd, tags: (universe.add_communities(bdd, value.split()), tags),
        lambda value: tuple(value.split()),
    ),
    SetKind.AS_PATH_PREPEND: SetRow(_prepend),
    SetKind.NEXT_HOP: SetRow(_assign("next_hop_ip", Ip)),
    SetKind.TAG: SetRow(
        _assign("tag", int), lambda universe, value, bdd, tags: (bdd, frozenset({int(value)}))
    ),
    SetKind.WEIGHT: SetRow(_assign("weight", int)),
}


def set_communities(clause: RouteMapClause) -> List[str]:
    """The communities ``clause``'s sets write, in order."""
    return [c for each in clause.sets for c in SET_ROWS[each.kind].communities(each.value)]


# ----------------------------------------------------------------------
# The simulator


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
    return _evaluate(device, route_map, route)


def _evaluate(device: Device, route_map: RouteMap, route: PolicyRoute) -> PolicyResult:
    trace: List[str] = []
    for clause in route_map.sorted_clauses():
        # A clause with no match statements matches every route.
        if not all(
            MATCH_ROWS[match.kind].test(device, match.value, route)
            for match in clause.matches
        ):
            continue
        obs.touch("route_map_clause", device.hostname, route_map.name, clause.seq)
        label = f"route-map {route_map.name} clause {clause.seq}"
        if clause.action is Action.DENY:
            trace.append(f"{label}: deny")
            return PolicyResult(False, None, trace, matched_clause=clause.seq)
        transformed = route.copy()
        for set_clause in clause.sets:
            SET_ROWS[set_clause.kind].apply(transformed, set_clause.value)
            trace.append(f"set {set_clause.kind.value} {set_clause.value}")
        trace.append(f"{label}: permit")
        return PolicyResult(True, transformed, trace, matched_clause=clause.seq)
    trace.append(f"route-map {route_map.name}: no clause matched, implicit deny")
    return PolicyResult(False, None, trace)


# ----------------------------------------------------------------------
# The compiler


#: The prefix of the probe route :meth:`ClauseSummary.resolve` tests.
_ANY = Prefix("0.0.0.0/0")


@dataclass(frozen=True, eq=False)
class ClauseSummary:
    """One route-map clause as the lint rules and the abstract transfer
    see it: its compiled guard, and its rows for the rest."""

    seq: int
    action: Action
    #: The prefix/community routes the clause may match: exact for
    #: prefix-list / community-list matches, ⊤-widened otherwise.
    guard: int
    #: Some route no earlier exact clause matches is in ``guard``: the
    #: clause can fire on its own, whatever reaches the map.
    reachable: bool
    location: Location
    clause: RouteMapClause
    device: Device = field(repr=False)

    @cached_property
    def _matches(self) -> List[Tuple[MatchRow, str]]:
        return [(MATCH_ROWS[match.kind], match.value) for match in self.clause.matches]

    @cached_property
    def tags(self) -> TagSet:
        """The tags a route the clause matches may carry (``None``: any)."""
        own = [tags for row, value in self._matches if (tags := row.tags(value)) is not None]
        return frozenset.intersection(*own) if own else None

    def resolve(self, source_protocols: Sequence[str]) -> str:
        """How the clause's ``match protocol`` rows resolve on an edge
        whose routes come from ``source_protocols`` (protocol values):
        "pass" (every such route passes them), "fail" (none does) or
        "inexact" (some do, or the source is unknown)."""
        rows = [(row, value) for row, value in self._matches if row.reads == "source_protocol"]
        if not rows:
            return "pass"
        passing = [
            protocol for protocol in source_protocols
            if all(
                row.test(self.device, value, PolicyRoute(_ANY, source_protocol=Protocol(protocol)))
                for row, value in rows
            )
        ]
        if not source_protocols or 0 < len(passing) < len(source_protocols):
            return "inexact"
        return "pass" if passing else "fail"

    def exact(self, protocols_pass: bool) -> bool:
        """Whether first-match residual subtraction of ``guard`` is
        sound: every match is exact in route space, or is a ``match
        protocol`` and the edge's protocols pass (:meth:`resolve`)."""
        return all(
            row.exact or (row.reads == "source_protocol" and protocols_pass)
            for row, _ in self._matches
        )

    def transfer(self, universe: RouteSpaceUniverse, bdd: int, tags: TagSet) -> Tuple[int, TagSet]:
        """Routes ``bdd`` carrying ``tags``, all matched by the clause, as
        its sets rewrite them."""
        if self.tags is not None:
            tags = self.tags if tags is None else self.tags & tags
        for each in self.clause.sets:
            row = SET_ROWS[each.kind]
            if row.transfer is not None:
                bdd, tags = row.transfer(universe, each.value, bdd, tags)
        return bdd, tags

    def matched_lists(self) -> List[Tuple[str, Tuple[str, ...]]]:
        """The community lists the clause matches on, each with its
        members."""
        return [
            (value, row.members(self.device, value))
            for row, value in self._matches
            if row.reads == "communities"
        ]

    def matched_communities(self) -> List[str]:
        """Their members: the communities some match of the clause reads."""
        return [c for row, value in self._matches for c in row.members(self.device, value)]


@dataclass(frozen=True)
class PolicySummary:
    """A compiled route-map: the transfer function's static half."""

    hostname: str
    name: str
    defined: bool
    clauses: Tuple[ClauseSummary, ...] = ()
    location: Location = Location()

    def is_identity(self) -> bool:
        """Structurally a no-op: undefined (model default permits
        unchanged) or a map whose first clause permits everything
        without rewriting."""
        if not self.defined:
            return True
        if not self.clauses:
            return False  # no clause matched -> implicit deny everything
        first = self.clauses[0]
        return (
            first.action is Action.PERMIT
            and first.guard == TRUE
            and first.exact(False)
            and not any(SET_ROWS[each.kind].transfer for each in first.clause.sets)
        )

    def walk(
        self, universe: RouteSpaceUniverse, bdd: int, tags: TagSet, source_protocols: Sequence[str]
    ) -> Iterator[Tuple[ClauseSummary, int, int]]:
        """The first-match walk of routes ``bdd`` carrying ``tags`` from
        ``source_protocols``: each clause with the routes no earlier
        clause surely took, and those of them it may match (FALSE where it
        cannot fire). Only an exact clause surely takes what it matches;
        whatever no clause takes meets the implicit deny."""
        engine = universe.engine
        for clause in self.clauses:
            resolution = clause.resolve(source_protocols)
            fires = resolution != "fail" and (
                clause.tags is None or tags is None or bool(clause.tags & tags)
            )
            matched = engine.and_(bdd, clause.guard) if fires else FALSE
            yield clause, bdd, matched
            if matched != FALSE and clause.exact(resolution == "pass"):
                bdd = engine.diff(bdd, clause.guard)


def compile_policy(
    universe: RouteSpaceUniverse, device: Device, name: str
) -> PolicySummary:
    """Compile ``device``'s route map ``name`` into its clause summaries
    over ``universe``; :meth:`RouteSpaceUniverse.policy` memoizes it."""
    route_map = device.route_maps.get(name)
    if route_map is None:
        return PolicySummary(device.hostname, name, defined=False)
    engine = universe.engine
    residual = universe.routes()
    clauses: List[ClauseSummary] = []
    for clause in route_map.sorted_clauses():
        guard = engine.and_all(
            MATCH_ROWS[match.kind].guard(universe, device, match.value) for match in clause.matches
        )
        location = Location(clause.source_file, clause.source_line)
        summary = ClauseSummary(clause.seq, clause.action, guard, False, location, clause, device)
        if summary.tags == frozenset():
            guard = FALSE  # tag == a and tag == b, a != b
        summary = replace(summary, guard=guard, reachable=engine.and_(residual, guard) != FALSE)
        if summary.exact(False):
            residual = engine.diff(residual, guard)
        clauses.append(summary)
    return PolicySummary(
        hostname=device.hostname,
        name=name,
        defined=True,
        clauses=tuple(clauses),
        location=Location(route_map.source_file, route_map.source_line),
    )
