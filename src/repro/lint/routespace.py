"""A BDD encoding of *route* space, and the one compiler of route maps
into it.

The packet-space encoder (`repro.hdr`) models packets; route maps match
on route attributes instead — the announced prefix (address + length)
and the community set. A :class:`RouteSpaceUniverse` orders BDD
variables over:

* 32 variables for the prefix network address (MSB first),
* 6 variables for the prefix length (a 6-bit field: only 0..32, with
  every host bit zero, name a route — :meth:`RouteSpaceUniverse.routes`),
* one variable per distinct community string,
* extra flag variables (the dataflow engine uses one to track "this
  route entered BGP through redistribution").

A lint stage builds one universe per snapshot
(:func:`repro.lint.dataflow.domain.build_universe`). The semantic rules
and the dataflow fixpoint both read it, so sets built on different
devices combine and each route map compiles once
(:meth:`RouteSpaceUniverse.policy`).

:func:`compile_policy` is the only code that turns a route-map clause
into route space. Prefix-list and community-list matches encode
*exactly*, mirroring the concrete first-match semantics of
``PrefixList.permits`` / ``CommunityList.permits``. Matches the BDD
cannot express (as-path regexes, tag/metric/protocol) leave the guard
an over-approximation and the clause inexact: an inexact clause is never
subtracted from the routes later clauses see, so a clause is only found
unreachable when even the over-approximation has no route left.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.bdd.engine import FALSE, TRUE, BddEngine
from repro.config.model import (
    Action,
    CommunityList,
    Device,
    MatchKind,
    PrefixList,
    PrefixListLine,
    SetKind,
)
from repro.findings import Location
from repro.hdr.ip import Prefix

ADDR_BITS = 32
LEN_BITS = 6  # values 0..63; only 0..32 are produced by parsers


class RouteSpaceUniverse:
    """The variable order every route set and compiled route map of a
    snapshot is built against: 32 address bits, 6 length bits, then one
    variable per community in a fixed (sorted) alphabet, then any extra
    flag variables. Sets from two universes never mix.
    """

    def __init__(
        self,
        communities: Sequence[str] = (),
        flags: Sequence[str] = (),
    ):
        self.communities: Tuple[str, ...] = tuple(sorted(set(communities)))
        self.flags: Tuple[str, ...] = tuple(flags)
        self._community_var: Dict[str, int] = {
            community: ADDR_BITS + LEN_BITS + index
            for index, community in enumerate(self.communities)
        }
        base = ADDR_BITS + LEN_BITS + len(self.communities)
        self._flag_var: Dict[str, int] = {
            name: base + index for index, name in enumerate(self.flags)
        }
        self.engine = BddEngine(base + len(self.flags))
        #: length -> ``length_eq(length) ∧ without_communities()``: the
        #: leaves of :meth:`originated`.
        self._originated_leaves: Dict[int, int] = {}
        self._routes: Optional[int] = None
        #: (hostname, route-map name) -> its summary: :meth:`policy`.
        self._policies: Dict[Tuple[str, str], PolicySummary] = {}

    # -- field primitives --------------------------------------------------

    def length_eq(self, value: int) -> int:
        return self.engine.pinned(range(ADDR_BITS, ADDR_BITS + LEN_BITS), value)

    def length_in_range(self, low: int, high: int) -> int:
        if low > high:
            return FALSE
        return self.engine.or_all(
            [self.length_eq(value) for value in range(low, high + 1)]
        )

    def address_under(self, prefix: Prefix) -> int:
        """Routes whose network address lies inside ``prefix`` (the
        containment half of ``Prefix.contains_prefix``)."""
        return self.engine.pinned(
            range(prefix.length),
            prefix.network_value >> (ADDR_BITS - prefix.length),
        )

    def prefix_atom(self, prefix: Prefix) -> int:
        """The exact single point for one announced prefix: all 32
        address bits pinned to the (masked) network address plus the
        exact length. Community/flag variables are left free — intersect
        with :meth:`without_communities` to pin them all to absent."""
        return self.engine.pinned(
            range(ADDR_BITS), prefix.network_value,
            below=self.length_eq(prefix.length),
        )

    def routes(self) -> int:
        """Every prefix a route can announce: a length of 0..32 (the
        6-bit field also spells 33..63) with every host bit zero, any
        communities and flags. Residual walks start from it and
        prefix-list lines are taken within it, so no finding rests on a
        route that cannot exist.

        Built bottom up with :meth:`BddEngine.mk`, one node per (address
        bit, shortest length still allowed): read top down, an address
        whose last set bit so far is bit ``p - 1`` allows lengths
        ``p..32``."""
        if self._routes is None:
            engine = self.engine
            allowed = [self.length_eq(ADDR_BITS)]
            for length in reversed(range(ADDR_BITS)):
                allowed.insert(0, engine.or_(self.length_eq(length), allowed[0]))
            for level in reversed(range(ADDR_BITS)):
                allowed = [
                    engine.mk(level, allowed[p], allowed[level + 1])
                    for p in range(level + 1)
                ]
            self._routes = allowed[0]
        return self._routes

    def community(self, name: str) -> int:
        level = self._community_var.get(name)
        if level is None:
            return FALSE
        return self.engine.var(level)

    def has_community(self, name: str) -> bool:
        return name in self._community_var

    def flag(self, name: str) -> int:
        return self.engine.var(self._flag_var[name])

    def community_levels(self) -> List[int]:
        return [self._community_var[c] for c in self.communities]

    def community_level(self, name: str) -> Optional[int]:
        return self._community_var.get(name)

    def flag_level(self, name: str) -> int:
        return self._flag_var[name]

    def flag_levels(self) -> List[int]:
        return [self._flag_var[f] for f in self.flags]

    def without_communities(self) -> int:
        """The constraint "carries no community and no flag" — the state
        of a freshly originated (connected/static/network-statement)
        route."""
        return self.engine.pinned(self.community_levels() + self.flag_levels(), 0)

    def originated(self, prefixes: Iterable[Prefix]) -> int:
        """Freshly originated routes for ``prefixes``: the union of
        their :meth:`prefix_atom` with :meth:`without_communities`
        below, built as one diagram.

        The sorted distinct (address, length) keys are split on one key
        bit per level, top down. A key alone in its range below some
        address bit is its remaining address bits pinned onto its leaf:
        the length cube with the community-free cube below it, built
        once per universe. Every node is made once with
        :meth:`BddEngine.mk`, so the result is the canonical node
        ``and_(or_all(atoms), without_communities())`` returns, without
        the union or the conjunction walking it."""
        engine = self.engine
        key_bits = ADDR_BITS + LEN_BITS
        keys = sorted(
            {(prefix.network_value << LEN_BITS) | prefix.length for prefix in prefixes}
        )
        free = self.without_communities()

        def split(lo: int, hi: int, level: int) -> int:
            # keys[lo:hi] agree on every key bit above ``level``.
            if level == key_bits:
                return free
            if hi - lo == 1 and level <= ADDR_BITS:
                length = keys[lo] & ((1 << LEN_BITS) - 1)
                leaf = self._originated_leaves.get(length)
                if leaf is None:
                    leaf = engine.pinned(range(ADDR_BITS, key_bits), length, below=free)
                    self._originated_leaves[length] = leaf
                return engine.pinned(
                    range(level, ADDR_BITS), keys[lo] >> LEN_BITS, below=leaf
                )
            shift = key_bits - 1 - level
            mid = bisect_left(keys, ((keys[lo] >> shift) | 1) << shift, lo, hi)
            return engine.mk(
                level,
                split(lo, mid, level + 1) if mid > lo else FALSE,
                split(mid, hi, level + 1) if mid < hi else FALSE,
            )

        return split(0, len(keys), 0) if keys else FALSE

    # -- structure spaces --------------------------------------------------

    def prefix_list_line_space(self, line: PrefixListLine) -> int:
        """Exact encoding of ``PrefixListLine.matches``, within
        :meth:`routes`."""
        if line.ge is None and line.le is None:
            band = self.length_eq(line.prefix.length)
        else:
            low = line.ge if line.ge is not None else line.prefix.length
            high = line.le if line.le is not None else 32
            # contains_prefix additionally requires the matched prefix to
            # be at least as long as the list entry's.
            low = max(low, line.prefix.length)
            band = self.length_in_range(low, high)
        engine = self.engine
        return engine.and_(
            engine.and_(self.address_under(line.prefix), band), self.routes()
        )

    def prefix_list_space(self, plist: PrefixList) -> int:
        """First-match permit space with implicit deny."""
        engine = self.engine
        remaining = TRUE
        permitted = FALSE
        for line in plist.lines:
            space = self.prefix_list_line_space(line)
            effective = engine.and_(space, remaining)
            if line.action is Action.PERMIT:
                permitted = engine.or_(permitted, effective)
            remaining = engine.diff(remaining, space)
        return permitted

    def community_list_space(self, clist: Optional[CommunityList]) -> int:
        """Routes carrying any member of ``clist`` (none when it is
        undefined: the concrete match fails)."""
        if clist is None:
            return FALSE
        return self.engine.or_all([self.community(c) for c in clist.communities])

    def example(self, bdd: int) -> Optional[Tuple[Prefix, FrozenSet[str]]]:
        """One route in ``bdd`` (a set within :meth:`routes`): its prefix
        and the communities it carries (free variables default to
        absent)."""
        assignment = self.engine.any_sat(bdd)
        if assignment is None:
            return None
        address = 0
        for bit in range(ADDR_BITS):
            address = (address << 1) | assignment.get(bit, 0)
        length = 0
        for bit in range(LEN_BITS):
            length = (length << 1) | assignment.get(ADDR_BITS + bit, 0)
        carried = frozenset(
            community
            for community, level in self._community_var.items()
            if assignment.get(level, 0)
        )
        return Prefix(address, length), carried

    def policy(self, device: Device, name: str) -> PolicySummary:
        """``device``'s route map ``name`` compiled by
        :func:`compile_policy`, once per universe."""
        key = (device.hostname, name)
        summary = self._policies.get(key)
        if summary is None:
            summary = self._policies[key] = compile_policy(self, device, name)
        return summary


@dataclass(frozen=True)
class ClauseSummary:
    """One route-map clause as the rules and the abstract transfer see
    it."""

    seq: int
    action: Action
    #: The prefix/community routes the clause matches: exact for
    #: prefix-list / community-list matches, ⊤-widened otherwise.
    guard: int
    #: Some route no earlier exact clause matches is in ``guard``: the
    #: clause can fire on its own, whatever reaches the map.
    reachable: bool
    #: ``match tag N`` — evaluated against the tag lattice.
    tag_eq: Optional[int] = None
    #: ``match protocol X`` values — resolvable on redistribution edges
    #: where the source domain is known.
    protocol_values: Tuple[str, ...] = ()
    #: as-path / metric matches present (never resolvable here).
    other_inexact: bool = False
    #: Ordered community rewrites: ("replace"|"add", members).
    community_ops: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    #: ``set tag N``.
    set_tag: Optional[int] = None
    #: Community-list names this clause matches on (resolved members in
    #: ``matched_communities``) — inputs to the community-dataflow rule.
    matched_lists: Tuple[str, ...] = ()
    matched_communities: Tuple[str, ...] = ()
    location: Location = Location()

    def is_exact(self, protocols_resolved: bool) -> bool:
        """Whether first-match residual subtraction is sound for this
        clause: every match condition is exactly represented."""
        return (
            self.tag_eq is None
            and not self.other_inexact
            and (not self.protocol_values or protocols_resolved)
        )


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
            and first.is_exact(False)
            and not first.community_ops
            and first.set_tag is None
        )


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
        guard = TRUE
        tag_eq: Optional[int] = None
        protocol_values: List[str] = []
        other_inexact = False
        matched_lists: List[str] = []
        matched_communities: List[str] = []
        for match in clause.matches:
            if match.kind is MatchKind.PREFIX_LIST:
                plist = device.prefix_lists.get(match.value)
                if plist is None:
                    # undefined_prefix_list_fails_match: never holds.
                    guard = FALSE
                else:
                    guard = engine.and_(guard, universe.prefix_list_space(plist))
            elif match.kind is MatchKind.COMMUNITY:
                clist = device.community_lists.get(match.value)
                guard = engine.and_(guard, universe.community_list_space(clist))
                matched_lists.append(match.value)
                if clist is not None:
                    matched_communities.extend(clist.communities)
            elif match.kind in (MatchKind.TAG, MatchKind.METRIC) and not match.value.isdecimal():
                # Not a number (a parse warning): matches no route.
                guard = FALSE
            elif match.kind is MatchKind.TAG:
                value = int(match.value)
                if tag_eq is not None and tag_eq != value:
                    guard = FALSE  # tag == a and tag == b, a != b
                else:
                    tag_eq = value
            elif match.kind is MatchKind.PROTOCOL:
                protocol_values.append(match.value)
            else:
                # as-path regexes, metric: widen to ⊤.
                other_inexact = True
        community_ops: List[Tuple[str, Tuple[str, ...]]] = []
        set_tag: Optional[int] = None
        for set_clause in clause.sets:
            if set_clause.kind is SetKind.COMMUNITY:
                community_ops.append(("replace", tuple(set_clause.value.split())))
            elif set_clause.kind is SetKind.COMMUNITY_ADDITIVE:
                community_ops.append(("add", tuple(set_clause.value.split())))
            elif set_clause.kind is SetKind.TAG:
                try:
                    set_tag = int(set_clause.value)
                except ValueError:
                    pass
        summary = ClauseSummary(
            seq=clause.seq,
            action=clause.action,
            guard=guard,
            reachable=engine.and_(residual, guard) != FALSE,
            tag_eq=tag_eq,
            protocol_values=tuple(protocol_values),
            other_inexact=other_inexact,
            community_ops=tuple(community_ops),
            set_tag=set_tag,
            matched_lists=tuple(matched_lists),
            matched_communities=tuple(matched_communities),
            location=Location(clause.source_file, clause.source_line),
        )
        if summary.is_exact(False):
            residual = engine.diff(residual, guard)
        clauses.append(summary)
    return PolicySummary(
        hostname=device.hostname,
        name=name,
        defined=True,
        clauses=tuple(clauses),
        location=Location(route_map.source_file, route_map.source_line),
    )
