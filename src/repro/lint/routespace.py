"""A small BDD encoding of *route* space for policy reachability.

The packet-space encoder (`repro.hdr`) models packets; route maps match
on route attributes instead — the announced prefix (address + length)
and the community set. This module builds a BDD over:

* 32 variables for the prefix network address (MSB first),
* 6 variables for the prefix length (0..32 in a 6-bit field),
* one variable per distinct community string,
* optional extra flag variables (the dataflow engine uses one to track
  "this route entered BGP through redistribution").

That is enough to encode prefix-list and community-list matches
*exactly*, mirroring the concrete first-match semantics of
``PrefixList.permits`` / ``CommunityList.permits``. Matches the engine
cannot encode (as-path regexes, tag/metric/protocol) are treated as
"unknown": the clause's space becomes an over-approximation, which
keeps unreachability findings sound — a clause is only flagged when
even the over-approximation has no route left to match.

Two layers:

* :class:`RouteSpaceUniverse` — the shared variable order (address +
  length + a fixed community alphabet). One universe per device for the
  single-device clause-reachability rules; one snapshot-wide universe
  for the cross-device dataflow fixpoint, so sets built on different
  devices combine.
* :class:`RouteSpace` — a public, immutable set-of-routes value with
  ``union`` / ``intersect`` / ``complement``; the dataflow lattice's
  carrier.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.bdd.engine import FALSE, TRUE, BddEngine
from repro.config.model import (
    Action,
    Device,
    MatchKind,
    PrefixList,
    PrefixListLine,
    RouteMapClause,
)
from repro.hdr.ip import Prefix

ADDR_BITS = 32
LEN_BITS = 6  # values 0..63; only 0..32 are produced by parsers


class RouteSpaceUniverse:
    """The variable order shared by every :class:`RouteSpace` built
    against it: 32 address bits, 6 length bits, then one variable per
    community in a fixed (sorted) alphabet, then any extra flag
    variables. Sets from two universes never mix; the dataflow engine
    builds one snapshot-wide universe so sets built on different
    devices can be joined.
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

    def fingerprint(self) -> str:
        """Content address of the variable order. Two universes with the
        same fingerprint produce comparable canonical BDDs."""
        digest = hashlib.sha256()
        for community in self.communities:
            digest.update(community.encode())
            digest.update(b"\x00")
        digest.update(b"\x01")
        for flag in self.flags:
            digest.update(flag.encode())
            digest.update(b"\x00")
        return digest.hexdigest()

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

    def space(self, bdd: int) -> "RouteSpace":
        return RouteSpace(self, bdd)

    def empty(self) -> "RouteSpace":
        return RouteSpace(self, FALSE)

    def full(self) -> "RouteSpace":
        return RouteSpace(self, TRUE)


@dataclass(frozen=True)
class RouteSpace:
    """A set of abstract routes (prefix + community/flag membership)
    over a :class:`RouteSpaceUniverse`.

    **Over-approximation contract.** Spaces produced from route-map
    clauses are *supersets* of the concrete match sets whenever a clause
    contains a match the encoding cannot express (as-path regex, tag,
    metric, protocol): inexact constraints widen to ⊤ — they are never
    used to *shrink* a set. Consequently:

    * ``union`` and ``intersect`` of over-approximations are again
      over-approximations, so emptiness of any combination soundly
      proves concrete emptiness (the unreachable-clause argument);
    * ``complement`` of an over-approximation is an
      *under*-approximation — never complement an inexact space and
      then claim a route is outside the original set. Complement is
      exact only for spaces built purely from encodable constraints
      (prefix lists, community lists, atoms).
    """

    universe: RouteSpaceUniverse
    bdd: int

    def _check(self, other: "RouteSpace") -> None:
        if other.universe is not self.universe:
            raise ValueError(
                "RouteSpace operands belong to different universes"
            )

    def union(self, other: "RouteSpace") -> "RouteSpace":
        self._check(other)
        return RouteSpace(
            self.universe, self.universe.engine.or_(self.bdd, other.bdd)
        )

    def intersect(self, other: "RouteSpace") -> "RouteSpace":
        self._check(other)
        return RouteSpace(
            self.universe, self.universe.engine.and_(self.bdd, other.bdd)
        )

    def complement(self) -> "RouteSpace":
        """Set complement over the full universe. See the class
        docstring: only meaningful for exactly-encoded spaces."""
        return RouteSpace(
            self.universe, self.universe.engine.not_(self.bdd)
        )

    def difference(self, other: "RouteSpace") -> "RouteSpace":
        self._check(other)
        return RouteSpace(
            self.universe, self.universe.engine.diff(self.bdd, other.bdd)
        )

    def is_empty(self) -> bool:
        return self.bdd == FALSE

    def contains_prefix(self, prefix: Prefix) -> bool:
        """True when some route announcing exactly ``prefix`` (any
        community/flag membership) is in the set."""
        atom = self.universe.prefix_atom(prefix)
        return self.universe.engine.and_(atom, self.bdd) != FALSE

    def example(
        self,
    ) -> Optional[Tuple[Prefix, FrozenSet[str]]]:
        """One witness route from the set: its prefix and the
        communities it carries (free variables default to absent)."""
        assignment = self.universe.engine.any_sat(self.bdd)
        if assignment is None:
            return None
        address = 0
        for bit in range(ADDR_BITS):
            address = (address << 1) | assignment.get(bit, 0)
        length = 0
        for bit in range(LEN_BITS):
            length = (length << 1) | assignment.get(ADDR_BITS + bit, 0)
        length = min(length, 32)
        carried = frozenset(
            community
            for community, level in self.universe._community_var.items()
            if assignment.get(level, 0)
        )
        return Prefix(address, length), carried

    def canonical(self) -> object:
        """Engine-independent structural form (see
        :meth:`repro.bdd.engine.BddEngine.canonical`); equal across
        engines sharing the universe fingerprint iff the sets match."""
        return self.universe.engine.canonical(self.bdd)


class RouteSpaceEncoder:
    """Per-device symbolic encoder for route-map match spaces.

    Builds a private single-device universe by default; pass a shared
    ``universe`` (the dataflow engine's snapshot-wide one) to make the
    resulting spaces combinable across devices.
    """

    def __init__(
        self, device: Device, universe: Optional[RouteSpaceUniverse] = None
    ):
        self.device = device
        if universe is None:
            universe = RouteSpaceUniverse(
                communities={
                    community
                    for clist in device.community_lists.values()
                    for community in clist.communities
                }
            )
        self.universe = universe
        self.engine = universe.engine

    # -- field primitives (delegated to the universe) ----------------------

    def _length_eq(self, value: int) -> int:
        return self.universe.length_eq(value)

    def length_in_range(self, low: int, high: int) -> int:
        return self.universe.length_in_range(low, high)

    def address_under(self, prefix: Prefix) -> int:
        return self.universe.address_under(prefix)

    def community(self, name: str) -> int:
        return self.universe.community(name)

    # -- structure spaces --------------------------------------------------

    def prefix_list_line_space(self, line: PrefixListLine) -> int:
        """Exact encoding of ``PrefixListLine.matches``."""
        if line.ge is None and line.le is None:
            band = self._length_eq(line.prefix.length)
        else:
            low = line.ge if line.ge is not None else line.prefix.length
            high = line.le if line.le is not None else 32
            # contains_prefix additionally requires the matched prefix to
            # be at least as long as the list entry's.
            low = max(low, line.prefix.length)
            band = self.length_in_range(low, high)
        return self.engine.and_(self.address_under(line.prefix), band)

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

    def community_list_space(self, name: str) -> int:
        clist = self.device.community_lists.get(name)
        if clist is None:
            return FALSE
        return self.engine.or_all(
            [self.community(c) for c in clist.communities]
        )

    def clause_space(self, clause: RouteMapClause) -> Tuple[int, bool]:
        """The set of routes a clause's match conditions accept.

        Returns ``(space, exact)``. When ``exact`` is False the space is
        an over-approximation (some match kind was not encodable), safe
        for proving *unreachability* but not for subtracting from the
        residual of later clauses.
        """
        engine = self.engine
        space = TRUE
        exact = True
        for match in clause.matches:
            if match.kind is MatchKind.PREFIX_LIST:
                plist = self.device.prefix_lists.get(match.value)
                if plist is None:
                    # Mirrors DEFAULT_SEMANTICS.undefined_prefix_list_
                    # fails_match: the match never holds.
                    space = FALSE
                else:
                    space = engine.and_(space, self.prefix_list_space(plist))
            elif match.kind is MatchKind.COMMUNITY:
                space = engine.and_(
                    space, self.community_list_space(match.value)
                )
            else:
                # as-path regexes, tag/metric/protocol: not encoded.
                exact = False
        return space, exact
