"""A BDD encoding of *route* space: the variables every route set and
compiled route map of a snapshot is built over.

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

Route tags are matched by equality against arbitrary integers, so they
live beside the BDD as a :data:`TagSet` rather than in it.

The lint stage builds one universe per snapshot
(:func:`repro.lint.dataflow.domain.build_universe`). The semantic rules
and the dataflow fixpoint both read it, so sets built on different
devices combine, and each route map compiles once
(:meth:`RouteSpaceUniverse.policy`, by
:func:`repro.routing.policy.compile_policy` from the same match and set
rows the simulator evaluates).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.bdd.engine import FALSE, TRUE, BddEngine
from repro.config.model import (
    Action,
    CommunityList,
    Device,
    PrefixList,
    PrefixListLine,
)
from repro.hdr.ip import Prefix

if TYPE_CHECKING:
    from repro.routing.policy import PolicySummary

#: The route tags a set of routes may carry; ``None`` is any tag.
TagSet = Optional[FrozenSet[int]]

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

    def flag(self, name: str) -> int:
        return self.engine.var(self._flag_var[name])

    def community_levels(self) -> List[int]:
        return [self._community_var[c] for c in self.communities]

    def flag_level(self, name: str) -> int:
        return self._flag_var[name]

    def flag_levels(self) -> List[int]:
        return [self._flag_var[f] for f in self.flags]

    def reset(self, bdd: int, levels: List[int], on: Sequence[int]) -> int:
        """``bdd`` with the variables ``levels`` (ascending) quantified
        away, then each pinned: set if it is in ``on``, else clear."""
        if not levels:
            return bdd
        engine = self.engine
        value = sum(1 << shift for shift, level in enumerate(reversed(levels)) if level in on)
        return engine.and_(engine.exists(bdd, engine.cube(levels)), engine.pinned(levels, value))

    def _levels(self, communities: Iterable[str]) -> List[int]:
        """The variables of ``communities`` in the alphabet, ascending."""
        return sorted({self._community_var[c] for c in communities if c in self._community_var})

    def with_communities(self, bdd: int, members: Iterable[str]) -> int:
        """``bdd`` with every route's communities replaced by ``members``."""
        return self.reset(bdd, self.community_levels(), self._levels(members))

    def add_communities(self, bdd: int, members: Iterable[str]) -> int:
        """``bdd`` with ``members`` added to every route's communities."""
        return self.reset(bdd, self._levels(members), self.community_levels())

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
        :func:`~repro.routing.policy.compile_policy`, once per universe."""
        from repro.routing import policy  # it compiles over this module

        key = (device.hostname, name)
        summary = self._policies.get(key)
        if summary is None:
            summary = self._policies[key] = policy.compile_policy(self, device, name)
        return summary
