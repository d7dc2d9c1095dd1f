"""The abstract route domain of the dataflow engine.

An abstract state is a pair:

* a route-space BDD (:mod:`repro.routing.routespace`) over prefix bits,
  length bits, the snapshot-wide community alphabet, and one *origin
  flag* variable ("this route entered BGP through redistribution" —
  what the route-leak rule keys on), and
* a small *tag lattice*: the set of route-tag values any route in the
  state may carry, widened to ⊤ (``None``) past a fixed size. Tags
  live outside the BDD because they are matched by equality against
  arbitrary integers — a per-value variable encoding would grow the
  universe with every edit.

Everything here over-approximates: joins are unions, transfers only
ever *add* behaviour for constructs they cannot model exactly (the
"never subtract inexact" rule of
:func:`~repro.routing.policy.compile_policy`, whose match and set rows
are the simulator's too). See DESIGN.md "Propagation-graph soundness".

:func:`build_universe` makes the one route-space universe that lint's
semantic rules and its fixpoint share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from repro.bdd.engine import FALSE
from repro.config.model import Snapshot
from repro.routing.policy import set_communities
from repro.routing.routespace import RouteSpaceUniverse, TagSet

#: The extra BDD variable marking routes that entered BGP via a
#: ``redistribute`` statement (as opposed to a ``network`` statement).
ORIGIN_FLAG = "redistributed"

#: Tag sets wider than this widen to ⊤ (``None``).
MAX_TAGS = 32

#: The tag a route carries when nothing ever set one (PolicyRoute
#: default).
DEFAULT_TAG = 0


def snapshot_communities(snapshot: Snapshot) -> Set[str]:
    """Every community string the snapshot can mention on a route:
    community-list members (matchable) plus ``set community`` values
    (settable). Routes are originated with no communities, so this
    alphabet is closed under every concrete transfer."""
    communities: Set[str] = set()
    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        for clist in device.community_lists.values():
            communities.update(clist.communities)
        for route_map in device.route_maps.values():
            for clause in route_map.clauses:
                communities.update(set_communities(clause))
    return communities


def build_universe(snapshot: Snapshot) -> RouteSpaceUniverse:
    """The snapshot-wide variable space shared by every node state and
    every compiled route map: the one place a universe is made."""
    return RouteSpaceUniverse(
        communities=snapshot_communities(snapshot), flags=(ORIGIN_FLAG,)
    )


def join_tags(a: TagSet, b: TagSet) -> TagSet:
    if a is None or b is None:
        return None
    merged = a | b
    if len(merged) > MAX_TAGS:
        return None
    return merged


@dataclass(frozen=True)
class AbstractRoutes:
    """One node's abstract state: a route-space BDD plus the tag set.

    ``bdd`` is a node id in the analysis universe's engine; states from
    different analyses never mix (the engine asserts by construction —
    BDD ids are engine-local).
    """

    bdd: int
    tags: TagSet

    @staticmethod
    def bottom() -> "AbstractRoutes":
        return AbstractRoutes(FALSE, frozenset())

    def is_bottom(self) -> bool:
        return self.bdd == FALSE

    def join(
        self, other: "AbstractRoutes", universe: RouteSpaceUniverse
    ) -> "AbstractRoutes":
        return AbstractRoutes(
            universe.engine.or_(self.bdd, other.bdd),
            join_tags(self.tags, other.tags),
        )


def private_space(universe: RouteSpaceUniverse) -> int:
    """RFC1918 address space (any length) — the confinement predicate
    the route-leak rule checks at external boundaries."""
    from repro.hdr.ip import Prefix

    return universe.engine.or_all(
        [
            universe.address_under(Prefix("10.0.0.0/8")),
            universe.address_under(Prefix("172.16.0.0/12")),
            universe.address_under(Prefix("192.168.0.0/16")),
        ]
    )


#: Community spellings that mark a route as not-to-be-exported; a route
#: carrying one crossing an eBGP edge is a leak.
NO_EXPORT_COMMUNITIES = ("no-export", "65535:65281")
