"""RIBs and RIB deltas (§4.1.3).

The engine's memory discipline follows the paper's hybrid approach: the
BGP RIB keeps its active routes plus a :class:`RibDelta` for the current
and previous iteration; there are no per-neighbor message queues.
Receivers pull deltas directly and run export + import policy + merge in
one step, so peak memory stays near "the number of routes actually
accepted by routers".

:class:`Rib` is the generic best-route table used for the main RIB and
the protocol RIBs of OSPF/static/connected routes; BGP has its own RIB
(:mod:`repro.routing.bgp`) because its decision process needs per-peer
candidate tracking and logical clocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.hdr.ip import Ip, Prefix
from repro.provenance import record as prov
from repro.routing.prefix_trie import PrefixTrie
from repro.routing.route import BgpRoute, ConnectedRoute, OspfRoute, StaticRouteEntry


@dataclass
class RibDelta:
    """Routes that became best (`added`) and stopped being best
    (`removed`) since the delta was last cleared."""

    added: List[object] = field(default_factory=list)
    removed: List[object] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.added and not self.removed

    def extend(self, other: "RibDelta") -> None:
        """Fold another delta into this one, cancelling add/remove pairs
        so a route added then removed leaves no trace."""
        _fold(other.added, self.added, self.removed)
        _fold(other.removed, self.removed, self.added)

    def clear(self) -> "RibDelta":
        """Return a copy and empty this delta."""
        snapshot = RibDelta(list(self.added), list(self.removed))
        self.added.clear()
        self.removed.clear()
        return snapshot


def _fold(routes: List[object], into: List[object], against: List[object]) -> None:
    """Append each of ``routes`` to ``into`` unless an equal route waits
    in ``against``, which it cancels instead (first occurrence)."""
    if not routes or not against:
        into.extend(routes)
        return
    # Hashed membership; the list scan is paid only by a real cancel.
    waiting = set(against)
    for route in routes:
        if route in waiting:
            against.remove(route)
            if route not in against:
                waiting.discard(route)
        else:
            into.append(route)


class _ReprOrder:
    """The last component of :func:`route_sort_key`: orders by the
    route's ``repr``, rendered only when a comparison gets this far —
    i.e. when two routes tie on every cheaper component."""

    __slots__ = ("_route",)

    def __init__(self, route):
        self._route = route

    def __eq__(self, other):
        return repr(self._route) == repr(other._route)

    def __lt__(self, other):
        return repr(self._route) < repr(other._route)


def _same_prefix_key(route) -> Tuple:
    """:func:`route_sort_key` without its prefix component: the order of
    routes that share a prefix."""
    next_hop = getattr(route, "next_hop_ip", None)
    interface = getattr(route, "next_hop_interface", None) or getattr(
        route, "interface", None
    )
    return (
        route.protocol.value,
        next_hop.value if next_hop is not None else -1,
        interface or "",
        _ReprOrder(route),
    )


def route_sort_key(route) -> Tuple:
    """Deterministic total order over routes — used to keep ECMP sets and
    answer rows stable across runs (paper §4.1.2: "consistent results
    across simulations")."""
    return (str(route.prefix),) + _same_prefix_key(route)


def sorted_best_set(routes: List[object]) -> List[object]:
    """The routes of *one prefix* in :func:`route_sort_key` order. A set
    of one needs no key, and none needs the prefix rendered."""
    if len(routes) < 2:
        return list(routes)
    return sorted(routes, key=_same_prefix_key)


def main_rib_preference(route) -> Tuple[int, int]:
    """Preference key for cross-protocol best-route selection in the main
    RIB: administrative distance first, then the protocol metric. Lower
    is better; ties form an ECMP set."""
    if isinstance(route, OspfRoute):
        return (route.admin_distance, route.cost)
    if isinstance(route, BgpRoute):
        return (route.admin_distance, 0)
    if isinstance(route, (ConnectedRoute, StaticRouteEntry)):
        return (route.admin_distance, 0)
    return (getattr(route, "admin_distance", 255), 0)


class Rib:
    """A best-route table with pluggable preference.

    ``owner`` names the hosting node for provenance recording: when set
    and :mod:`repro.provenance` is recording, every merge/withdraw logs
    whether the candidate became best or was suppressed (and by what) —
    the "main-rib" outcome half of a route's derivation trace.
    """

    def __init__(
        self,
        preference: Callable[[object], Tuple] = main_rib_preference,
        owner: Optional[str] = None,
    ):
        self._preference = preference
        self._candidates: Dict[Prefix, List[object]] = {}
        #: prefix -> best set, written once per *changed* set: the one
        #: store behind exact-prefix reads, LPM and ordered iteration.
        self._best: PrefixTrie = PrefixTrie()
        self.owner = owner
        #: :meth:`rendered`, once asked; dropped by any change.
        self._rendered: Optional[Tuple[str, ...]] = None

    def __getstate__(self) -> Dict[str, object]:
        # A rendering is the reader's, not the table's: never pickled.
        return {**self.__dict__, "_rendered": None}

    # -- mutation ---------------------------------------------------------

    def merge(self, route) -> bool:
        """Add a candidate route. Returns True if the best set changed."""
        candidates = self._candidates.setdefault(route.prefix, [])
        if route in candidates:
            return False
        candidates.append(route)
        changed = self._reselect(route.prefix)
        if prov.enabled() and self.owner is not None:
            self._record_merge_outcome(route)
        return changed

    def _record_merge_outcome(self, route) -> None:
        best = self._best.get(route.prefix)
        if route in best:
            detail = f"{route.describe()} selected as best"
            if len(best) > 1:
                detail += f" (ECMP set of {len(best)})"
            prov.route_event(
                self.owner, route.prefix, "main-rib", "best", detail
            )
        else:
            incumbent = best[0] if best else None
            prov.route_event(
                self.owner,
                route.prefix,
                "main-rib",
                "suppressed",
                f"{route.describe()} lost best selection to "
                f"{incumbent.describe() if incumbent else 'nothing'} "
                f"(preference {self._preference(route)} vs "
                f"{self._preference(incumbent) if incumbent else '-'})",
            )

    def withdraw(self, route) -> bool:
        """Remove a candidate route. Returns True if the best set changed."""
        candidates = self._candidates.get(route.prefix)
        if not candidates or route not in candidates:
            return False
        candidates.remove(route)
        if not candidates:
            del self._candidates[route.prefix]
        changed = self._reselect(route.prefix)
        if prov.enabled() and self.owner is not None:
            prov.route_event(
                self.owner,
                route.prefix,
                "main-rib",
                "withdrawn",
                f"{route.describe()} withdrawn"
                + (" (best set changed)" if changed else ""),
            )
        return changed

    def clear_prefix(self, prefix: Prefix) -> bool:
        """Drop all candidates for a prefix."""
        if prefix not in self._candidates:
            return False
        del self._candidates[prefix]
        return self._reselect(prefix)

    def _reselect(self, prefix: Prefix) -> bool:
        old_best = self._best.get(prefix)
        candidates = self._candidates.get(prefix, [])
        if len(candidates) > 1:
            preferences = [self._preference(r) for r in candidates]
            best_key = min(preferences)
            new_best = sorted_best_set(
                [r for r, key in zip(candidates, preferences) if key == best_key]
            )
        else:
            new_best = list(candidates)
        if new_best == old_best:
            return False
        self._best.replace(prefix, new_best)
        self._rendered = None
        return True

    # -- queries ------------------------------------------------------------

    def best_routes(self, prefix: Prefix) -> List[object]:
        """The ECMP set of best routes for an exact prefix."""
        return self._best.get(prefix)

    def longest_match(self, ip: "Ip | int") -> Optional[Tuple[Prefix, List[object]]]:
        """LPM over best routes."""
        return self._best.longest_match(ip)

    def routes(self) -> Iterator[object]:
        """All best routes, in deterministic prefix order."""
        for _prefix, routes in self._best.items():
            yield from routes

    def rendered(self) -> Tuple[str, ...]:
        """Every best route's ``describe()``, in :meth:`routes` order:
        rendered on first use and kept until the table changes. A delta
        session that takes this table takes its rendering with it."""
        rendered = self._rendered
        if rendered is None:
            rendered = self._rendered = tuple(route.describe() for route in self.routes())
        return rendered

    def prefixes(self) -> List[Prefix]:
        return [prefix for prefix, _ in self._best.items()]

    def __len__(self) -> int:
        """Number of best routes across all prefixes."""
        return self._best.value_count()

    def same_best(self, other: "Rib") -> bool:
        """Equal best sets for the same prefixes: all that a reader of a
        converged table (LPM, :meth:`routes`, the FIB) can see."""
        return self._best == other._best
