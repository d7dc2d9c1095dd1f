"""FIB construction: from main-RIB best routes to concrete forwarding
entries with resolved output interfaces and next-hop addresses.

Recursive next hops (BGP routes whose next hop is reached via an IGP
route) are resolved here, bounded to a fixed depth. Null-routed
prefixes become explicit drop entries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.hdr.ip import Ip, Prefix
from repro.provenance import record as prov
from repro.routing.engine import DataPlane, NodeState
from repro.routing.prefix_trie import PrefixTrie
from repro.routing.route import (
    BgpRoute,
    ConnectedRoute,
    OspfRoute,
    StaticRouteEntry,
)

_MAX_RESOLUTION_DEPTH = 8

A = TypeVar("A")
C = TypeVar("C", bound=Hashable)


class FibActionType(enum.Enum):
    FORWARD = "forward"
    DROP_NULL = "drop-null"  # null-routed / discard
    DROP_NO_ROUTE = "drop-no-route"  # unresolvable


#: What a FIB entry does with a packet: ``(action, out_interface,
#: arp_ip)``. Entries of different prefixes with one key are
#: indistinguishable to forwarding.
ActionKey = Tuple[FibActionType, Optional[str], Optional[Ip]]

#: The fate of an address no prefix covers (and of unresolvable routes).
NO_ROUTE_KEY: ActionKey = (FibActionType.DROP_NO_ROUTE, None, None)


@dataclass(frozen=True, slots=True)
class FibEntry:
    """One resolved forwarding entry.

    ``arp_ip`` is the address the packet is forwarded toward on the wire
    — ``None`` for connected prefixes (deliver to the destination
    itself). Slotted: large networks materialize one per (prefix, ECMP
    path) pair, so the per-instance ``__dict__`` is worth dropping.
    """

    prefix: Prefix
    action: FibActionType
    out_interface: Optional[str] = None
    arp_ip: Optional[Ip] = None
    source_route: Optional[object] = None  # provenance for annotations

    @property
    def action_key(self) -> ActionKey:
        return (self.action, self.out_interface, self.arp_ip)

    def describe(self) -> str:
        if self.action is not FibActionType.FORWARD:
            return f"{self.prefix} {self.action.value}"
        via = f" via {self.arp_ip}" if self.arp_ip else ""
        return f"{self.prefix} -> {self.out_interface}{via}"


class Fib:
    """The forwarding table of one node, with LPM lookup."""

    __slots__ = ("hostname", "_trie")

    def __init__(self, hostname: str):
        self.hostname = hostname
        self._trie: PrefixTrie = PrefixTrie()

    def add(self, entry: FibEntry) -> None:
        self._trie.add(entry.prefix, entry)

    def lookup(self, ip: "Ip | int") -> List[FibEntry]:
        """All ECMP entries for the longest matching prefix (empty list
        when no route covers the address)."""
        match = self._trie.longest_match(ip)
        if match is None:
            return []
        _prefix, entries = match
        return entries

    def entries(self) -> List[Tuple[Prefix, List[FibEntry]]]:
        return list(self._trie.items())

    def lpm_classes(
        self,
        join: Callable[[int, A, A], A],
        full: A,
        empty: A,
        markers: Iterable[Tuple[Prefix, Hashable]] = (),
        class_of: Callable[
            [Tuple[FrozenSet[ActionKey], FrozenSet[Hashable]]], C
        ] = lambda state: state,
    ) -> Dict[C, A]:
        """The forwarding equivalence classes of this FIB: destination
        addresses partitioned by ``class_of((actions, marks))`` — the
        *set* of actions their longest matching prefix takes (several
        under ECMP; ``{NO_ROUTE_KEY}`` where nothing matches) and the
        set of ``markers`` whose prefix they lie in. A route replaces
        the actions of the shorter routes around it; a marker only
        refines, whatever the routes inside or around it. One pass over
        the FIB's table and the markers together; the address sets are
        built in the caller's algebra, see
        :meth:`PrefixTrie.lpm_partition`."""
        return self.lpm_classes_under(
            [Prefix(0, 0)], join, full, empty, markers, class_of
        )[0]

    def lpm_classes_under(
        self,
        prefixes: Sequence[Prefix],
        join: Callable[[int, A, A], A],
        full: A,
        empty: A,
        markers: Iterable[Tuple[Prefix, Hashable]],
        class_of: Callable[[Tuple[FrozenSet[ActionKey], FrozenSet[Hashable]]], C],
    ) -> List[Dict[C, A]]:
        """Per prefix of ``prefixes``, :meth:`lpm_classes` of the
        addresses under it, its sets rooted at its depth
        (:meth:`PrefixTrie.lpm_partition_under`)."""
        table = self._trie.copy()
        for prefix, marker in markers:
            table.add(prefix, marker)

        def state_of(values, inherited):
            actions, marks = inherited
            keys = []
            for value in values:
                if type(value) is FibEntry:
                    keys.append(value.action_key)
                else:
                    marks = marks | {value}
            return (frozenset(keys) if keys else actions, marks)

        default = (frozenset((NO_ROUTE_KEY,)), frozenset())
        return [
            table.lpm_partition_under(
                prefix, state_of, class_of, join, full, empty, default
            )
            for prefix in prefixes
        ]

    def changed_prefixes(self, base: "Fib") -> List[Prefix]:
        """The prefixes outside which this FIB forwards every address as
        ``base`` does: those whose set of actions differs between the
        two, or that one of them lacks, and that no other such prefix
        contains (:meth:`PrefixTrie.differences`)."""
        return self._trie.differences(
            base._trie, lambda entries: frozenset(e.action_key for e in entries)
        )

    def __len__(self) -> int:
        return self._trie.value_count()


def build_fib(state: NodeState) -> Fib:
    """Resolve every best route of the node's main RIB into FIB entries."""
    hostname = state.device.hostname
    fib = Fib(hostname)
    recording = prov.enabled()
    for route in state.main_rib.routes():
        for entry in _resolve_route(state, route, route, 0, None):
            fib.add(entry)
            if recording:
                _record_fib_entry(hostname, route, entry)
    return fib


def _record_fib_entry(hostname: str, route, entry: "FibEntry") -> None:
    if entry.action is FibActionType.FORWARD:
        detail = f"{route.describe()} resolved to {entry.describe()}"
        if entry.arp_ip is not None and _next_hop_of(route) != entry.arp_ip:
            detail += " (recursive next-hop resolution)"
        prov.route_event(hostname, route.prefix, "fib", "resolved", detail)
    elif entry.action is FibActionType.DROP_NULL:
        prov.route_event(
            hostname, route.prefix, "fib", "dropped",
            f"{route.describe()} null-routed: explicit discard entry",
        )
    else:
        prov.route_event(
            hostname, route.prefix, "fib", "dropped",
            f"{route.describe()} unresolvable: next hop has no covering "
            "route (or resolution depth exceeded)",
        )


def _resolve_route(
    state: NodeState, original, route, depth, via_ip: Optional[Ip]
) -> List[FibEntry]:
    """Resolve ``route`` for the ``original`` route's prefix.

    ``via_ip`` is the most recent next-hop address along the recursive
    resolution chain; when the chain bottoms out on a connected prefix,
    that innermost next hop is the address the packet is ARP'd toward.
    """
    prefix = original.prefix
    if depth > _MAX_RESOLUTION_DEPTH:
        return [FibEntry(prefix, FibActionType.DROP_NO_ROUTE, source_route=original)]
    if isinstance(route, ConnectedRoute):
        return [
            FibEntry(
                prefix,
                FibActionType.FORWARD,
                out_interface=route.interface,
                arp_ip=via_ip,
                source_route=original,
            )
        ]
    if isinstance(route, OspfRoute):
        return [
            FibEntry(
                prefix,
                FibActionType.FORWARD,
                out_interface=route.next_hop_interface,
                arp_ip=route.next_hop_ip,
                source_route=original,
            )
        ]
    if isinstance(route, StaticRouteEntry):
        if route.is_null_routed:
            return [FibEntry(prefix, FibActionType.DROP_NULL, source_route=original)]
        if route.next_hop_interface is not None:
            return [
                FibEntry(
                    prefix,
                    FibActionType.FORWARD,
                    out_interface=route.next_hop_interface,
                    arp_ip=route.next_hop_ip,
                    source_route=original,
                )
            ]
        return _resolve_via_rib(state, original, route.next_hop_ip, depth)
    if isinstance(route, BgpRoute):
        return _resolve_via_rib(state, original, route.next_hop_ip, depth)
    return [FibEntry(prefix, FibActionType.DROP_NO_ROUTE, source_route=original)]


def _resolve_via_rib(state, original, next_hop: Optional[Ip], depth) -> List[FibEntry]:
    if next_hop is None:
        return [
            FibEntry(
                original.prefix, FibActionType.DROP_NO_ROUTE, source_route=original
            )
        ]
    match = state.main_rib.longest_match(next_hop)
    if match is None:
        return [
            FibEntry(
                original.prefix, FibActionType.DROP_NO_ROUTE, source_route=original
            )
        ]
    _prefix, resolving_routes = match
    entries: List[FibEntry] = []
    for resolving in resolving_routes:
        if resolving.prefix == original.prefix and resolving is original:
            continue  # self-resolution guard
        for entry in _resolve_route(state, original, resolving, depth + 1, next_hop):
            entries.append(entry)
    # Deduplicate ECMP duplicates deterministically.
    unique: Dict[ActionKey, FibEntry] = {}
    for entry in entries:
        unique.setdefault(entry.action_key, entry)
    return [unique[key] for key in sorted(unique, key=repr)]


def _next_hop_of(route) -> Optional[Ip]:
    return getattr(route, "next_hop_ip", None)


def compute_fibs(dataplane: DataPlane) -> Dict[str, Fib]:
    """Build the FIB of every node in a computed data plane."""
    return {
        hostname: build_fib(state)
        for hostname, state in sorted(dataplane.nodes.items())
    }
