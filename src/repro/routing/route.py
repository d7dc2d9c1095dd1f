"""Route representations and attribute interning (§4.1.3).

The paper's memory optimization: "the number of unique values for routing
attributes is orders of magnitude lower than the total number of routes.
Hence, we intern IP addresses, IP prefixes, BGP communities, and more
complex routing attributes, such as BGP AS paths and BGP community sets".
Further, "moving 13 properties of a BGP route into a single interned
object" exploits that attribute *combinations* are few (10–20x fewer than
routes) and cuts memory roughly in half.

We reproduce both layers here:

* :class:`InternPool` — a generic hash-consing pool with hit statistics
  (consumed by the interning ablation benchmark);
* :class:`BgpAttributes` — the single interned bundle of BGP route
  properties, so a :class:`BgpRoute` is just (prefix, next hop,
  attributes-reference);
* route value classes for every protocol the control plane models.

Routes are immutable values: equality/hashing is structural, which the
RIB-delta machinery relies on. All route classes are slotted
(``dataclass(slots=True)``): routes are the hottest per-object
allocation in data-plane generation, and dropping the per-instance
``__dict__`` cuts each route by roughly 50–100 bytes (the measured
delta is recorded in ``BENCH_table2.json`` by the benchmark driver).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Generic, Optional, Tuple, TypeVar

from repro.config.model import Protocol
from repro.hdr.ip import Ip, Prefix

T = TypeVar("T")


class InternPool(Generic[T]):
    """Hash-consing pool: ``intern(x)`` returns the canonical instance
    equal to ``x``. Tracks request/unique counts for memory accounting."""

    def __init__(self, name: str = ""):
        self.name = name
        self._pool: Dict[T, T] = {}
        self.requests = 0

    def intern(self, value: T) -> T:
        self.requests += 1
        canonical = self._pool.get(value)
        if canonical is None:
            self._pool[value] = value
            return value
        return canonical

    @property
    def unique(self) -> int:
        return len(self._pool)

    def stats(self) -> Dict[str, int]:
        return {"requests": self.requests, "unique": self.unique}

    def clear(self) -> None:
        self._pool.clear()
        self.requests = 0


# Administrative distances (vendor-classic defaults).
AD_CONNECTED = 0
AD_STATIC = 1
AD_EBGP = 20
AD_OSPF = 110
AD_OSPF_E2 = 110
AD_IBGP = 200


class Origin(enum.IntEnum):
    """BGP origin attribute; lower is preferred."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


@dataclass(frozen=True, slots=True)
class ConnectedRoute:
    prefix: Prefix
    interface: str
    protocol: Protocol = Protocol.CONNECTED
    admin_distance: int = AD_CONNECTED
    next_hop_ip: Optional[Ip] = None  # always None: directly attached

    def describe(self) -> str:
        return f"connected {self.prefix} via {self.interface}"


@dataclass(frozen=True, slots=True)
class StaticRouteEntry:
    prefix: Prefix
    next_hop_ip: Optional[Ip]
    next_hop_interface: Optional[str]
    admin_distance: int = AD_STATIC
    tag: int = 0
    protocol: Protocol = Protocol.STATIC

    @property
    def is_null_routed(self) -> bool:
        iface = (self.next_hop_interface or "").lower()
        return iface.startswith("null") or iface == "discard"

    def describe(self) -> str:
        target = self.next_hop_ip or self.next_hop_interface
        return f"static {self.prefix} -> {target} [{self.admin_distance}]"


class OspfRouteType(enum.IntEnum):
    """Preference order among OSPF route types: intra < inter < external."""

    INTRA_AREA = 0
    INTER_AREA = 1
    EXTERNAL_2 = 2


@dataclass(frozen=True, slots=True)
class OspfRoute:
    prefix: Prefix
    cost: int
    area: int
    next_hop_ip: Optional[Ip]
    next_hop_interface: str
    route_type: OspfRouteType = OspfRouteType.INTRA_AREA
    admin_distance: int = AD_OSPF

    @property
    def protocol(self) -> Protocol:
        return {
            OspfRouteType.INTRA_AREA: Protocol.OSPF,
            OspfRouteType.INTER_AREA: Protocol.OSPF_IA,
            OspfRouteType.EXTERNAL_2: Protocol.OSPF_E2,
        }[self.route_type]

    def describe(self) -> str:
        return (
            f"{self.protocol.value} {self.prefix} cost {self.cost} "
            f"via {self.next_hop_interface}"
        )


@dataclass(frozen=True, slots=True)
class BgpAttributes:
    """The interned bundle of BGP route properties (§4.1.3).

    Everything here is shared among the typically many routes that carry
    identical attribute combinations (e.g. multipath across DC tiers).
    """

    as_path: Tuple[int, ...] = ()
    local_pref: int = 100
    med: int = 0
    origin: Origin = Origin.IGP
    communities: Tuple[str, ...] = ()
    weight: int = 0
    originator_id: Optional[Ip] = None
    cluster_list: Tuple[Ip, ...] = ()
    admin_distance: int = AD_EBGP
    from_ibgp: bool = False
    source_protocol: Optional[Protocol] = None  # set when redistributed
    tag: int = 0
    atomic_aggregate: bool = False

    @staticmethod
    def make(**kwargs) -> "BgpAttributes":
        """Construct and intern an attribute bundle."""
        return _BGP_ATTR_POOL.intern(BgpAttributes(**kwargs))

    def with_changes(self, **changes) -> "BgpAttributes":
        """A (re-interned) copy with some properties replaced."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(changes)
        return BgpAttributes.make(**values)


_BGP_ATTR_POOL: InternPool[BgpAttributes] = InternPool("bgp-attributes")
_AS_PATH_POOL: InternPool[Tuple[int, ...]] = InternPool("as-paths")
_COMMUNITY_SET_POOL: InternPool[Tuple[str, ...]] = InternPool("community-sets")


def intern_as_path(path: Tuple[int, ...]) -> Tuple[int, ...]:
    """Intern an AS path tuple."""
    return _AS_PATH_POOL.intern(tuple(path))


def intern_communities(communities: Tuple[str, ...]) -> Tuple[str, ...]:
    """Intern a community set (kept sorted for canonical equality)."""
    return _COMMUNITY_SET_POOL.intern(tuple(sorted(set(communities))))


def interning_stats() -> Dict[str, Dict[str, int]]:
    """Statistics of all interning pools (for the memory ablation)."""
    return {
        pool.name: pool.stats()
        for pool in (_BGP_ATTR_POOL, _AS_PATH_POOL, _COMMUNITY_SET_POOL)
    }


def reset_interning() -> None:
    """Clear all pools (test isolation and ablation baselines)."""
    _BGP_ATTR_POOL.clear()
    _AS_PATH_POOL.clear()
    _COMMUNITY_SET_POOL.clear()


@dataclass(frozen=True, slots=True)
class BgpRoute:
    """A BGP route: prefix + next hop + a shared attribute bundle."""

    prefix: Prefix
    next_hop_ip: Ip
    attributes: BgpAttributes
    # The peer the route was learned from (None for locally originated).
    received_from: Optional[Ip] = None

    @property
    def protocol(self) -> Protocol:
        return Protocol.IBGP if self.attributes.from_ibgp else Protocol.BGP

    @property
    def admin_distance(self) -> int:
        return self.attributes.admin_distance

    @property
    def as_path(self) -> Tuple[int, ...]:
        return self.attributes.as_path

    @property
    def local_pref(self) -> int:
        return self.attributes.local_pref

    @property
    def communities(self) -> Tuple[str, ...]:
        return self.attributes.communities

    def describe(self) -> str:
        path = " ".join(str(asn) for asn in self.attributes.as_path) or "local"
        return (
            f"{self.protocol.value} {self.prefix} via {self.next_hop_ip} "
            f"lp {self.attributes.local_pref} path [{path}]"
        )


#: Any route the main RIB can hold.
AnyRoute = (ConnectedRoute, StaticRouteEntry, OspfRoute, BgpRoute)


def estimate_route_memory(num_routes: int, unique_bundles: int, interned: bool) -> int:
    """Rough memory model for the interning ablation (bytes).

    Per the paper, moving 13 properties into a single interned object
    saves 88 bytes per route; the bundle itself costs ~184 bytes but is
    shared across 10–20x routes.
    """
    bundle_bytes = 184
    route_with_inline_attrs = 88 + 96  # attributes inline + fixed part
    route_with_ref = 96  # fixed part + one reference
    if not interned:
        return num_routes * route_with_inline_attrs + num_routes * bundle_bytes
    return num_routes * route_with_ref + unique_bundles * bundle_bytes
