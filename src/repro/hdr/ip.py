"""IPv4 primitives: addresses, prefixes, and ranges.

These are the foundational value types used throughout the system:
configuration models, routes, FIBs, and the BDD packet encoding all speak
in terms of :class:`Ip` and :class:`Prefix`.

Both types are immutable, interned-friendly (cheap ``__hash__``/``__eq__``
on a single int), and totally ordered so they can key sorted structures
deterministically.
"""

from __future__ import annotations

import re
from functools import total_ordering
from typing import Iterator, Tuple

MAX_IP = 0xFFFFFFFF

_IP_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


@total_ordering
class Ip:
    """An IPv4 address, stored as a 32-bit unsigned integer."""

    __slots__ = ("_value",)

    def __init__(self, value: "int | str | Ip"):
        if isinstance(value, Ip):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value <= MAX_IP:
                raise ValueError(f"IPv4 value out of range: {value}")
            self._value = value
        elif isinstance(value, str):
            self._value = _parse_ip(value)
        else:
            raise TypeError(f"cannot build Ip from {type(value).__name__}")

    @property
    def value(self) -> int:
        """The address as a 32-bit unsigned integer."""
        return self._value

    def bit(self, index: int) -> int:
        """Return bit ``index`` of the address, MSB first (index 0 = MSB)."""
        if not 0 <= index < 32:
            raise ValueError(f"bit index out of range: {index}")
        return (self._value >> (31 - index)) & 1

    def plus(self, offset: int) -> "Ip":
        """Return the address ``offset`` after this one (wrapping is an error)."""
        return Ip(self._value + offset)

    def __str__(self) -> str:
        v = self._value
        return f"{v >> 24}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"Ip('{self}')"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ip) and self._value == other._value

    def __lt__(self, other: "Ip") -> bool:
        if not isinstance(other, Ip):
            return NotImplemented
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(self._value)


def _parse_ip(text: str) -> int:
    match = _IP_RE.match(text.strip())
    if not match:
        raise ValueError(f"invalid IPv4 address: {text!r}")
    octets = [int(g) for g in match.groups()]
    if any(o > 255 for o in octets):
        raise ValueError(f"invalid IPv4 address: {text!r}")
    return (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]


def _mask(length: int) -> int:
    return (MAX_IP << (32 - length)) & MAX_IP if length else 0


@total_ordering
class Prefix:
    """An IPv4 prefix (network address + prefix length), e.g. ``10.0.3.0/24``.

    The network address is canonicalized: host bits below the prefix length
    are zeroed on construction.
    """

    __slots__ = ("_network", "_length")

    def __init__(self, network: "int | str | Ip", length: "int | None" = None):
        if isinstance(network, str) and length is None:
            if "/" not in network:
                raise ValueError(f"prefix needs a /length: {network!r}")
            addr, _, plen = network.partition("/")
            network, length = _parse_ip(addr), int(plen)
        elif isinstance(network, Ip):
            network = network.value
        elif isinstance(network, str):
            network = _parse_ip(network)
        if length is None:
            raise ValueError("prefix length is required")
        if not 0 <= length <= 32:
            raise ValueError(f"prefix length out of range: {length}")
        mask = _mask(length)
        self._network = network & mask
        self._length = length

    @property
    def network(self) -> Ip:
        """Canonical network address."""
        return Ip(self._network)

    @property
    def network_value(self) -> int:
        """The network address as a 32-bit unsigned integer."""
        return self._network

    @property
    def length(self) -> int:
        """Prefix length in bits (0–32)."""
        return self._length

    @property
    def mask(self) -> Ip:
        """The netmask as an address (e.g. 255.255.255.0 for /24)."""
        return Ip(_mask(self._length))

    @property
    def first_ip(self) -> Ip:
        """Lowest address covered by the prefix (the network address)."""
        return Ip(self._network)

    @property
    def last_ip(self) -> Ip:
        """Highest address covered by the prefix (the broadcast address)."""
        return Ip(self._network | (MAX_IP >> self._length if self._length else MAX_IP))

    @property
    def num_ips(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - self._length)

    def contains_ip(self, ip: "Ip | int | str") -> bool:
        """True if ``ip`` is covered by this prefix."""
        value = ip.value if isinstance(ip, Ip) else Ip(ip).value
        return (value & _mask(self._length)) == self._network

    def contains_prefix(self, other: "Prefix") -> bool:
        """True if ``other`` is fully covered by this prefix (incl. equal)."""
        return (
            other._length >= self._length
            and (other._network & _mask(self._length)) == self._network
        )

    def overlaps(self, other: "Prefix") -> bool:
        """True if this prefix and ``other`` share any address."""
        return self.contains_prefix(other) or other.contains_prefix(self)

    def subnets(self) -> Tuple["Prefix", "Prefix"]:
        """Split into the two next-longer subnets."""
        if self._length >= 32:
            raise ValueError("cannot subnet a /32")
        child_len = self._length + 1
        low = Prefix(self._network, child_len)
        high = Prefix(self._network | (1 << (32 - child_len)), child_len)
        return low, high

    def host_ips(self, limit: "int | None" = None) -> Iterator[Ip]:
        """Iterate over host addresses (excludes network/broadcast for /30
        and shorter; includes everything for /31 and /32)."""
        if self._length >= 31:
            start, end = self.first_ip.value, self.last_ip.value
        else:
            start, end = self.first_ip.value + 1, self.last_ip.value - 1
        count = 0
        for value in range(start, end + 1):
            if limit is not None and count >= limit:
                return
            count += 1
            yield Ip(value)

    def __str__(self) -> str:
        return f"{self.network}/{self._length}"

    def __repr__(self) -> str:
        return f"Prefix('{self}')"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Prefix)
            and self._network == other._network
            and self._length == other._length
        )

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self._network, self._length) < (other._network, other._length)

    def __hash__(self) -> int:
        return hash((self._network, self._length))


ZERO_PREFIX = Prefix(0, 0)


def ip_range_to_prefixes(start: Ip, end: Ip) -> Iterator[Prefix]:
    """Cover the inclusive address range ``[start, end]`` with a minimal
    sequence of prefixes, in address order.

    This is the standard greedy range-to-CIDR decomposition used when
    converting range-based configuration (e.g. NAT pools) to prefix-based
    structures.
    """
    lo, hi = start.value, end.value
    if lo > hi:
        raise ValueError(f"empty range: {start} > {end}")
    while lo <= hi:
        # Largest power-of-two block aligned at lo that fits within [lo, hi].
        max_align = lo & -lo if lo else 1 << 32
        span = hi - lo + 1
        size = 1
        while size * 2 <= span and size * 2 <= max_align:
            size *= 2
        length = 32 - size.bit_length() + 1
        yield Prefix(lo, length)
        lo += size
        if lo == 0:  # wrapped past 2**32 - 1
            return
