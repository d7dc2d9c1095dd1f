"""Question params on the wire: one typed error, one schema binder and
the shared codecs.

A schema is ``{wire key: Param}``; :func:`decode_object` holds a raw
JSON value to one and is the only place a key is rejected — for a
question's params (:func:`repro.questions.registry.bind`), for every
object nested inside them (a packet, a headerspace, a sweep property)
and for the service's request bodies.
A decoder is a plain ``value -> decoded`` function that raises
``ValueError`` / ``TypeError``; the binder turns either into
:class:`ParamError` carrying the dotted name of the offending field
(``packet.dst_ip``). Decoders take JSON types literally: ``"false"`` is
not a boolean, ``"80"`` not a port, a string not a list of one.

The codecs both ways live here because every front end shares them: the
service, ``python -m repro explain flow`` (its packet), and the coverage
report's witness packets.
"""

from __future__ import annotations

import math
from typing import (
    Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple,
)

from repro.hdr import fields as f
from repro.hdr.headerspace import HeaderSpace
from repro.hdr.ip import Ip, Prefix
from repro.hdr.packet import Packet


class ParamError(ValueError):
    """A request value that cannot be bound: ``field`` names it."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


class Param(NamedTuple):
    decode: Callable[[object], object]
    required: bool = False
    #: The hostnames a decoded value names. ``bind`` checks them against
    #: the snapshot; a coverage record is pinned to them.
    hosts: Callable[[object], Iterable[str]] = lambda value: ()
    #: The ``(hostname, kind, name)`` structures a decoded value names,
    #: given every bound arg (the host may be another param's); ``kind``
    #: is ``interface`` or ``filter``. ``bind`` checks each against its
    #: device.
    structures: Callable[
        [object, Mapping[str, object]], Iterable[Tuple[str, str, str]]
    ] = lambda value, args: ()


def decode_object(raw, schema: Mapping[str, Param]) -> Dict[str, object]:
    """``raw`` held to ``schema``: an object with no key outside it and
    every required one, each value through its decoder. An optional key
    that is absent or ``null`` is absent from the result."""
    if not isinstance(raw, dict):
        raise ValueError(f"must be an object: {raw!r}")
    for key in raw:
        if key not in schema:
            known = ", ".join(schema) or "none"
            raise ParamError(key, f"unknown field (known: {known})")
    decoded: Dict[str, object] = {}
    for key, param in schema.items():
        value = raw.get(key)
        if value is None:
            if param.required:
                raise ParamError(key, "missing required field")
            continue
        try:
            decoded[key] = param.decode(value)
        except ParamError as error:
            raise ParamError(f"{key}.{error.field}", error.reason) from None
        except (TypeError, ValueError) as error:
            raise ParamError(key, str(error)) from None
    return decoded


# ----------------------------------------------------------------------
# Decoders for the JSON scalar and list types


def text(value) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"must be a non-empty string: {value!r}")
    return value


def boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false: {value!r}")
    return value


def integer(low: int, high: Optional[int] = None) -> Callable[[object], int]:
    def decode(value) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"must be an integer: {value!r}")
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise ValueError(f"must be {bound}: {value}")
        return value

    return decode


def seconds(value) -> float:
    """A finite, non-negative duration."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number of seconds: {value!r}")
    if not 0 <= value < math.inf:  # NaN fails both comparisons
        raise ValueError(f"must be finite and >= 0: {value}")
    return float(value)


def list_of(item: Callable[[object], object]) -> Callable[[object], List]:
    def decode(value) -> List:
        if not isinstance(value, list):
            raise ValueError(f"must be a list: {value!r}")
        return [item(entry) for entry in value]

    return decode


def node(required: bool = False) -> Param:
    """A hostname of the snapshot."""
    return Param(text, required, hosts=lambda hostname: (hostname,))


# ----------------------------------------------------------------------
# Wire -> domain

_PROTOCOL_NAMES = {
    "icmp": f.PROTO_ICMP,
    "tcp": f.PROTO_TCP,
    "udp": f.PROTO_UDP,
    "ospf": f.PROTO_OSPF,
}

_byte = integer(0, 255)
_port = integer(0, 65535)
_whole = integer(0)  # Packet checks each field's width itself


def protocol_from_json(value) -> int:
    """An IP protocol from either a number or a well-known name."""
    if isinstance(value, str):
        try:
            return _PROTOCOL_NAMES[value.lower()]
        except KeyError:
            raise ValueError(f"unknown protocol name {value!r}") from None
    return _byte(value)


def address(value) -> Ip:
    return Ip(text(value))


_PACKET_SCHEMA = {
    "dst_ip": Param(address),
    "src_ip": Param(address),
    "ip_protocol": Param(protocol_from_json),
    **{
        name: Param(_whole)
        for name in (
            "dst_port", "src_port", "icmp_code", "icmp_type", "tcp_flags",
            "packet_length", "dscp", "ecn",
        )
    },
}


def packet_from_json(raw) -> Packet:
    """A concrete packet from ``{"dst_ip": "...", "dst_port": 80, ...}``."""
    return Packet(**decode_object(raw, _PACKET_SCHEMA))


def _prefixes(value) -> List[Prefix]:
    """One prefix string or a list of them."""
    if isinstance(value, str):
        value = [value]
    return [Prefix(entry) for entry in list_of(text)(value)]


def _port_range(entry):
    if isinstance(entry, list) and len(entry) == 2:
        return (_port(entry[0]), _port(entry[1]))
    if isinstance(entry, list):
        raise ValueError(f"must be a port or a [low, high] pair: {entry!r}")
    return (_port(entry), _port(entry))


_TCP_FLAG_BITS = Param(list_of(integer(0, 7)))

_HEADERSPACE_SCHEMA = {
    "dst": Param(_prefixes),
    "src": Param(_prefixes),
    "not_dst": Param(_prefixes),
    "not_src": Param(_prefixes),
    "dst_ports": Param(list_of(_port_range)),
    "src_ports": Param(list_of(_port_range)),
    "protocols": Param(list_of(protocol_from_json)),
    "tcp_flags_set": _TCP_FLAG_BITS,
    "tcp_flags_unset": _TCP_FLAG_BITS,
}


def headerspace_from_json(raw) -> HeaderSpace:
    """A :class:`HeaderSpace` from the declarative JSON query surface
    (the wire keys are ``HeaderSpace.build``'s keywords)."""
    return HeaderSpace.build(**decode_object(raw, _HEADERSPACE_SCHEMA))


def _source(entry):
    if isinstance(entry, str):
        entry = [entry]
    if not isinstance(entry, list) or not 1 <= len(entry) <= 2:
        raise ValueError(
            f"entries must be 'node' or ['node', 'interface']: {entry!r}"
        )
    interface = entry[1] if len(entry) == 2 else None
    return (text(entry[0]), None if interface is None else text(interface))


#: ``[["node", "iface"|null], ...]`` -> the ``sources=`` query argument.
sources_from_json = list_of(_source)

SOURCES = Param(
    sources_from_json,
    hosts=lambda sources: [name for name, _ in sources],
    structures=lambda sources, args: [
        (name, "interface", iface) for name, iface in sources if iface is not None
    ],
)


# ----------------------------------------------------------------------
# Domain -> wire


def packet_to_json(packet: Optional[Packet]) -> Optional[Dict]:
    if packet is None:
        return None
    return {
        "dst_ip": str(packet.dst_ip),
        "src_ip": str(packet.src_ip),
        "dst_port": packet.dst_port,
        "src_port": packet.src_port,
        "ip_protocol": packet.ip_protocol,
        "description": packet.describe(),
    }
