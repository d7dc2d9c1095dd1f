"""Encoding sets of packets as BDDs (§4.2.2).

:class:`PacketEncoder` is the bridge between the networking domain (IPs,
prefixes, port ranges, protocols) and the BDD engine. It owns a
:class:`~repro.bdd.engine.BddEngine` sized for a
:class:`~repro.hdr.fields.HeaderLayout`, and provides constraint builders
for input variables, constraint builders for transformation output
variables, and conversions between concrete packets and BDD models.

:class:`HeaderSpace` is the user-facing declarative description of a set
of packets (the parameterization surface of queries, §4.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bdd.engine import FALSE, TRUE, BddEngine
from repro.hdr import fields as f
from repro.hdr.fields import DEFAULT_LAYOUT, HeaderLayout
from repro.hdr.ip import Ip, Prefix
from repro.hdr.packet import Packet

PortRange = Tuple[int, int]


class PacketEncoder:
    """Builds BDDs over packet-header variables."""

    def __init__(
        self,
        layout: Optional[HeaderLayout] = None,
        engine: Optional[BddEngine] = None,
    ):
        self.layout = layout or HeaderLayout()
        self.engine = engine or BddEngine(self.layout.num_vars)
        if self.engine.num_vars < self.layout.num_vars:
            raise ValueError("engine universe smaller than layout")
        self._field_cube_cache: Dict[Tuple[str, ...], int] = {}
        self._prefix_cache: Dict[Tuple[str, Prefix, bool], int] = {}

    def fork(self) -> "PacketEncoder":
        """An encoder over :meth:`BddEngine.fork`; its memos refill from
        the forked unique table and cube list."""
        return PacketEncoder(self.layout, self.engine.fork())

    # ------------------------------------------------------------------
    # Constraints on input variables

    def field_eq(self, field: str, value: int, _out: bool = False) -> int:
        """BDD for ``field == value``."""
        width = self.layout.width(field)
        if not 0 <= value < (1 << width):
            raise ValueError(f"value {value} out of range for {field}")
        return self.engine.pinned(self._levels(field, _out), value)

    def _levels(self, field: str, _out: bool) -> Tuple[int, ...]:
        layout = self.layout
        return layout.out_vars_of(field) if _out else layout.vars_of(field)

    def field_in_range(
        self, field: str, low: int, high: int, _out: bool = False
    ) -> int:
        """BDD for ``low <= field <= high`` (inclusive)."""
        width = self.layout.width(field)
        if low > high:
            return FALSE
        if not (0 <= low and high < (1 << width)):
            raise ValueError(f"range [{low}, {high}] out of range for {field}")
        if low == 0 and high == (1 << width) - 1:
            return TRUE
        var_of = self.layout.out_var if _out else self.layout.var
        engine = self.engine
        # Build value >= low and value <= high from LSB to MSB.
        geq = TRUE
        leq = TRUE
        for bit in reversed(range(width)):
            level = var_of(field, bit)
            v, nv = engine.var(level), engine.nvar(level)
            if (low >> (width - 1 - bit)) & 1:
                geq = engine.and_(v, geq)
            else:
                geq = engine.or_(v, geq)
            if (high >> (width - 1 - bit)) & 1:
                leq = engine.or_(nv, leq)
            else:
                leq = engine.and_(nv, leq)
        return engine.and_(geq, leq)

    def ip_eq(self, field: str, ip: "Ip | str") -> int:
        """BDD for an IP-valued field equal to a specific address (the
        memoised /32 of :meth:`ip_in_prefix`: own and neighbour
        addresses are asked for several times each)."""
        return self.ip_in_prefix(field, Prefix(Ip(ip), 32))

    def ip_in_prefix(self, field: str, prefix: "Prefix | str", _out: bool = False) -> int:
        """BDD for an IP-valued field inside a prefix (tests only the
        first ``prefix.length`` bits — the canonical compact encoding).

        Kept once built: ACLs, source scoping and the graph builder
        name the same prefixes and addresses over and over."""
        prefix = prefix if isinstance(prefix, Prefix) else Prefix(prefix)
        key = (field, prefix, _out)
        node = self._prefix_cache.get(key)
        if node is None:
            node = self.engine.pinned(
                self._levels(field, _out)[: prefix.length],
                prefix.network_value >> (32 - prefix.length),
            )
            self._prefix_cache[key] = node
        return node

    def ip_in_prefixes(self, field: str, prefixes: Iterable["Prefix | str"]) -> int:
        """Union of :meth:`ip_in_prefix` over several prefixes
        (balanced n-ary kernel: prefix lists can be hundreds wide)."""
        return self.engine.or_all(
            self.ip_in_prefix(field, prefix) for prefix in prefixes
        )

    def protocol(self, proto: int) -> int:
        """BDD for ``ip_protocol == proto``."""
        return self.field_eq(f.IP_PROTOCOL, proto)

    def tcp(self) -> int:
        return self.protocol(f.PROTO_TCP)

    def udp(self) -> int:
        return self.protocol(f.PROTO_UDP)

    def icmp(self) -> int:
        return self.protocol(f.PROTO_ICMP)

    def tcp_flag(self, bit: int, value: bool = True) -> int:
        """BDD constraining one TCP flag bit (per repro.hdr.fields order)."""
        level = self.layout.var(f.TCP_FLAGS, bit)
        return self.engine.var(level) if value else self.engine.nvar(level)

    def port_ranges(self, field: str, ranges: Sequence[PortRange]) -> int:
        """Union of inclusive port ranges for a port field."""
        return self.engine.or_all(
            self.field_in_range(field, low, high) for low, high in ranges
        )

    # ------------------------------------------------------------------
    # Constraints on transformation output variables (§4.2.3, NAT)

    def out_eq(self, field: str, value: int) -> int:
        """BDD for *output* ``field == value`` (paired fields only)."""
        return self.field_eq(field, value, _out=True)

    def out_ip_eq(self, field: str, ip: "Ip | str") -> int:
        return self.out_eq(field, Ip(ip).value)

    def out_in_prefix(self, field: str, prefix: "Prefix | str") -> int:
        """BDD for *output* field inside a prefix."""
        return self.ip_in_prefix(field, prefix, _out=True)

    def identity(self, field: str) -> int:
        """BDD for *output field == input field* (unchanged by transform)."""
        engine = self.engine
        per_bit: List[int] = []
        for bit in range(self.layout.width(field)):
            in_level = self.layout.var(field, bit)
            out_level = self.layout.out_var(field, bit)
            both = engine.and_(engine.var(in_level), engine.var(out_level))
            neither = engine.and_(engine.nvar(in_level), engine.nvar(out_level))
            per_bit.append(engine.or_(both, neither))
        return engine.and_all(per_bit)

    def input_cube(self, fields: Iterable[str]) -> int:
        """Interned cube of the *input* variables of ``fields``."""
        key = tuple(sorted(fields))
        cube = self._field_cube_cache.get(key)
        if cube is None:
            levels: List[int] = []
            for field in key:
                levels.extend(self.layout.vars_of(field))
            cube = self.engine.cube(levels)
            self._field_cube_cache[key] = cube
        return cube

    def rename_out_to_in(self, fields: Iterable[str]) -> int:
        """Interned rename map from output to input variables of ``fields``."""
        return self.engine.rename_map(self.layout.rename_out_to_in(fields))

    def erase(self, node: int, fields: Iterable[str]) -> int:
        """Existentially quantify away the input variables of ``fields``
        (e.g. erasing zone bits when a packet exits a firewall)."""
        return self.engine.exists(node, self.input_cube(fields))

    # ------------------------------------------------------------------
    # Concrete <-> symbolic conversion

    def packet_bdd(self, packet: Packet) -> int:
        """The singleton set containing exactly ``packet``."""
        assignment: Dict[int, int] = {}
        for field in f.HEADER_FIELDS:
            value = packet.field_value(field)
            width = self.layout.width(field)
            for bit in range(width):
                assignment[self.layout.var(field, bit)] = (
                    value >> (width - 1 - bit)
                ) & 1
        return self.engine.from_assignment(assignment)

    def packet_from_model(self, assignment: Optional[Dict[int, int]]) -> Optional[Packet]:
        """Materialize a packet from a BDD satisfying assignment.

        Unassigned variables default to 0, matching the convention that a
        BDD model's free variables may take any value.
        """
        if assignment is None:
            return None
        values: Dict[str, int] = {}
        for field in f.HEADER_FIELDS:
            width = self.layout.width(field)
            value = 0
            for bit in range(width):
                value = (value << 1) | assignment.get(self.layout.var(field, bit), 0)
            values[field] = value
        from repro.hdr.packet import packet_from_field_values

        return packet_from_field_values(values)

    def example_packet(
        self, node: int, preferences: Sequence[int] = ()
    ) -> Optional[Packet]:
        """Pick a concrete packet from a set, guided by preferences
        (§4.4.3). Returns ``None`` for the empty set."""
        return self.packet_from_model(self.engine.best_sat(node, preferences))


@dataclass(frozen=True)
class HeaderSpace:
    """A declarative description of a set of packet headers.

    This is the input surface of parameterized queries: each attribute
    narrows the set; unset attributes leave their field unconstrained.
    """

    dst_prefixes: Tuple[Prefix, ...] = ()
    src_prefixes: Tuple[Prefix, ...] = ()
    not_dst_prefixes: Tuple[Prefix, ...] = ()
    not_src_prefixes: Tuple[Prefix, ...] = ()
    dst_ports: Tuple[PortRange, ...] = ()
    src_ports: Tuple[PortRange, ...] = ()
    ip_protocols: Tuple[int, ...] = ()
    tcp_flags_set: Tuple[int, ...] = ()
    tcp_flags_unset: Tuple[int, ...] = ()

    @staticmethod
    def build(
        dst: "Iterable[str | Prefix] | str | Prefix | None" = None,
        src: "Iterable[str | Prefix] | str | Prefix | None" = None,
        not_dst: "Iterable[str | Prefix] | str | Prefix | None" = None,
        not_src: "Iterable[str | Prefix] | str | Prefix | None" = None,
        dst_ports: Optional[Sequence[PortRange]] = None,
        src_ports: Optional[Sequence[PortRange]] = None,
        protocols: Optional[Sequence[int]] = None,
        tcp_flags_set: Optional[Sequence[int]] = None,
        tcp_flags_unset: Optional[Sequence[int]] = None,
    ) -> "HeaderSpace":
        """Convenience constructor accepting strings and scalars."""
        return HeaderSpace(
            dst_prefixes=_prefixes(dst),
            src_prefixes=_prefixes(src),
            not_dst_prefixes=_prefixes(not_dst),
            not_src_prefixes=_prefixes(not_src),
            dst_ports=tuple(dst_ports or ()),
            src_ports=tuple(src_ports or ()),
            ip_protocols=tuple(protocols or ()),
            tcp_flags_set=tuple(tcp_flags_set or ()),
            tcp_flags_unset=tuple(tcp_flags_unset or ()),
        )

    def to_bdd(self, encoder: PacketEncoder) -> int:
        """Encode this header space as a BDD.

        Each attribute contributes one conjunct (negative prefix sets as
        complements — AND is commutative, so carving them out early or
        late yields the same canonical diagram); the conjuncts are
        combined with the balanced n-ary intersection kernel.
        """
        engine = encoder.engine
        conjuncts: List[int] = []
        if self.dst_prefixes:
            conjuncts.append(encoder.ip_in_prefixes(f.DST_IP, self.dst_prefixes))
        if self.src_prefixes:
            conjuncts.append(encoder.ip_in_prefixes(f.SRC_IP, self.src_prefixes))
        if self.not_dst_prefixes:
            conjuncts.append(
                engine.not_(
                    encoder.ip_in_prefixes(f.DST_IP, self.not_dst_prefixes)
                )
            )
        if self.not_src_prefixes:
            conjuncts.append(
                engine.not_(
                    encoder.ip_in_prefixes(f.SRC_IP, self.not_src_prefixes)
                )
            )
        if self.dst_ports:
            conjuncts.append(encoder.port_ranges(f.DST_PORT, self.dst_ports))
        if self.src_ports:
            conjuncts.append(encoder.port_ranges(f.SRC_PORT, self.src_ports))
        if self.ip_protocols:
            conjuncts.append(
                engine.or_all(encoder.protocol(p) for p in self.ip_protocols)
            )
        for bit in self.tcp_flags_set:
            conjuncts.append(encoder.tcp_flag(bit, True))
        for bit in self.tcp_flags_unset:
            conjuncts.append(encoder.tcp_flag(bit, False))
        return engine.and_all(conjuncts)

    def contains(self, packet: Packet) -> bool:
        """Concrete membership check (no BDDs), used by the traceroute
        engine and differential tests."""
        if self.dst_prefixes and not any(
            p.contains_ip(packet.dst_ip) for p in self.dst_prefixes
        ):
            return False
        if self.src_prefixes and not any(
            p.contains_ip(packet.src_ip) for p in self.src_prefixes
        ):
            return False
        if any(p.contains_ip(packet.dst_ip) for p in self.not_dst_prefixes):
            return False
        if any(p.contains_ip(packet.src_ip) for p in self.not_src_prefixes):
            return False
        if self.dst_ports and not any(
            lo <= packet.dst_port <= hi for lo, hi in self.dst_ports
        ):
            return False
        if self.src_ports and not any(
            lo <= packet.src_port <= hi for lo, hi in self.src_ports
        ):
            return False
        if self.ip_protocols and packet.ip_protocol not in self.ip_protocols:
            return False
        if any(not packet.tcp_flag(bit) for bit in self.tcp_flags_set):
            return False
        if any(packet.tcp_flag(bit) for bit in self.tcp_flags_unset):
            return False
        return True


def _prefixes(value) -> Tuple[Prefix, ...]:
    if value is None:
        return ()
    if isinstance(value, (str, Prefix)):
        value = [value]
    return tuple(p if isinstance(p, Prefix) else Prefix(p) for p in value)
