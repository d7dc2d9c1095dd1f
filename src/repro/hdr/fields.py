"""Packet-header field layout over BDD variables.

This module fixes the BDD variable order, which "dramatically affects the
size of the resulting BDD" (§4.2.2). We follow the paper's heuristic:

* fields that are filtered or transformed most often come first —
  Destination IP, Source IP, Destination Port, Source Port, ICMP Code,
  ICMP Type, IP Protocol, then less used fields (TCP Flags, Packet
  Length, DSCP, ECN);
* within a field, the most significant bit comes first;
* fields that packet transformations (NAT) can rewrite get a *paired*
  output variable per bit, interleaved with the input variable ("we
  interleave the variables for input-output packet pairs since a variable
  in the output packet tends to closely depend on the corresponding
  variable of the input packet");
* a small network-dependent extension region follows the header: zone
  bits for zone-based firewalls (reused across devices, so logarithmic in
  the max zone count — "in practice we have never needed more than four
  bits") and waypoint bits for waypoint queries.

The number of variables is independent of network size: only the
extension region varies, by a handful of bits.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

# Field names. Order in _FIELD_SPECS is the BDD variable order.
DST_IP = "dst_ip"
SRC_IP = "src_ip"
DST_PORT = "dst_port"
SRC_PORT = "src_port"
ICMP_CODE = "icmp_code"
ICMP_TYPE = "icmp_type"
IP_PROTOCOL = "ip_protocol"
TCP_FLAGS = "tcp_flags"
PACKET_LENGTH = "packet_length"
DSCP = "dscp"
ECN = "ecn"

# Extension fields (allocated after the header fields).
ZONE_IN = "zone_in"
ZONE_OUT = "zone_out"
WAYPOINT = "waypoint"

# (name, width_in_bits, paired_with_output_vars)
_FIELD_SPECS: List[Tuple[str, int, bool]] = [
    (DST_IP, 32, True),
    (SRC_IP, 32, True),
    (DST_PORT, 16, True),
    (SRC_PORT, 16, True),
    (ICMP_CODE, 8, False),
    (ICMP_TYPE, 8, False),
    (IP_PROTOCOL, 8, False),
    (TCP_FLAGS, 8, False),
    (PACKET_LENGTH, 16, False),
    (DSCP, 6, False),
    (ECN, 2, False),
]

HEADER_FIELDS: Tuple[str, ...] = tuple(name for name, _, _ in _FIELD_SPECS)
PAIRED_FIELDS: Tuple[str, ...] = tuple(
    name for name, _, paired in _FIELD_SPECS if paired
)

# Well-known IP protocol numbers.
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_OSPF = 89

# TCP flag bit positions within the TCP_FLAGS field (MSB first).
TCP_CWR, TCP_ECE, TCP_URG, TCP_ACK, TCP_PSH, TCP_RST, TCP_SYN, TCP_FIN = range(8)


class HeaderLayout:
    """Assignment of BDD variable levels to packet-header field bits.

    ``var(field, bit)`` gives the level of the *input* variable for a bit
    (bit 0 = most significant). Paired fields additionally have
    ``out_var(field, bit)`` at the immediately following level.
    """

    def __init__(
        self,
        num_zone_bits: int = 4,
        num_waypoint_bits: int = 8,
        field_order: "Tuple[str, ...] | None" = None,
    ):
        """``field_order`` overrides the paper's heuristic ordering of
        the header fields (used by the variable-order ablation); it must
        be a permutation of :data:`HEADER_FIELDS`."""
        if num_zone_bits < 0 or num_waypoint_bits < 0:
            raise ValueError("bit counts must be non-negative")
        self.num_zone_bits = num_zone_bits
        self.num_waypoint_bits = num_waypoint_bits
        self._in_base: Dict[str, int] = {}
        self._width: Dict[str, int] = {}
        self._paired: Dict[str, bool] = {}
        specs = _FIELD_SPECS
        if field_order is not None:
            if sorted(field_order) != sorted(HEADER_FIELDS):
                raise ValueError("field_order must permute HEADER_FIELDS")
            by_name = {name: (name, w, p) for name, w, p in _FIELD_SPECS}
            specs = [by_name[name] for name in field_order]
        self.field_order = tuple(name for name, _w, _p in specs)
        level = 0
        for name, width, paired in specs:
            self._in_base[name] = level
            self._width[name] = width
            self._paired[name] = paired
            level += width * (2 if paired else 1)
        self.header_vars = level
        for name, width in ((ZONE_IN, num_zone_bits), (ZONE_OUT, num_zone_bits)):
            self._in_base[name] = level
            self._width[name] = width
            self._paired[name] = False
            level += width
        self._in_base[WAYPOINT] = level
        self._width[WAYPOINT] = num_waypoint_bits
        self._paired[WAYPOINT] = False
        level += num_waypoint_bits
        self.num_vars = level
        # The layout never changes after this point; the per-field level
        # tuples are what every constraint builder walks.
        self._vars_of: Dict[str, Tuple[int, ...]] = {
            name: tuple(self.var(name, b) for b in range(width))
            for name, width in self._width.items()
        }
        self._out_vars_of: Dict[str, Tuple[int, ...]] = {
            name: tuple(self.out_var(name, b) for b in range(self._width[name]))
            for name, paired in self._paired.items()
            if paired
        }

    def fields(self) -> Tuple[str, ...]:
        """All fields in variable order (header then extension fields)."""
        return tuple(self._in_base)

    def width(self, field: str) -> int:
        """Bit width of ``field``."""
        return self._width[field]

    def var(self, field: str, bit: int) -> int:
        """Input-variable level for ``bit`` of ``field`` (0 = MSB)."""
        self._check_bit(field, bit)
        base = self._in_base[field]
        return base + (2 * bit if self._paired[field] else bit)

    def out_var(self, field: str, bit: int) -> int:
        """Output-variable level for ``bit`` of a paired field."""
        if not self._paired[field]:
            raise ValueError(f"field {field!r} has no output variables")
        self._check_bit(field, bit)
        return self._in_base[field] + 2 * bit + 1

    def vars_of(self, field: str) -> Tuple[int, ...]:
        """All input-variable levels of ``field``, MSB first."""
        return self._vars_of[field]

    def out_vars_of(self, field: str) -> Tuple[int, ...]:
        """All output-variable levels of a paired field, MSB first."""
        if not self._paired[field]:
            raise ValueError(f"field {field!r} has no output variables")
        return self._out_vars_of[field]

    def rename_out_to_in(self, fields: Iterable[str]) -> Dict[int, int]:
        """Rename map taking output variables back to input variables."""
        mapping: Dict[int, int] = {}
        for field in fields:
            for bit in range(self._width[field]):
                mapping[self.out_var(field, bit)] = self.var(field, bit)
        return mapping

    def _check_bit(self, field: str, bit: int) -> None:
        if field not in self._width:
            raise ValueError(f"unknown field: {field!r}")
        if not 0 <= bit < self._width[field]:
            raise ValueError(f"bit {bit} out of range for {field}")


#: The default layout shared by analyses that do not need a custom one.
DEFAULT_LAYOUT = HeaderLayout()
