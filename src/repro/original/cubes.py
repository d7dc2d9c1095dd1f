"""Difference-of-cubes header-space sets (the HSA/NoD-era baseline).

Before the BDD engine, scalable data-plane tools represented packet
sets with custom structures such as differences of cubes [HSA] and
ddNF. A *cube* is a ternary match over the packed header bits (each bit
0, 1, or wildcard); a set is a union of cubes, each carrying a list of
subtracted cubes.

This representation is the §6/Figure-3 verification baseline: it is
easy to build but lacks canonicity — equality needs emptiness checks,
subtraction accumulates difference terms, and there is no cross-
operation cache — which is precisely the performance gap BDDs close.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.config.model import Acl, Action
from repro.hdr import fields as hdr_fields
from repro.hdr.ip import Prefix
from repro.hdr.packet import Packet

# Packed header layout for the cube engine: the five fields the
# original verification queries constrained.
_FIELDS: Tuple[Tuple[str, int], ...] = (
    (hdr_fields.DST_IP, 32),
    (hdr_fields.SRC_IP, 32),
    (hdr_fields.IP_PROTOCOL, 8),
    (hdr_fields.SRC_PORT, 16),
    (hdr_fields.DST_PORT, 16),
)
TOTAL_BITS = sum(width for _name, width in _FIELDS)
_OFFSETS = {}
_offset = 0
for _name, _width in _FIELDS:
    _OFFSETS[_name] = (_offset, _width)
    _offset += _width
_FULL_MASK = (1 << TOTAL_BITS) - 1


@dataclass(frozen=True)
class Cube:
    """A ternary match: bit i matters iff mask bit is 1, then must equal
    the corresponding value bit."""

    value: int
    mask: int

    def intersect(self, other: "Cube") -> Optional["Cube"]:
        common = self.mask & other.mask
        if (self.value ^ other.value) & common:
            return None
        return Cube(
            (self.value & self.mask) | (other.value & other.mask),
            self.mask | other.mask,
        )

    def contains_cube(self, other: "Cube") -> bool:
        """True if every packet in `other` is in `self`."""
        if self.mask & ~other.mask & _FULL_MASK:
            return False
        return not ((self.value ^ other.value) & self.mask)

    def matches(self, packed: int) -> bool:
        return not ((packed ^ self.value) & self.mask)


FULL_CUBE = Cube(0, 0)


def field_cube(field_name: str, value: int, prefix_bits: Optional[int] = None) -> Cube:
    """A cube constraining one field (optionally only its top bits)."""
    offset, width = _OFFSETS[field_name]
    bits = width if prefix_bits is None else prefix_bits
    if bits == 0:
        return FULL_CUBE
    field_mask = ((1 << bits) - 1) << (width - bits)
    return Cube(
        (value & field_mask) << offset,
        field_mask << offset,
    )


def prefix_cube(field_name: str, prefix: Prefix) -> Cube:
    return field_cube(field_name, prefix.network_value, prefix.length)


def pack_packet(packet: Packet) -> int:
    packed = 0
    for name, _width in _FIELDS:
        offset, width = _OFFSETS[name]
        packed |= (packet.field_value(name) & ((1 << width) - 1)) << offset
    return packed


@dataclass(frozen=True)
class DiffCube:
    """One union term: a base cube minus a list of subtracted cubes."""

    base: Cube
    minus: Tuple[Cube, ...] = ()

    def is_empty(self) -> bool:
        """Empty iff the subtracted cubes cover the base cube.

        Exact check via recursive splitting on a distinguishing bit —
        the expensive operation that BDD canonicity avoids.
        """
        return _covered(self.base, list(self.minus))

    def matches(self, packed: int) -> bool:
        if not self.base.matches(packed):
            return False
        return not any(cube.matches(packed) for cube in self.minus)


def _covered(base: Cube, minus: List[Cube]) -> bool:
    relevant = []
    for cube in minus:
        clipped = cube.intersect(base)
        if clipped is None:
            continue
        if clipped.contains_cube(base):
            return True
        relevant.append(clipped)
    if not relevant:
        return False
    # Split on a bit constrained by some subtracted cube but not by base.
    split_bit = None
    for cube in relevant:
        free = cube.mask & ~base.mask & _FULL_MASK
        if free:
            split_bit = free & -free
            break
    if split_bit is None:
        return False  # all relevant cubes equal base scope but none contains
    for bit_value in (0, split_bit):
        branch = Cube(base.value | bit_value, base.mask | split_bit)
        if not _covered(branch, relevant):
            return False
    return True


class CubeSet:
    """A union of difference-of-cubes terms."""

    def __init__(self, terms: Optional[Iterable[DiffCube]] = None):
        self.terms: List[DiffCube] = [
            t for t in (terms or []) if not _trivially_empty(t)
        ]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "CubeSet":
        return CubeSet()

    @staticmethod
    def full() -> "CubeSet":
        return CubeSet([DiffCube(FULL_CUBE)])

    @staticmethod
    def from_cube(cube: Cube) -> "CubeSet":
        return CubeSet([DiffCube(cube)])

    # -- operations ---------------------------------------------------------

    def union(self, other: "CubeSet") -> "CubeSet":
        return CubeSet(self.terms + other.terms)

    def intersect(self, other: "CubeSet") -> "CubeSet":
        result: List[DiffCube] = []
        for a in self.terms:
            for b in other.terms:
                base = a.base.intersect(b.base)
                if base is None:
                    continue
                result.append(DiffCube(base, a.minus + b.minus))
        return CubeSet(result)

    def subtract_cube(self, cube: Cube) -> "CubeSet":
        result: List[DiffCube] = []
        for term in self.terms:
            if cube.contains_cube(term.base):
                continue
            if cube.intersect(term.base) is None:
                result.append(term)
            else:
                result.append(DiffCube(term.base, term.minus + (cube,)))
        return CubeSet(result)

    def subtract(self, other: "CubeSet") -> "CubeSet":
        """Subtract another set (its difference terms add back, which we
        conservatively expand term by term)."""
        result = self
        for term in other.terms:
            if not term.minus:
                result = result.subtract_cube(term.base)
            else:
                # base - (c - d) = (base - c) + (base ∩ c ∩ d); expanding
                # exactly blows up, so we first subtract the base cube and
                # then union back the overlaps with each subtracted cube.
                removed = result.subtract_cube(term.base)
                added_back = CubeSet.empty()
                for d in term.minus:
                    overlap = result.intersect(
                        CubeSet.from_cube(term.base)
                    ).intersect(CubeSet.from_cube(d))
                    added_back = added_back.union(overlap)
                result = removed.union(added_back)
        return result

    def is_empty(self) -> bool:
        return all(term.is_empty() for term in self.terms)

    def contains_packet(self, packet: Packet) -> bool:
        packed = pack_packet(packet)
        return any(term.matches(packed) for term in self.terms)

    def sample_packet(self) -> Optional[Packet]:
        """A concrete packet from the set (the Z3-model-extraction step
        of the original Stage 3), found by recursive bit splitting."""
        for term in self.terms:
            packed = _sample(term.base, list(term.minus))
            if packed is not None:
                return _unpack(packed)
        return None


def _trivially_empty(term: DiffCube) -> bool:
    return any(cube.contains_cube(term.base) for cube in term.minus)


def _sample(base: Cube, minus: List[Cube]) -> Optional[int]:
    relevant = []
    for cube in minus:
        clipped = cube.intersect(base)
        if clipped is None:
            continue
        if clipped.contains_cube(base):
            return None
        relevant.append(clipped)
    if not relevant:
        return base.value & base.mask  # wildcards -> 0
    split_bit = None
    for cube in relevant:
        free = cube.mask & ~base.mask & _FULL_MASK
        if free:
            split_bit = free & -free
            break
    if split_bit is None:
        return None
    for bit_value in (0, split_bit):
        branch = Cube(base.value | bit_value, base.mask | split_bit)
        found = _sample(branch, relevant)
        if found is not None:
            return found
    return None


def _unpack(packed: int) -> Packet:
    values = {}
    for name, _width in _FIELDS:
        offset, width = _OFFSETS[name]
        values[name] = (packed >> offset) & ((1 << width) - 1)
    from repro.hdr.packet import packet_from_field_values

    return packet_from_field_values(values)


# ----------------------------------------------------------------------
# ACL encoding


def acl_permit_cubes(acl: Acl) -> CubeSet:
    """The permit space of an ACL as a difference-of-cubes set."""
    permitted = CubeSet.empty()
    earlier: List[Cube] = []
    for line in acl.lines:
        cube = _line_cube(line)
        if cube is None:
            continue
        if line.action is Action.PERMIT:
            permitted = permitted.union(
                CubeSet([DiffCube(cube, tuple(earlier))])
            )
        earlier.append(cube)
    return permitted


def _line_cube(line) -> Optional[Cube]:
    """Best-effort single-cube encoding of an ACL line. Lines using
    features outside the cube layout (port ranges that are not full or
    single-valued, established) fall back to wider cubes — acceptable
    for the baseline engine which predates those features."""
    cube = FULL_CUBE
    if line.protocol is not None:
        cube = cube.intersect(field_cube(hdr_fields.IP_PROTOCOL, line.protocol))
    if line.src is not None:
        cube = cube.intersect(prefix_cube(hdr_fields.SRC_IP, line.src))
    if line.dst is not None:
        cube = cube.intersect(prefix_cube(hdr_fields.DST_IP, line.dst))
    for ports, field_name in (
        (line.src_ports, hdr_fields.SRC_PORT),
        (line.dst_ports, hdr_fields.DST_PORT),
    ):
        if len(ports) == 1 and ports[0][0] == ports[0][1]:
            cube = cube.intersect(field_cube(field_name, ports[0][0]))
        elif ports:
            # Approximate a range by its common leading bits.
            low, high = ports[0]
            common = 16
            while common and (low >> (16 - common)) != (high >> (16 - common)):
                common -= 1
            cube = cube.intersect(field_cube(field_name, low, common))
    return cube
