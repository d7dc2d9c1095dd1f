"""Tests for the packet-set BDD encoding, including property-based
agreement between symbolic (BDD) and concrete (Packet) semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.engine import FALSE, TRUE
from repro.hdr import fields as f
from repro.hdr.headerspace import HeaderSpace, PacketEncoder
from repro.hdr.ip import Ip, Prefix
from repro.hdr.packet import Packet


@pytest.fixture(scope="module")
def enc():
    return PacketEncoder()


class TestFieldConstraints:
    def test_field_eq_membership(self, enc):
        node = enc.field_eq(f.DST_PORT, 443)
        assert enc.engine.eval(node, _packet_assignment(enc, Packet(dst_port=443)))
        assert not enc.engine.eval(node, _packet_assignment(enc, Packet(dst_port=80)))

    def test_field_eq_out_of_range(self, enc):
        with pytest.raises(ValueError):
            enc.field_eq(f.DST_PORT, 1 << 16)

    @given(
        st.sampled_from(
            [(name, False) for name in f.HEADER_FIELDS + (f.ZONE_IN, f.WAYPOINT)]
            + [(name, True) for name in f.PAIRED_FIELDS]
        ),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_field_eq_is_the_minterm_of_its_bits(self, enc, field_and_side, data):
        """Built bottom-up with ``mk``; the assignment-dict construction
        it replaced is the reference."""
        field, out = field_and_side
        width = enc.layout.width(field)
        value = data.draw(st.integers(0, (1 << width) - 1))
        var_of = enc.layout.out_var if out else enc.layout.var
        reference = enc.engine.from_assignment(
            {
                var_of(field, bit): (value >> (width - 1 - bit)) & 1
                for bit in range(width)
            }
        )
        assert enc.field_eq(field, value, _out=out) == reference

    @given(st.sampled_from((f.DST_IP, f.SRC_IP)), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_ip_eq_is_the_memoised_slash_32(self, enc, field, value):
        node = enc.ip_eq(field, Ip(value))
        assert node == enc.field_eq(field, value)
        assert node == enc.ip_in_prefix(field, Prefix(value, 32))
        allocated = enc.engine.num_nodes()
        assert enc.ip_eq(field, str(Ip(value))) == node
        assert enc.engine.num_nodes() == allocated

    def test_range_empty(self, enc):
        assert enc.field_in_range(f.DST_PORT, 10, 5) == FALSE

    def test_range_full(self, enc):
        assert enc.field_in_range(f.DST_PORT, 0, 65535) == TRUE

    def test_range_bad_bounds(self, enc):
        with pytest.raises(ValueError):
            enc.field_in_range(f.DST_PORT, 0, 1 << 16)

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=200)
    def test_range_matches_concrete(self, low, high, probe):
        enc = PacketEncoder()
        node = enc.field_in_range(f.ICMP_CODE, low, high)
        pkt = Packet(ip_protocol=f.PROTO_ICMP, icmp_code=probe)
        expected = low <= probe <= high
        assert enc.engine.eval(node, _packet_assignment(enc, pkt)) == expected

    def test_prefix_constraint(self, enc):
        node = enc.ip_in_prefix(f.DST_IP, "10.0.3.0/24")
        inside = Packet(dst_ip=Ip("10.0.3.77"))
        outside = Packet(dst_ip=Ip("10.0.4.1"))
        assert enc.engine.eval(node, _packet_assignment(enc, inside))
        assert not enc.engine.eval(node, _packet_assignment(enc, outside))

    def test_zero_prefix_is_true(self, enc):
        assert enc.ip_in_prefix(f.SRC_IP, "0.0.0.0/0") == TRUE

    def test_prefix_bdd_size_is_prefix_length(self, enc):
        # Compact encoding: /24 constraint tests exactly 24 bits.
        node = enc.ip_in_prefix(f.DST_IP, "10.0.3.0/24")
        assert enc.engine.size(node) == 24

    def test_protocol_helpers(self, enc):
        pkt_tcp = _packet_assignment(enc, Packet(ip_protocol=f.PROTO_TCP))
        assert enc.engine.eval(enc.tcp(), pkt_tcp)
        assert not enc.engine.eval(enc.udp(), pkt_tcp)
        assert not enc.engine.eval(enc.icmp(), pkt_tcp)

    def test_tcp_flag(self, enc):
        syn_only = Packet(tcp_flags=0b00000010)  # SYN bit per layout order
        assignment = _packet_assignment(enc, syn_only)
        assert enc.engine.eval(enc.tcp_flag(f.TCP_SYN), assignment)
        assert not enc.engine.eval(enc.tcp_flag(f.TCP_ACK), assignment)

    def test_port_ranges_union(self, enc):
        node = enc.port_ranges(f.DST_PORT, [(80, 80), (443, 443)])
        assert enc.engine.eval(node, _packet_assignment(enc, Packet(dst_port=443)))
        assert not enc.engine.eval(node, _packet_assignment(enc, Packet(dst_port=22)))


class TestPacketConversion:
    def test_packet_bdd_is_singleton_over_header(self, enc):
        pkt = Packet(dst_ip=Ip("1.2.3.4"), src_ip=Ip("4.3.2.1"), dst_port=80)
        node = enc.packet_bdd(pkt)
        recovered = enc.packet_from_model(enc.engine.any_sat(node))
        assert recovered == pkt

    def test_packet_from_empty_model(self, enc):
        assert enc.packet_from_model(None) is None

    def test_example_packet_respects_preferences(self, enc):
        space = enc.ip_in_prefix(f.DST_IP, "10.0.0.0/8")
        prefer_http = enc.engine.and_(enc.tcp(), enc.field_eq(f.DST_PORT, 80))
        pkt = enc.example_packet(space, [prefer_http])
        assert pkt.ip_protocol == f.PROTO_TCP
        assert pkt.dst_port == 80
        assert Prefix("10.0.0.0/8").contains_ip(pkt.dst_ip)

    def test_example_packet_of_empty_set(self, enc):
        assert enc.example_packet(FALSE) is None

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    @settings(max_examples=50)
    def test_roundtrip_property(self, ip_value):
        enc = PacketEncoder()
        pkt = Packet(dst_ip=Ip(ip_value), src_ip=Ip(ip_value ^ 0xFFFFFFFF))
        assert enc.packet_from_model(enc.engine.any_sat(enc.packet_bdd(pkt))) == pkt


class TestTransformVariables:
    def test_identity_relation(self, enc):
        engine = enc.engine
        identity = enc.identity(f.DST_IP)
        # (in=10.0.0.1) AND identity => out=10.0.0.1.
        set_in = enc.ip_eq(f.DST_IP, "10.0.0.1")
        joint = engine.and_(set_in, identity)
        out_right = enc.out_ip_eq(f.DST_IP, "10.0.0.1")
        out_wrong = enc.out_ip_eq(f.DST_IP, "10.0.0.2")
        assert engine.and_(joint, out_right) != FALSE
        assert engine.and_(joint, out_wrong) == FALSE

    def test_transform_rewrites_dst(self, enc):
        engine = enc.engine
        # NAT: dst 1.1.1.1 -> 10.0.0.5
        relation = engine.and_(
            enc.ip_eq(f.DST_IP, "1.1.1.1"), enc.out_ip_eq(f.DST_IP, "10.0.0.5")
        )
        cube = enc.input_cube([f.DST_IP])
        rename = enc.rename_out_to_in([f.DST_IP])
        before = engine.and_(
            enc.ip_eq(f.DST_IP, "1.1.1.1"), enc.ip_eq(f.SRC_IP, "2.2.2.2")
        )
        after = engine.transform(before, relation, cube, rename)
        expected = engine.and_(
            enc.ip_eq(f.DST_IP, "10.0.0.5"), enc.ip_eq(f.SRC_IP, "2.2.2.2")
        )
        assert after == expected

    def test_transform_to_pool(self, enc):
        engine = enc.engine
        relation = engine.and_(
            enc.ip_in_prefix(f.SRC_IP, "192.168.0.0/16"),
            enc.out_in_prefix(f.SRC_IP, "100.64.0.0/24"),
        )
        cube = enc.input_cube([f.SRC_IP])
        rename = enc.rename_out_to_in([f.SRC_IP])
        before = enc.ip_eq(f.SRC_IP, "192.168.1.1")
        after = engine.transform(before, relation, cube, rename)
        assert after == enc.ip_in_prefix(f.SRC_IP, "100.64.0.0/24")

    def test_erase_field(self, enc):
        node = enc.engine.and_(
            enc.ip_eq(f.DST_IP, "1.1.1.1"), enc.field_eq(f.DST_PORT, 80)
        )
        erased = enc.erase(node, [f.DST_PORT])
        assert erased == enc.ip_eq(f.DST_IP, "1.1.1.1")


class TestHeaderSpace:
    def test_build_accepts_scalars(self):
        space = HeaderSpace.build(dst="10.0.0.0/8", protocols=[f.PROTO_TCP])
        assert space.dst_prefixes == (Prefix("10.0.0.0/8"),)

    def test_contains_concrete(self):
        space = HeaderSpace.build(
            dst="10.0.0.0/8",
            not_dst="10.9.0.0/16",
            dst_ports=[(80, 90)],
            protocols=[f.PROTO_TCP],
        )
        assert space.contains(Packet(dst_ip=Ip("10.1.2.3"), dst_port=85))
        assert not space.contains(Packet(dst_ip=Ip("10.9.2.3"), dst_port=85))
        assert not space.contains(Packet(dst_ip=Ip("10.1.2.3"), dst_port=99))
        assert not space.contains(
            Packet(dst_ip=Ip("10.1.2.3"), dst_port=85, ip_protocol=f.PROTO_UDP)
        )

    def test_empty_space_is_true_bdd(self):
        enc = PacketEncoder()
        assert HeaderSpace().to_bdd(enc) == TRUE

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=32),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=65535),
    )
    @settings(max_examples=100)
    def test_bdd_and_concrete_agree(self, net, plen, probe_ip, probe_port):
        enc = PacketEncoder()
        space = HeaderSpace.build(
            dst=Prefix(net, plen), dst_ports=[(100, 2000)], protocols=[f.PROTO_UDP]
        )
        node = space.to_bdd(enc)
        pkt = Packet(
            dst_ip=Ip(probe_ip), dst_port=probe_port, ip_protocol=f.PROTO_UDP
        )
        assert enc.engine.eval(node, _packet_assignment(enc, pkt)) == space.contains(
            pkt
        )

    def test_tcp_flag_constraints(self):
        enc = PacketEncoder()
        space = HeaderSpace.build(
            protocols=[f.PROTO_TCP],
            tcp_flags_set=[f.TCP_SYN],
            tcp_flags_unset=[f.TCP_ACK],
        )
        syn = Packet(tcp_flags=0b00000010)
        syn_ack = Packet(tcp_flags=0b00010010)
        assert space.contains(syn)
        assert not space.contains(syn_ack)
        node = space.to_bdd(enc)
        assert enc.engine.eval(node, _packet_assignment(enc, syn))
        assert not enc.engine.eval(node, _packet_assignment(enc, syn_ack))


def _packet_assignment(enc, packet):
    """Full variable assignment for a concrete packet."""
    assignment = {}
    for field in f.HEADER_FIELDS:
        value = packet.field_value(field)
        width = enc.layout.width(field)
        for bit in range(width):
            assignment[enc.layout.var(field, bit)] = (value >> (width - 1 - bit)) & 1
    return assignment
