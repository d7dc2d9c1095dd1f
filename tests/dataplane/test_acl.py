"""Tests for ACL semantics — concrete evaluation, BDD encoding, and a
property-based agreement check between the two (the in-module half of
the §4.3.2 differential idea)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.engine import FALSE, TRUE
from repro.config.model import Acl, AclLine, Action
from repro.dataplane.acl import (
    acl_line_spaces,
    acl_permit_space,
    evaluate_acl,
    line_matches,
)
from repro.hdr import fields as f
from repro.hdr.headerspace import PacketEncoder
from repro.hdr.ip import Ip, Prefix
from repro.hdr.packet import Packet


@pytest.fixture(scope="module")
def enc():
    return PacketEncoder()


def _acl(*lines):
    return Acl(name="test", lines=list(lines))


WEB = AclLine(
    action=Action.PERMIT, protocol=f.PROTO_TCP, dst_ports=((80, 80), (443, 443)),
    name="permit web",
)
BLOCK_NET = AclLine(
    action=Action.DENY, src=Prefix("10.9.0.0/16"), name="deny bad net"
)
ALLOW_ALL = AclLine(action=Action.PERMIT, name="permit any")
ESTABLISHED = AclLine(
    action=Action.PERMIT, protocol=f.PROTO_TCP, established=True,
    name="permit established",
)


class TestConcrete:
    def test_first_match_wins(self):
        acl = _acl(BLOCK_NET, ALLOW_ALL)
        bad = Packet(src_ip=Ip("10.9.1.1"))
        good = Packet(src_ip=Ip("10.8.1.1"))
        assert evaluate_acl(acl, bad).action is Action.DENY
        assert evaluate_acl(acl, bad).line_index == 0
        assert evaluate_acl(acl, good).action is Action.PERMIT
        assert evaluate_acl(acl, good).line_index == 1

    def test_implicit_deny(self):
        acl = _acl(WEB)
        result = evaluate_acl(acl, Packet(dst_port=22))
        assert result.action is Action.DENY
        assert result.line is None
        assert result.describe() == "implicit deny"

    def test_port_match(self):
        acl = _acl(WEB)
        assert evaluate_acl(acl, Packet(dst_port=443)).permitted
        assert not evaluate_acl(acl, Packet(dst_port=8080)).permitted

    def test_protocol_match(self):
        assert not line_matches(WEB, Packet(ip_protocol=f.PROTO_UDP, dst_port=80))

    def test_established_requires_ack_or_rst(self):
        ack = Packet(tcp_flags=0b00010000)
        rst = Packet(tcp_flags=0b00000100)
        syn = Packet(tcp_flags=0b00000010)
        assert line_matches(ESTABLISHED, ack)
        assert line_matches(ESTABLISHED, rst)
        assert not line_matches(ESTABLISHED, syn)
        assert not line_matches(
            ESTABLISHED, Packet(ip_protocol=f.PROTO_UDP, tcp_flags=0b00010000)
        )

    def test_icmp_type_match(self):
        echo_only = AclLine(
            action=Action.PERMIT, protocol=f.PROTO_ICMP, icmp_type=8
        )
        assert line_matches(
            echo_only, Packet(ip_protocol=f.PROTO_ICMP, icmp_type=8)
        )
        assert not line_matches(
            echo_only, Packet(ip_protocol=f.PROTO_ICMP, icmp_type=0)
        )


class TestBddEncoding:
    def test_empty_acl_permits_nothing(self, enc):
        assert acl_permit_space(_acl(), enc) == FALSE

    def test_permit_any_is_true(self, enc):
        assert acl_permit_space(_acl(ALLOW_ALL), enc) == TRUE

    def test_line_order_matters(self, enc):
        deny_first = acl_permit_space(_acl(BLOCK_NET, ALLOW_ALL), enc)
        permit_first = acl_permit_space(_acl(ALLOW_ALL, BLOCK_NET), enc)
        assert permit_first == TRUE
        assert deny_first != TRUE
        bad_src = enc.ip_in_prefix(f.SRC_IP, "10.9.0.0/16")
        assert enc.engine.and_(deny_first, bad_src) == FALSE

    def test_line_spaces_partition(self, enc):
        acl = _acl(BLOCK_NET, WEB, ALLOW_ALL)
        spaces = acl_line_spaces(acl, enc)
        engine = enc.engine
        # Effective spaces are pairwise disjoint.
        for i in range(len(spaces)):
            for j in range(i + 1, len(spaces)):
                assert engine.and_(spaces[i][1], spaces[j][1]) == FALSE
        # Their union is everything any line matches.
        union = engine.or_all(space for _line, space in spaces)
        assert union == TRUE  # ALLOW_ALL matches everything eventually

    def test_shadowed_line_has_empty_space(self, enc):
        shadowed = AclLine(
            action=Action.DENY, src=Prefix("10.9.5.0/24"), name="shadowed"
        )
        spaces = acl_line_spaces(_acl(BLOCK_NET, shadowed), enc)
        assert spaces[1][1] == FALSE


@st.composite
def _random_line(draw):
    action = draw(st.sampled_from([Action.PERMIT, Action.DENY]))
    protocol = draw(st.sampled_from([None, f.PROTO_TCP, f.PROTO_UDP]))
    src = None
    if draw(st.booleans()):
        src = Prefix(draw(st.integers(0, 0xFFFFFFFF)), draw(st.integers(0, 24)))
    dst = None
    if draw(st.booleans()):
        dst = Prefix(draw(st.integers(0, 0xFFFFFFFF)), draw(st.integers(0, 24)))
    ports = ()
    if protocol is not None and draw(st.booleans()):
        low = draw(st.integers(0, 65000))
        ports = ((low, low + draw(st.integers(0, 500))),)
    return AclLine(action=action, protocol=protocol, src=src, dst=dst,
                   dst_ports=ports)


@st.composite
def _random_packet(draw):
    return Packet(
        src_ip=Ip(draw(st.integers(0, 0xFFFFFFFF))),
        dst_ip=Ip(draw(st.integers(0, 0xFFFFFFFF))),
        src_port=draw(st.integers(0, 65535)),
        dst_port=draw(st.integers(0, 65535)),
        ip_protocol=draw(st.sampled_from([f.PROTO_TCP, f.PROTO_UDP, f.PROTO_ICMP])),
    )


class TestSymbolicConcreteAgreement:
    @given(st.lists(_random_line(), max_size=6), _random_packet())
    @settings(max_examples=120, deadline=None)
    def test_bdd_agrees_with_evaluation(self, lines, packet):
        enc = PacketEncoder()
        acl = _acl(*lines)
        permit_space = acl_permit_space(acl, enc)
        symbolic = enc.engine.eval(
            permit_space, _assignment(enc, packet)
        )
        concrete = evaluate_acl(acl, packet).permitted
        assert symbolic == concrete


def _assignment(enc, packet):
    assignment = {}
    for field in f.HEADER_FIELDS:
        value = packet.field_value(field)
        width = enc.layout.width(field)
        for bit in range(width):
            assignment[enc.layout.var(field, bit)] = (value >> (width - 1 - bit)) & 1
    return assignment
