"""Tests for variable permutation (endpoint swap) and transformation
edges, forward and backward."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.engine import FALSE, TRUE, BddEngine
from repro.config.model import Acl, AclLine, Action, Device, NatKind, NatRule
from repro.dataplane.nat import NatPipeline
from repro.hdr import fields as f
from repro.hdr.headerspace import PacketEncoder
from repro.hdr.ip import Ip, Prefix
from repro.reachability.graph import Transform


class TestPermute:
    def test_identity_permutation(self):
        engine = BddEngine(8)
        node = engine.and_(engine.var(0), engine.nvar(3))
        assert engine.permute(node, {}) == node
        assert engine.permute(node, {0: 0, 3: 3}) == node

    def test_simple_swap(self):
        engine = BddEngine(8)
        node = engine.and_(engine.var(0), engine.nvar(1))
        swapped = engine.permute(node, {0: 1, 1: 0})
        assert swapped == engine.and_(engine.var(1), engine.nvar(0))

    def test_swap_is_involution(self):
        engine = BddEngine(8)
        node = engine.or_(
            engine.and_(engine.var(0), engine.var(5)),
            engine.xor(engine.var(2), engine.var(7)),
        )
        mapping = {0: 5, 5: 0, 2: 7, 7: 2}
        assert engine.permute(engine.permute(node, mapping), mapping) == node

    def test_terminals(self):
        engine = BddEngine(4)
        assert engine.permute(TRUE, {0: 1, 1: 0}) == TRUE
        assert engine.permute(FALSE, {0: 1, 1: 0}) == FALSE

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=50)
    def test_permute_preserves_semantics(self, value_bits, probe_bits):
        engine = BddEngine(8)
        # Build a function over bits 0-3, swap the block with bits 4-7.
        node = engine.from_assignment(
            {i: (value_bits >> i) & 1 for i in range(4)}
        )
        mapping = {i: i + 4 for i in range(4)}
        mapping.update({i + 4: i for i in range(4)})
        swapped = engine.permute(node, mapping)
        assignment = {i: (probe_bits >> i) & 1 for i in range(8)}
        swapped_assignment = {
            mapping.get(i, i): bit for i, bit in assignment.items()
        }
        assert engine.eval(swapped, swapped_assignment) == engine.eval(
            node, assignment
        )


class TestEndpointSwap:
    def test_packet_swap(self):
        enc = PacketEncoder()
        engine = enc.engine
        layout = enc.layout
        mapping = {}
        for a, b in ((f.DST_IP, f.SRC_IP), (f.DST_PORT, f.SRC_PORT)):
            for bit in range(layout.width(a)):
                mapping[layout.var(a, bit)] = layout.var(b, bit)
                mapping[layout.var(b, bit)] = layout.var(a, bit)
        flow = engine.and_(
            enc.ip_eq(f.SRC_IP, "10.1.1.1"),
            engine.and_(
                enc.ip_eq(f.DST_IP, "10.2.2.2"),
                engine.and_(
                    enc.field_eq(f.SRC_PORT, 51000),
                    enc.field_eq(f.DST_PORT, 443),
                ),
            ),
        )
        swapped = engine.permute(flow, mapping)
        expected = engine.and_(
            enc.ip_eq(f.SRC_IP, "10.2.2.2"),
            engine.and_(
                enc.ip_eq(f.DST_IP, "10.1.1.1"),
                engine.and_(
                    enc.field_eq(f.SRC_PORT, 443),
                    enc.field_eq(f.DST_PORT, 51000),
                ),
            ),
        )
        assert swapped == expected


def _nat_device():
    device = Device(hostname="fw")
    device.acls["M"] = Acl(
        name="M", lines=[AclLine(action=Action.PERMIT, src=Prefix("192.168.0.0/16"))]
    )
    return device


class TestTransformEdge:
    def test_forward_backward_roundtrip(self):
        enc = PacketEncoder()
        engine = enc.engine
        pipeline = NatPipeline(
            _nat_device(),
            [NatRule(kind=NatKind.SOURCE, match_acl="M", pool=Prefix("100.64.0.0/24"))],
            kind=None,
        )
        edge = Transform(pipeline, "test")
        inside = enc.ip_in_prefix(f.SRC_IP, "192.168.0.0/16")
        out = edge.forward(enc, inside)
        assert out == enc.ip_in_prefix(f.SRC_IP, "100.64.0.0/24")
        # Backward: whose packets could have produced the pool space?
        pre = edge.backward(enc, out)
        assert engine.and_(pre, inside) == inside

    def test_backward_passthrough(self):
        enc = PacketEncoder()
        engine = enc.engine
        pipeline = NatPipeline(
            _nat_device(),
            [NatRule(kind=NatKind.SOURCE, match_acl="M", pool=Prefix("100.64.0.0/24"))],
            kind=None,
        )
        edge = Transform(pipeline, "test")
        outside = enc.ip_in_prefix(f.SRC_IP, "172.16.0.0/12")
        # Non-matching traffic passes unchanged both ways.
        assert edge.forward(enc, outside) == outside
        assert engine.and_(edge.backward(enc, outside), outside) == outside

    def test_backward_excludes_unreachable_outputs(self):
        enc = PacketEncoder()
        engine = enc.engine
        pipeline = NatPipeline(
            _nat_device(),
            [NatRule(kind=NatKind.SOURCE, match_acl="M", pool=Prefix("100.64.0.5/32"))],
            kind=None,
        )
        edge = Transform(pipeline, "test")
        # Target an output the rewrite can never produce for matching
        # traffic; only pass-through could reach it.
        target = enc.ip_eq(f.SRC_IP, "100.64.0.9")
        pre = edge.backward(enc, target)
        inside = enc.ip_in_prefix(f.SRC_IP, "192.168.0.0/16")
        assert engine.and_(pre, inside) == FALSE
        assert engine.and_(pre, target) == target  # pass-through preimage
