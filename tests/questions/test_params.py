"""The shared wire codecs and the schema binder under every question
(moved here from ``tests/service/test_serialize.py`` with the codecs)."""

import pytest

from repro.hdr import fields as f
from repro.questions.params import (
    Param,
    ParamError,
    boolean,
    decode_object,
    headerspace_from_json,
    integer,
    packet_from_json,
    packet_to_json,
    protocol_from_json,
    seconds,
    sources_from_json,
    text,
)


class TestDecoders:
    def test_packet_roundtrip(self):
        packet = packet_from_json(
            {"dst_ip": "10.0.0.1", "src_ip": "10.0.0.2", "dst_port": 443,
             "ip_protocol": "tcp"}
        )
        assert str(packet.dst_ip) == "10.0.0.1"
        assert packet.ip_protocol == f.PROTO_TCP
        encoded = packet_to_json(packet)
        assert encoded["dst_port"] == 443
        assert "tcp" in encoded["description"]
        assert packet_to_json(None) is None

    def test_packet_rejects_unknown_fields(self):
        with pytest.raises(ParamError) as excinfo:
            packet_from_json({"dst_ip": "10.0.0.1", "ttl": 3})
        assert excinfo.value.field == "ttl"

    def test_packet_rejects_bad_values(self):
        for raw, field in (
            ({"dst_port": 70000}, None),  # Packet's own width check
            ({"dst_port": "80"}, "dst_port"),
            ({"dst_port": 1.5}, "dst_port"),
            ({"dst_port": True}, "dst_port"),
            ({"dst_ip": "not-an-ip"}, "dst_ip"),
            ({"dst_ip": 167772161}, "dst_ip"),
            ({"ip_protocol": "quic"}, "ip_protocol"),
            ("tcp", None),
        ):
            with pytest.raises(ValueError) as excinfo:
                packet_from_json(raw)
            assert getattr(excinfo.value, "field", None) == field, raw

    def test_protocol_names_and_numbers(self):
        assert protocol_from_json("TCP") == f.PROTO_TCP
        assert protocol_from_json(89) == 89
        for bad in ("quic", True, 256, -1, 6.0, None, ["tcp"]):
            with pytest.raises(ValueError):
                protocol_from_json(bad)

    def test_headerspace_defaults_and_ports(self):
        assert headerspace_from_json({}).dst_prefixes == ()
        space = headerspace_from_json(
            {"dst": "10.0.0.0/8", "dst_ports": [443, [8000, 8999]],
             "protocols": ["tcp"], "tcp_flags_set": [1]}
        )
        assert [str(prefix) for prefix in space.dst_prefixes] == ["10.0.0.0/8"]
        assert space.dst_ports == ((443, 443), (8000, 8999))
        assert space.ip_protocols == (f.PROTO_TCP,)
        assert space.tcp_flags_set == (1,)
        both = headerspace_from_json({"src": ["10.0.0.0/8", "192.0.2.0/24"]})
        assert len(both.src_prefixes) == 2
        for raw, field in (
            ({"dst_ports": ["443-444"]}, "dst_ports"),
            ({"dst_ports": [[1, 2, 3]]}, "dst_ports"),
            ({"dst_ports": [[1, "b"]]}, "dst_ports"),
            ({"dst_ports": 443}, "dst_ports"),
            ({"destination": "10.0.0.0/8"}, "destination"),
            ({"dst": 5}, "dst"),
            ({"dst": ["10.0.0.0"]}, "dst"),
            ({"protocols": "tcp"}, "protocols"),
            ({"protocols": [300]}, "protocols"),
            ({"tcp_flags_set": [8]}, "tcp_flags_set"),
            ({"tcp_flags_unset": "syn"}, "tcp_flags_unset"),
        ):
            with pytest.raises(ParamError) as excinfo:
                headerspace_from_json(raw)
            assert excinfo.value.field == field, raw
        with pytest.raises(ValueError):
            headerspace_from_json("10.0.0.0/8")

    def test_sources(self):
        assert sources_from_json(["r1", ["r2", "eth0"], ["r3"], ["r4", None]]) == [
            ("r1", None), ("r2", "eth0"), ("r3", None), ("r4", None),
        ]
        for bad in ([42], "r1", [[]], [["r1", "eth0", "x"]], [["r1", 3]], [[None]]):
            with pytest.raises(ValueError):
                sources_from_json(bad)


class TestBinder:
    SCHEMA = {
        "name": Param(text, required=True),
        "on": Param(boolean),
        "inner": Param(lambda raw: decode_object(raw, {"n": Param(integer(1, 9))})),
    }

    def test_decodes_and_drops_absent_and_null(self):
        assert decode_object({"name": "x"}, self.SCHEMA) == {"name": "x"}
        assert decode_object(
            {"name": "x", "on": None, "inner": {"n": 3}}, self.SCHEMA
        ) == {"name": "x", "inner": {"n": 3}}

    @pytest.mark.parametrize("raw, field", [
        ({}, "name"),
        ({"name": None}, "name"),
        ({"name": ""}, "name"),
        ({"name": 5}, "name"),
        ({"name": "x", "of": 1}, "of"),
        ({"name": "x", "on": "false"}, "on"),
        ({"name": "x", "on": 0}, "on"),
        ({"name": "x", "inner": {"n": 10}}, "inner.n"),
        ({"name": "x", "inner": {"m": 1}}, "inner.m"),
        ({"name": "x", "inner": [1]}, "inner"),
    ])
    def test_one_typed_error_naming_the_field(self, raw, field):
        with pytest.raises(ParamError) as excinfo:
            decode_object(raw, self.SCHEMA)
        assert excinfo.value.field == field
        assert str(excinfo.value).startswith(f"{field}: ")

    def test_scalars_take_json_types_literally(self):
        assert seconds(2) == 2.0 and isinstance(seconds(2), float)
        for bad in ("soon", True, -1, float("nan"), float("inf"), None, [1]):
            with pytest.raises(ValueError):
                seconds(bad)
        for bad in (True, 1.0, "1", None):
            with pytest.raises(ValueError):
                integer(0)(bad)
