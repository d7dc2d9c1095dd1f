"""Tests for IPv4 address and prefix primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hdr.ip import MAX_IP, Ip, Prefix, ip_range_to_prefixes


class TestIp:
    def test_parse_and_str_roundtrip(self):
        assert str(Ip("10.0.3.1")) == "10.0.3.1"
        assert Ip("0.0.0.0").value == 0
        assert Ip("255.255.255.255").value == MAX_IP

    def test_int_construction(self):
        assert Ip(0x0A000301) == Ip("10.0.3.1")

    def test_copy_construction(self):
        a = Ip("1.2.3.4")
        assert Ip(a) == a

    def test_invalid_strings(self):
        for bad in ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1.2.3.-4"]:
            with pytest.raises(ValueError):
                Ip(bad)

    def test_out_of_range_int(self):
        with pytest.raises(ValueError):
            Ip(-1)
        with pytest.raises(ValueError):
            Ip(MAX_IP + 1)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            Ip(1.5)

    def test_ordering(self):
        assert Ip("1.0.0.0") < Ip("2.0.0.0")
        assert Ip("10.0.0.1") <= Ip("10.0.0.1")
        assert max(Ip("9.9.9.9"), Ip("10.0.0.0")) == Ip("10.0.0.0")

    def test_bits_msb_first(self):
        ip = Ip("128.0.0.1")
        assert ip.bit(0) == 1
        assert ip.bit(31) == 1
        assert all(ip.bit(i) == 0 for i in range(1, 31))

    def test_bit_out_of_range(self):
        with pytest.raises(ValueError):
            Ip("1.1.1.1").bit(32)

    def test_plus(self):
        assert Ip("10.0.0.255").plus(1) == Ip("10.0.1.0")

    def test_hashable(self):
        assert len({Ip("1.1.1.1"), Ip("1.1.1.1"), Ip("1.1.1.2")}) == 2

    @given(st.integers(min_value=0, max_value=MAX_IP))
    def test_str_parse_roundtrip_property(self, value):
        assert Ip(str(Ip(value))).value == value


class TestPrefix:
    def test_parse(self):
        p = Prefix("10.0.3.0/24")
        assert p.length == 24
        assert str(p) == "10.0.3.0/24"

    def test_canonicalization(self):
        assert Prefix("10.0.3.77/24") == Prefix("10.0.3.0/24")

    def test_components(self):
        p = Prefix("192.168.4.0/22")
        assert p.network == Ip("192.168.4.0")
        assert p.network_value == Ip("192.168.4.0").value
        assert p.mask == Ip("255.255.252.0")
        assert p.first_ip == Ip("192.168.4.0")
        assert p.last_ip == Ip("192.168.7.255")
        assert p.num_ips == 1024

    def test_zero_prefix(self):
        p = Prefix("0.0.0.0/0")
        assert p.contains_ip("1.2.3.4")
        assert p.last_ip == Ip(MAX_IP)
        assert p.num_ips == 1 << 32

    def test_host_prefix(self):
        p = Prefix("1.2.3.4/32")
        assert p.contains_ip("1.2.3.4")
        assert not p.contains_ip("1.2.3.5")
        assert p.num_ips == 1

    def test_contains_ip_takes_an_ip_an_int_or_text(self):
        p = Prefix("10.0.3.0/24")
        inside, outside = Ip("10.0.3.9"), Ip("10.0.4.9")
        for spelling in (lambda ip: ip, lambda ip: ip.value, str):
            assert p.contains_ip(spelling(inside))
            assert not p.contains_ip(spelling(outside))
        with pytest.raises(ValueError):
            p.contains_ip(inside.value + (1 << 32))

    def test_missing_length(self):
        with pytest.raises(ValueError):
            Prefix("10.0.0.0")

    def test_bad_length(self):
        with pytest.raises(ValueError):
            Prefix("10.0.0.0/33")

    def test_contains_prefix(self):
        outer = Prefix("10.0.0.0/8")
        assert outer.contains_prefix(Prefix("10.5.0.0/16"))
        assert outer.contains_prefix(outer)
        assert not Prefix("10.5.0.0/16").contains_prefix(outer)
        assert not outer.contains_prefix(Prefix("11.0.0.0/8"))

    def test_overlaps(self):
        assert Prefix("10.0.0.0/8").overlaps(Prefix("10.1.0.0/16"))
        assert Prefix("10.1.0.0/16").overlaps(Prefix("10.0.0.0/8"))
        assert not Prefix("10.0.0.0/16").overlaps(Prefix("10.1.0.0/16"))

    def test_subnets(self):
        low, high = Prefix("10.0.0.0/8").subnets()
        assert low == Prefix("10.0.0.0/9")
        assert high == Prefix("10.128.0.0/9")

    def test_subnet_of_host_route_fails(self):
        with pytest.raises(ValueError):
            Prefix("1.1.1.1/32").subnets()

    def test_host_ips_excludes_network_and_broadcast(self):
        hosts = list(Prefix("10.0.0.0/30").host_ips())
        assert hosts == [Ip("10.0.0.1"), Ip("10.0.0.2")]

    def test_host_ips_p2p_includes_all(self):
        hosts = list(Prefix("10.0.0.0/31").host_ips())
        assert hosts == [Ip("10.0.0.0"), Ip("10.0.0.1")]

    def test_host_ips_limit(self):
        assert len(list(Prefix("10.0.0.0/24").host_ips(limit=5))) == 5

    def test_ordering_deterministic(self):
        prefixes = [Prefix("10.0.0.0/8"), Prefix("10.0.0.0/16"), Prefix("9.0.0.0/8")]
        assert sorted(prefixes)[0] == Prefix("9.0.0.0/8")

    @given(
        st.integers(min_value=0, max_value=MAX_IP),
        st.integers(min_value=0, max_value=32),
    )
    def test_contains_own_ips_property(self, value, length):
        p = Prefix(value, length)
        assert p.contains_ip(p.first_ip)
        assert p.contains_ip(p.last_ip)
        assert p.contains_ip(Ip(value))


class TestRangeToPrefixes:
    def test_single_ip(self):
        assert list(ip_range_to_prefixes(Ip("1.1.1.1"), Ip("1.1.1.1"))) == [
            Prefix("1.1.1.1/32")
        ]

    def test_aligned_block(self):
        assert list(ip_range_to_prefixes(Ip("10.0.0.0"), Ip("10.0.0.255"))) == [
            Prefix("10.0.0.0/24")
        ]

    def test_unaligned_range(self):
        prefixes = list(ip_range_to_prefixes(Ip("10.0.0.1"), Ip("10.0.0.6")))
        covered = []
        for p in prefixes:
            covered.extend(range(p.first_ip.value, p.last_ip.value + 1))
        assert covered == list(range(Ip("10.0.0.1").value, Ip("10.0.0.6").value + 1))

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            list(ip_range_to_prefixes(Ip("2.0.0.0"), Ip("1.0.0.0")))

    def test_full_space(self):
        assert list(ip_range_to_prefixes(Ip(0), Ip(MAX_IP))) == [Prefix("0.0.0.0/0")]

    @given(
        st.integers(min_value=0, max_value=MAX_IP),
        st.integers(min_value=0, max_value=1000),
    )
    def test_cover_exact_property(self, start, span):
        end = min(start + span, MAX_IP)
        prefixes = list(ip_range_to_prefixes(Ip(start), Ip(end)))
        # Exactly covers [start, end], in order, with no overlap.
        position = start
        for p in prefixes:
            assert p.first_ip.value == position
            position = p.last_ip.value + 1
        assert position == end + 1
