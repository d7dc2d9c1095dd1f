"""Tests for the ciscoish parser and its conversion to the VI model."""

import pytest

from repro.config.cisco import parse_cisco
from repro.config.model import Action, MatchKind, NatKind, Protocol, SetKind
from repro.hdr import fields as f
from repro.hdr.ip import Ip, Prefix

BASIC = """\
hostname r1
!
interface Ethernet0
 description core link
 ip address 10.0.1.1 255.255.255.0
 ip access-group ACL_IN in
 ip access-group ACL_OUT out
 ip ospf cost 10
 ip ospf area 0
!
interface Ethernet1
 ip address 10.0.2.1/24
 shutdown
!
interface Loopback0
 ip address 1.1.1.1 255.255.255.255
!
router ospf 1
 router-id 1.1.1.1
 passive-interface Loopback0
 redistribute static route-map RM_STATIC metric 20
!
router bgp 65001
 bgp router-id 1.1.1.1
 neighbor 10.0.1.2 remote-as 65002
 neighbor 10.0.1.2 description transit peer
 neighbor 10.0.1.2 route-map RM_IN in
 neighbor 10.0.1.2 route-map RM_OUT out
 neighbor 10.0.1.2 next-hop-self
 neighbor 10.0.1.2 send-community
 network 10.1.0.0 mask 255.255.0.0
 redistribute connected
 maximum-paths 4
!
ip route 0.0.0.0 0.0.0.0 10.0.1.2
ip route 10.9.0.0 255.255.0.0 Null0 250
!
ip access-list extended ACL_IN
 permit tcp any host 10.0.1.5 eq 80
 deny ip 10.9.0.0 0.0.255.255 any
 permit tcp any any established
 permit ip any any
!
ip access-list standard ACL_OUT
 permit 10.0.0.0 0.255.255.255
!
ip prefix-list PL seq 5 permit 10.0.0.0/8 le 24
!
route-map RM_IN permit 10
 match ip address prefix-list PL
 set local-preference 200
 set community 65001:100 additive
route-map RM_IN deny 20
!
route-map RM_OUT permit 10
 set metric 50
!
route-map RM_STATIC permit 10
!
ip community-list standard CL permit 65001:100
ip as-path access-list AP permit ^65002_
!
ntp server 192.0.2.1
ip name-server 192.0.2.53
snmp-server community public
"""


@pytest.fixture(scope="module")
def parsed():
    return parse_cisco(BASIC)


class TestInterfaces:
    def test_hostname(self, parsed):
        device, _ = parsed
        assert device.hostname == "r1"

    def test_address_with_mask(self, parsed):
        device, _ = parsed
        eth0 = device.interfaces["Ethernet0"]
        assert eth0.address == Ip("10.0.1.1")
        assert eth0.prefix_length == 24
        assert eth0.prefix == Prefix("10.0.1.0/24")

    def test_cidr_address(self, parsed):
        device, _ = parsed
        assert device.interfaces["Ethernet1"].prefix_length == 24

    def test_shutdown(self, parsed):
        device, _ = parsed
        assert not device.interfaces["Ethernet1"].enabled
        assert device.interfaces["Ethernet0"].enabled

    def test_acl_bindings(self, parsed):
        device, _ = parsed
        eth0 = device.interfaces["Ethernet0"]
        assert eth0.incoming_acl == "ACL_IN"
        assert eth0.outgoing_acl == "ACL_OUT"

    def test_ospf_interface_settings(self, parsed):
        device, _ = parsed
        eth0 = device.interfaces["Ethernet0"]
        assert eth0.ospf_enabled
        assert eth0.ospf_cost == 10
        assert eth0.ospf_area == 0

    def test_passive_interface(self, parsed):
        device, _ = parsed
        assert device.interfaces["Loopback0"].ospf_passive

    def test_description(self, parsed):
        device, _ = parsed
        assert device.interfaces["Ethernet0"].description == "core link"


class TestRouting:
    def test_ospf_process(self, parsed):
        device, _ = parsed
        assert device.ospf.router_id == Ip("1.1.1.1")
        redist = device.ospf.redistributions[0]
        assert redist.source is Protocol.STATIC
        assert redist.route_map == "RM_STATIC"
        assert redist.metric == 20

    def test_bgp_process(self, parsed):
        device, _ = parsed
        assert device.bgp.local_as == 65001
        assert device.bgp.maximum_paths == 4
        assert device.bgp.networks == [Prefix("10.1.0.0/16")]

    def test_bgp_neighbor(self, parsed):
        device, _ = parsed
        neighbor = device.bgp.neighbors[Ip("10.0.1.2")]
        assert neighbor.remote_as == 65002
        assert neighbor.import_policy == "RM_IN"
        assert neighbor.export_policy == "RM_OUT"
        assert neighbor.next_hop_self
        assert neighbor.send_community
        assert neighbor.description == "transit peer"

    def test_static_routes(self, parsed):
        device, _ = parsed
        default = device.static_routes[0]
        assert default.prefix == Prefix("0.0.0.0/0")
        assert default.next_hop_ip == Ip("10.0.1.2")
        null_route = device.static_routes[1]
        assert null_route.is_null_routed
        assert null_route.admin_distance == 250

    def test_router_id_fallback_uses_loopback(self):
        device, _ = parse_cisco(
            "hostname r9\n"
            "interface Loopback0\n ip address 9.9.9.9 255.255.255.255\n"
            "interface Ethernet0\n ip address 10.255.0.1 255.255.255.0\n"
        )
        assert device.router_id() == Ip("9.9.9.9")


class TestAcls:
    def test_extended_acl_lines(self, parsed):
        device, _ = parsed
        acl = device.acls["ACL_IN"]
        first = acl.lines[0]
        assert first.action is Action.PERMIT
        assert first.protocol == f.PROTO_TCP
        assert first.dst == Prefix("10.0.1.5/32")
        assert first.dst_ports == ((80, 80),)
        second = acl.lines[1]
        assert second.action is Action.DENY
        assert second.src == Prefix("10.9.0.0/16")
        third = acl.lines[2]
        assert third.established

    def test_standard_acl(self, parsed):
        device, _ = parsed
        acl = device.acls["ACL_OUT"]
        assert acl.lines[0].src == Prefix("10.0.0.0/8")
        assert acl.lines[0].protocol is None

    def test_port_names(self):
        device, _ = parse_cisco(
            "hostname r\nip access-list extended A\n permit tcp any any eq https\n"
        )
        assert device.acls["A"].lines[0].dst_ports == ((443, 443),)

    def test_port_operators(self):
        device, _ = parse_cisco(
            "hostname r\nip access-list extended A\n"
            " permit tcp any gt 1023 any lt 1024\n"
            " permit udp any range 5000 6000 any neq 53\n"
        )
        first, second = device.acls["A"].lines
        assert first.src_ports == ((1024, 65535),)
        assert first.dst_ports == ((0, 1023),)
        assert second.src_ports == ((5000, 6000),)
        assert second.dst_ports == ((0, 52), (54, 65535))


class TestPolicy:
    def test_prefix_list(self, parsed):
        device, _ = parsed
        plist = device.prefix_lists["PL"]
        assert plist.permits(Prefix("10.5.0.0/16"))
        assert not plist.permits(Prefix("10.5.0.0/28"))  # le 24
        assert not plist.permits(Prefix("11.0.0.0/8"))

    def test_route_map_clauses(self, parsed):
        device, _ = parsed
        route_map = device.route_maps["RM_IN"]
        permit, deny = route_map.sorted_clauses()
        assert permit.action is Action.PERMIT
        assert permit.matches[0].kind is MatchKind.PREFIX_LIST
        assert permit.matches[0].value == "PL"
        set_kinds = {s.kind for s in permit.sets}
        assert SetKind.LOCAL_PREF in set_kinds
        assert SetKind.COMMUNITY_ADDITIVE in set_kinds
        assert deny.action is Action.DENY

    def test_community_and_as_path_lists(self, parsed):
        device, _ = parsed
        assert device.community_lists["CL"].permits(["65001:100"])
        assert not device.community_lists["CL"].permits(["65001:999"])
        assert device.as_path_lists["AP"].permits([65002, 3356])
        assert not device.as_path_lists["AP"].permits([65001, 65002])


class TestManagementPlane:
    def test_ntp_dns_snmp(self, parsed):
        device, _ = parsed
        assert device.ntp_servers == [Ip("192.0.2.1")]
        assert device.dns_servers == [Ip("192.0.2.53")]
        assert device.snmp_communities == ["public"]

    def test_config_lines_counted(self, parsed):
        device, _ = parsed
        assert device.config_lines > 40


class TestNatAndZones:
    NAT = """\
hostname fw1
interface Ethernet0
 ip address 192.168.1.1 255.255.255.0
 ip nat inside
 zone-member security trust
interface Ethernet1
 ip address 203.0.113.1 255.255.255.0
 ip nat outside
 zone-member security untrust
ip access-list extended NAT_MATCH
 permit ip 192.168.0.0 0.0.255.255 any
ip nat pool POOL1 100.64.0.1 100.64.0.254 prefix-length 24
ip nat inside source list NAT_MATCH pool POOL1
ip nat inside source static 192.168.1.5 203.0.113.5
zone security trust
zone security untrust
zone-pair security TP source trust destination untrust
 service-policy type inspect FW_POLICY
ip access-list extended FW_POLICY
 permit tcp any any eq 443
"""

    def test_nat_rules_attach_to_outside_interface(self):
        device, _ = parse_cisco(self.NAT)
        outside = device.interfaces["Ethernet1"]
        kinds = [rule.kind for rule in outside.src_nat_rules]
        assert NatKind.SOURCE in kinds
        assert NatKind.STATIC in kinds
        dynamic = next(r for r in outside.src_nat_rules if r.kind is NatKind.SOURCE)
        assert dynamic.pool == Prefix("100.64.0.0/24")
        assert dynamic.match_acl == "NAT_MATCH"
        static = next(r for r in outside.src_nat_rules if r.kind is NatKind.STATIC)
        assert static.static_inside == Prefix("192.168.1.5/32")
        assert static.pool == Prefix("203.0.113.5/32")

    def test_inside_interface_has_no_nat(self):
        device, _ = parse_cisco(self.NAT)
        assert device.interfaces["Ethernet0"].src_nat_rules == []

    def test_zones(self):
        device, _ = parse_cisco(self.NAT)
        assert device.zone_of_interface("Ethernet0") == "trust"
        policy = device.zone_policies[("trust", "untrust")]
        assert policy.acl == "FW_POLICY"

    def test_undefined_nat_pool_warns(self):
        _, warnings = parse_cisco(
            "hostname r\nip nat inside source list A pool NOPE\n"
        )
        assert any("undefined NAT pool" in w.comment for w in warnings)


class TestWarnings:
    def test_unrecognized_line_warns_but_continues(self):
        device, warnings = parse_cisco(
            "hostname r1\nfeature bash-shell\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n"
        )
        assert device.interfaces["Ethernet0"].address == Ip("10.0.0.1")
        assert any("unrecognized top-level" in w.comment for w in warnings)

    def test_unrecognized_interface_line(self):
        _, warnings = parse_cisco(
            "hostname r1\ninterface Ethernet0\n duplex full\n"
        )
        assert any("unrecognized interface line" in w.comment for w in warnings)

    def test_mtu_and_ospf_timers_parsed(self):
        device, warnings = parse_cisco(
            "hostname r1\n"
            "interface Ethernet0\n"
            " ip address 10.0.0.1 255.255.255.0\n"
            " mtu 9000\n"
            " ip ospf hello-interval 5\n"
        )
        iface = device.interfaces["Ethernet0"]
        assert iface.mtu == 9000
        assert iface.ospf_hello_interval == 5
        assert iface.ospf_dead_interval == 20  # 4x hello when unset
        assert not warnings

    def test_numbered_acl_warns(self):
        _, warnings = parse_cisco("hostname r1\naccess-list 101 permit ip any any\n")
        assert any("numbered ACLs" in w.comment for w in warnings)

    def test_discontiguous_wildcard_rejected(self):
        device, warnings = parse_cisco(
            "hostname r\nip access-list extended A\n permit ip 10.0.0.0 0.255.0.255 any\n",
            filename="r.cfg",
        )
        [warning] = warnings
        assert (warning.source_file, warning.line_number) == ("r.cfg", 3)
        assert "discontiguous wildcard mask" in warning.comment
        assert device.acls["A"].lines == []
