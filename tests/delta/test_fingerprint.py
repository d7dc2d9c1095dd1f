"""Routing fingerprints — one projection hash per routing stage — and
the per-stage changes they yield between two snapshots."""

from repro.config.loader import load_snapshot_from_texts
from repro.core.session import Session
from repro.delta import routing_changes, routing_fingerprint

OSPF_PAIR = {
    "r1": """
hostname r1
interface Loopback0
 ip address 1.1.1.1 255.255.255.255
 ip ospf area 0
interface Ethernet0
 ip address 10.0.12.1 255.255.255.0
 ip ospf area 0
router ospf 1
 router-id 1.1.1.1
""",
    "r2": """
hostname r2
interface Loopback0
 ip address 2.2.2.2 255.255.255.255
 ip ospf area 0
interface Ethernet0
 ip address 10.0.12.2 255.255.255.0
 ip ospf area 0
router ospf 1
 router-id 2.2.2.2
""",
}


def _device(text, hostname="r1"):
    return load_snapshot_from_texts({hostname: text}).device(hostname)


class TestRoutingFingerprint:
    BASE = OSPF_PAIR["r1"]

    def test_stable_across_reparses(self):
        assert routing_fingerprint(_device(self.BASE)) == routing_fingerprint(
            _device(self.BASE)
        )

    def test_management_plane_edits_are_inert(self):
        for inert_line in (
            "ntp server 203.0.113.250\n",
            "snmp-server community letmein RO\n",
        ):
            edited = _device(self.BASE + inert_line)
            assert routing_fingerprint(edited) == routing_fingerprint(
                _device(self.BASE)
            ), inert_line

    def test_interface_description_is_inert(self):
        edited = self.BASE.replace(
            "interface Ethernet0\n",
            "interface Ethernet0\n description uplink to r2\n",
        )
        assert routing_fingerprint(_device(edited)) == routing_fingerprint(
            _device(self.BASE)
        )

    def test_static_route_changes_fingerprint(self):
        edited = self.BASE + "ip route 203.0.113.0 255.255.255.0 Null0\n"
        assert routing_fingerprint(_device(edited)) != routing_fingerprint(
            _device(self.BASE)
        )

    def test_interface_address_changes_fingerprint(self):
        edited = self.BASE.replace("10.0.12.1", "10.0.12.9")
        assert routing_fingerprint(_device(edited)) != routing_fingerprint(
            _device(self.BASE)
        )

    def test_acl_relevant_only_for_bgp_speakers(self):
        acl = "ip access-list extended MGMT\n permit tcp any any eq 22\n"
        # No BGP: ACLs cannot influence routing, fingerprint unchanged.
        assert routing_fingerprint(_device(self.BASE + acl)) == (
            routing_fingerprint(_device(self.BASE))
        )
        # With BGP the same ACL participates (session viability, §4.1.1).
        bgp = (
            "router bgp 65001\n"
            " bgp router-id 1.1.1.1\n"
            " neighbor 10.0.12.2 remote-as 65002\n"
        )
        assert routing_fingerprint(_device(self.BASE + bgp + acl)) != (
            routing_fingerprint(_device(self.BASE + bgp))
        )


ROUTE_LINE = "ip route 203.0.113.0 255.255.255.0 Null0\n"


def _moved(base, new, hosts):
    """stage -> devices whose projection for it moved."""
    changes = routing_changes(base, new, hosts)
    return {stage: hosts for stage, hosts in changes.items() if hosts}


class TestRoutingSeeds:
    def test_identical_and_inert_snapshots_have_no_seed(self):
        base = load_snapshot_from_texts(OSPF_PAIR)
        inert = dict(OSPF_PAIR, r1=OSPF_PAIR["r1"] + "ntp server 203.0.113.250\n")
        assert _moved(base, load_snapshot_from_texts(OSPF_PAIR), set()) == {}
        assert _moved(base, load_snapshot_from_texts(inert), {"r1"}) == {}

    def test_routing_edit_seeds_only_the_edited_device(self):
        edited = dict(OSPF_PAIR, r1=OSPF_PAIR["r1"] + ROUTE_LINE)
        base = load_snapshot_from_texts(OSPF_PAIR)
        new = load_snapshot_from_texts(edited)
        # A static route is an input of the device's own RIB alone.
        assert _moved(base, new, {"r1"}) == {"local": ["r1"]}
        # Only the hosts the caller names are hashed: the engine derives
        # them from changed *files*, on both sides of the edit.
        assert _moved(base, new, {"r2"}) == {}

    def test_added_and_removed_devices_seed(self):
        """A device on one side only has no projection to compare: it
        differs in every stage, so no stage is taken for it even where a
        later edit restores the device set."""
        grown = dict(OSPF_PAIR)
        grown["r3"] = "hostname r3\ninterface e0\n ip address 10.9.0.1 255.255.255.0\n"
        base = load_snapshot_from_texts(OSPF_PAIR)
        new = load_snapshot_from_texts(grown)
        every = {"local": ["r3"], "igp": ["r3"], "bgp": ["r3"]}
        assert _moved(base, new, {"r3"}) == every
        assert _moved(new, base, set()) == every
        session = Session.from_texts(OSPF_PAIR)
        assert session.delta({"r3": grown["r3"]}).delta_info.seeds == ["r3"]
        grown_session = Session.from_texts(grown)
        assert grown_session.delta({"r3": None}).delta_info.seeds == ["r3"]

    def test_each_stage_sees_its_own_inputs(self):
        base = load_snapshot_from_texts(OSPF_PAIR)
        cost = OSPF_PAIR["r1"].replace(
            " ip address 10.0.12.1 255.255.255.0\n",
            " ip address 10.0.12.1 255.255.255.0\n ip ospf cost 77\n",
        )
        shut = OSPF_PAIR["r1"].replace(
            " ip address 10.0.12.1 255.255.255.0\n",
            " ip address 10.0.12.1 255.255.255.0\n shutdown\n",
        )
        bgp = (
            "router bgp 65001\n"
            " bgp router-id 1.1.1.1\n"
            " neighbor 10.0.12.2 remote-as 65002\n"
        )
        acl = "ip access-list extended MGMT\n permit tcp any any eq 22\n"
        cases = {
            cost: {"igp": ["r1"]},
            shut: {"local": ["r1"], "igp": ["r1"], "bgp": ["r1"]},
            OSPF_PAIR["r1"] + bgp: {"bgp": ["r1"]},
        }
        for text, moved in cases.items():
            new = load_snapshot_from_texts(dict(OSPF_PAIR, r1=text))
            assert _moved(base, new, {"r1"}) == moved
        speaker = load_snapshot_from_texts(dict(OSPF_PAIR, r1=OSPF_PAIR["r1"] + bgp))
        filtered = load_snapshot_from_texts(
            dict(OSPF_PAIR, r1=OSPF_PAIR["r1"] + bgp + acl)
        )
        assert _moved(speaker, filtered, {"r1"}) == {"bgp": ["r1"]}
