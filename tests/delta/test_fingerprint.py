"""Routing fingerprints — one projection hash per routing stage — and
the per-stage changes they yield between two snapshots."""

import sys
import threading

from repro.config.loader import load_snapshot_from_texts
from repro.core.session import Session
from repro.delta import fingerprint as fingerprint_module
from repro.delta import Fingerprints, routing_changes, routing_fingerprint
from repro.synth.special import net1

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
    changes = routing_changes(Fingerprints(base), Fingerprints(new), hosts)
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


class TestFingerprintMemo:
    """A session hashes each device's routing projections once: a delta
    compares its edited devices' fingerprints with its base's memo, and
    starts its own memo with the base's for the devices it took over."""

    @staticmethod
    def _counted(monkeypatch):
        hashed = []

        def counting(device):
            hashed.append(device.hostname)
            return real(device)

        real = fingerprint_module.routing_fingerprint
        monkeypatch.setattr(fingerprint_module, "routing_fingerprint", counting)
        return hashed

    def test_thirty_edits_hash_each_base_device_once(self, monkeypatch):
        configs = net1(2)
        base = Session.from_texts(configs)
        hashed = self._counted(monkeypatch)
        files = sorted(configs)
        edited = set()
        for index in range(30):
            filename = files[index % 3]
            base.delta({filename: configs[filename] + f"ntp server 203.0.113.{index}\n"})
            edited.add(base.snapshot.sources[filename])
        assert len(edited) == 3
        assert len(hashed) == len(edited) + 30

    def test_a_delta_of_a_delta_hashes_only_its_own_edit(self, monkeypatch):
        configs = net1(2)
        first, second = sorted(configs)[:2]
        base = Session.from_texts(configs)
        base.delta({second: configs[second] + ROUTE_LINE})
        child = base.delta({first: configs[first] + ROUTE_LINE})
        hashed = self._counted(monkeypatch)
        # The child's memo holds its edited device (hashed when the child
        # was made) and, carried from the base, the other one.
        for filename in (first, second):
            grandchild = child.delta({filename: configs[filename] + "ntp server 203.0.113.9\n"})
            assert hashed == [base.snapshot.sources[filename]]
            assert grandchild.delta_info.seeds == (
                [] if filename == second else [base.snapshot.sources[first]]
            )
            hashed.clear()

    def test_deltas_of_one_base_on_several_threads(self):
        """Each delta carries the base's memo while the others add to
        it; every one still sees exactly its own edit."""
        configs = net1(2)
        base = Session.from_texts(configs)
        files = sorted(configs)
        errors = []

        def work(offset):
            try:
                for index in range(20):
                    filename = files[(offset + index) % len(files)]
                    new = base.delta({filename: configs[filename] + ROUTE_LINE})
                    assert new.delta_info.seeds == [base.snapshot.sources[filename]]
            except Exception as error:  # reported by the main thread
                errors.append(error)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
