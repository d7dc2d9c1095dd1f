"""Scenario enumeration, edit rendering, and verdicts."""

import pytest

from repro.config.loader import parse_config_text
from repro.core.session import Session
from repro.sweep.scenarios import (
    ALL_KINDS,
    BASE_SCENARIO_ID,
    NoDefaultPropertyError,
    ReachabilityProperty,
    Verdict,
    default_property,
    enumerate_elements,
    enumerate_scenarios,
    evaluate_property,
    host_files,
    render_scenario_edits,
)
from repro.synth.networks import NETWORKS


class TestEnumerateElements:
    def test_all_kinds_on_lab(self, lab_session):
        elements = enumerate_elements(lab_session.snapshot)
        ids = [e.element_id for e in elements]
        assert ids == sorted(ids)
        # 3 links (r1-r2, r2-r3, island pair), 5 nodes, 6 topology
        # interfaces, 7 ospf-active interfaces (r3[Ethernet1] is on the
        # topology-free host subnet but still runs OSPF).
        assert sum(1 for i in ids if i.startswith("link:")) == 3
        assert sum(1 for i in ids if i.startswith("node:")) == 5
        assert sum(1 for i in ids if i.startswith("iface:")) == 6
        assert sum(1 for i in ids if i.startswith("ospf-passive:")) == 7

    def test_kind_filter(self, lab_session):
        links = enumerate_elements(lab_session.snapshot, kinds=("link",))
        assert [e.element_id for e in links] == [
            "link:island1[Ethernet0]--island2[Ethernet0]",
            "link:r1[Ethernet0]--r2[Ethernet0]",
            "link:r2[Ethernet1]--r3[Ethernet0]",
        ]
        # A link shuts both endpoints; an interface flap only one.
        assert all(len(e.ops) == 2 for e in links)
        flaps = enumerate_elements(lab_session.snapshot, kinds=("interface",))
        assert all(len(e.ops) == 1 for e in flaps)

    def test_unknown_kind_raises(self, lab_session):
        with pytest.raises(ValueError, match="unknown element kind"):
            enumerate_elements(lab_session.snapshot, kinds=("link", "bogus"))

    def test_max_elements_truncates_deterministically(self, lab_session):
        full = enumerate_elements(lab_session.snapshot)
        capped = enumerate_elements(lab_session.snapshot, max_elements=4)
        assert capped == full[:4]

    def test_deterministic_across_parses(self, lab_configs):
        a = Session.from_texts(lab_configs, cache=False)
        b = Session.from_texts(lab_configs, cache=False)
        assert enumerate_elements(a.snapshot) == enumerate_elements(b.snapshot)


class TestEnumerateScenarios:
    def test_k1_is_singletons(self, lab_session):
        elements = enumerate_elements(lab_session.snapshot, kinds=("link",))
        scenarios, truncated = enumerate_scenarios(elements, k=1)
        assert truncated == 0
        assert [s.scenario_id for s in scenarios] == [
            e.element_id for e in elements
        ]

    def test_k2_counts_and_order(self, lab_session):
        elements = enumerate_elements(lab_session.snapshot, kinds=("link",))
        scenarios, truncated = enumerate_scenarios(elements, k=2)
        assert truncated == 0
        assert len(scenarios) == 3 + 3  # C(3,1) + C(3,2)
        sizes = [len(s.elements) for s in scenarios]
        assert sizes == sorted(sizes)  # singletons before pairs
        pair = scenarios[-1]
        assert pair.scenario_id == "+".join(pair.element_ids())

    def test_limit_reports_truncation(self, lab_session):
        elements = enumerate_elements(lab_session.snapshot, kinds=("link",))
        scenarios, truncated = enumerate_scenarios(elements, k=2, limit=4)
        assert len(scenarios) == 4
        assert truncated == 2

    def test_k_zero_rejected(self, lab_session):
        elements = enumerate_elements(lab_session.snapshot, kinds=("link",))
        with pytest.raises(ValueError, match="k must be >= 1"):
            enumerate_scenarios(elements, k=0)


class TestRenderEdits:
    def test_cisco_shutdown_parses_and_disables(self, lab_session, lab_configs):
        (element,) = [
            e
            for e in enumerate_elements(lab_session.snapshot, kinds=("interface",))
            if e.element_id == "iface:r1[Ethernet0]"
        ]
        scenarios, _ = enumerate_scenarios([element], k=1)
        changed = render_scenario_edits(
            lab_session.snapshot, lab_configs, scenarios[0]
        )
        assert set(changed) == {"r1.cfg"}
        assert changed["r1.cfg"].startswith(lab_configs["r1.cfg"])  # append-only
        device, _ = parse_config_text(changed["r1.cfg"])
        assert device.interfaces["Ethernet0"].enabled is False
        # the address survives the appended shutdown stanza
        assert device.interfaces["Ethernet0"].address is not None

    def test_cisco_ospf_passive(self, lab_session, lab_configs):
        (element,) = [
            e
            for e in enumerate_elements(lab_session.snapshot, kinds=("policy",))
            if e.element_id == "ospf-passive:r2[Ethernet0]"
        ]
        scenarios, _ = enumerate_scenarios([element], k=1)
        changed = render_scenario_edits(
            lab_session.snapshot, lab_configs, scenarios[0]
        )
        device, _ = parse_config_text(changed["r2.cfg"])
        assert device.interfaces["Ethernet0"].ospf_passive is True
        assert device.interfaces["Ethernet0"].enabled is True
        assert device.interfaces["Ethernet1"].ospf_passive is False

    def test_juniper_edits_parse(self):
        configs = {
            "j1.cfg": (
                "set system host-name j1\n"
                "set interfaces ge-0/0/0 unit 0 family inet address 10.0.1.1/30\n"
                "set protocols ospf area 0 interface ge-0/0/0 metric 10\n"
            ),
            "j2.cfg": (
                "set system host-name j2\n"
                "set interfaces ge-0/0/0 unit 0 family inet address 10.0.1.2/30\n"
                "set protocols ospf area 0 interface ge-0/0/0 metric 10\n"
            ),
        }
        session = Session.from_texts(configs, cache=False)
        elements = enumerate_elements(session.snapshot)
        by_id = {e.element_id: e for e in elements}
        link = by_id["link:j1[ge-0/0/0]--j2[ge-0/0/0]"]
        scenarios, _ = enumerate_scenarios([link], k=1)
        changed = render_scenario_edits(session.snapshot, configs, scenarios[0])
        assert set(changed) == {"j1.cfg", "j2.cfg"}
        assert "set interfaces ge-0/0/0 disable" in changed["j1.cfg"]
        device, _ = parse_config_text(changed["j1.cfg"])
        assert device.interfaces["ge-0/0/0"].enabled is False

        passive = by_id["ospf-passive:j1[ge-0/0/0]"]
        scenarios, _ = enumerate_scenarios([passive], k=1)
        changed = render_scenario_edits(session.snapshot, configs, scenarios[0])
        device, _ = parse_config_text(changed["j1.cfg"])
        assert device.interfaces["ge-0/0/0"].ospf_passive is True

    def test_multi_element_scenario_merges_per_host(
        self, lab_session, lab_configs
    ):
        elements = enumerate_elements(lab_session.snapshot, kinds=("interface",))
        r2_flaps = [e for e in elements if "r2" in e.element_id]
        assert len(r2_flaps) == 2
        scenarios, _ = enumerate_scenarios(r2_flaps, k=2)
        both = scenarios[-1]
        changed = render_scenario_edits(lab_session.snapshot, lab_configs, both)
        assert set(changed) == {"r2.cfg"}
        device, _ = parse_config_text(changed["r2.cfg"])
        assert device.interfaces["Ethernet0"].enabled is False
        assert device.interfaces["Ethernet1"].enabled is False


class TestHostFiles:
    def test_maps_every_host(self, lab_session):
        files = host_files(lab_session.snapshot)
        assert files["r1"] == "r1.cfg"
        assert set(files) == {"r1", "r2", "r3", "island1", "island2"}


class TestVerdicts:
    def test_canonical_is_holds_only(self):
        a = Verdict(holds=True, converged=True, dispositions=("accepted",), paths=2)
        b = Verdict(holds=True, converged=None)
        assert a.canonical() == b.canonical()
        assert a.canonical() != Verdict(holds=False).canonical()

    def test_to_json_omits_unsimulated_fields(self):
        proved = Verdict(holds=False, converged=None)
        body = proved.to_json()
        assert body["holds"] is False
        assert "converged" not in body

    def test_evaluate_on_base(self, lab_session):
        prop = ReachabilityProperty(
            src_node="r1", src_interface="Ethernet0", dst_ip="10.99.0.1"
        )
        verdict = evaluate_property(lab_session, prop)
        assert verdict.holds is True
        assert verdict.dispositions == ("accepted",)

    def test_default_property_is_deterministic(self, lab_configs):
        a = default_property(Session.from_texts(lab_configs, cache=False))
        b = default_property(Session.from_texts(lab_configs, cache=False))
        assert a == b

    @pytest.mark.parametrize("spec", NETWORKS, ids=lambda spec: spec.name)
    def test_default_property_holds_on_every_registry_base(self, spec):
        session = Session.from_texts(spec.generate(1), cache=False)
        assert evaluate_property(session, default_property(session)).holds

    def test_no_delivered_destination_is_a_typed_error(self):
        """The one other device drops everything arriving at it."""
        configs = {
            "a.cfg": "hostname a\n!\ninterface Ethernet0\n"
                     " ip address 10.0.0.1 255.255.255.252\n!\n",
            "b.cfg": "hostname b\n!\nip access-list extended DROP\n deny ip any any\n!\n"
                     "interface Ethernet0\n ip address 10.0.0.2 255.255.255.252\n"
                     " ip access-group DROP in\n!\n",
        }
        session = Session.from_texts(configs, cache=False)
        with pytest.raises(NoDefaultPropertyError, match=r"a\[Ethernet0\]"):
            default_property(session)

    def test_base_scenario_id_reserved(self, lab_session):
        elements = enumerate_elements(lab_session.snapshot)
        assert BASE_SCENARIO_ID not in {e.element_id for e in elements}
        assert set(ALL_KINDS) == {"link", "node", "interface", "policy"}
