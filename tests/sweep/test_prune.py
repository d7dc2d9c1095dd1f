"""Pruning: physical cuts and identical edits."""

import pytest

from repro.core.session import Session
from repro.routing.topology import InterfaceId
from repro.sweep import sweep_session
from repro.sweep.prune import (
    EVALUATE,
    PRUNED_CUT,
    PRUNED_DUPLICATE,
    CutChecker,
    plan_sweep,
)
from repro.sweep.scenarios import (
    ALL_KINDS,
    BASE_SCENARIO_ID,
    ReachabilityProperty,
    enumerate_elements,
    enumerate_scenarios,
)
from repro.sweep.validate import brute_force_verdicts

CHAIN_PROP = ReachabilityProperty(
    src_node="r1", src_interface="Ethernet0", dst_ip="10.99.0.1"
)

#: Rooted at r2, so the r1-side failures are not cuts.
R2_PROP = ReachabilityProperty(
    src_node="r2", src_interface="Ethernet1", dst_ip="10.99.0.1"
)


def _plan(session, configs, prop, k=1, kinds=ALL_KINDS):
    elements = enumerate_elements(session.snapshot, kinds=kinds)
    scenarios, _ = enumerate_scenarios(elements, k=k)
    return plan_sweep(session.snapshot, configs, scenarios, prop)


class TestCutChecker:
    def test_chain_link_is_a_cut(self, lab_session):
        cuts = CutChecker(lab_session.snapshot, CHAIN_PROP)
        assert cuts.severed(
            {InterfaceId("r1", "Ethernet0")}
        )  # one-sided flap severs the only path
        assert cuts.severed(
            {InterfaceId("r2", "Ethernet1"), InterfaceId("r3", "Ethernet0")}
        )

    def test_island_failure_is_not_a_cut(self, lab_session):
        cuts = CutChecker(lab_session.snapshot, CHAIN_PROP)
        assert not cuts.severed({InterfaceId("island1", "Ethernet0")})
        assert not cuts.severed(set())

    def test_src_owner_disables_check(self, lab_session):
        prop = ReachabilityProperty(
            src_node="r3", src_interface="Ethernet0", dst_ip="10.99.0.1"
        )
        cuts = CutChecker(lab_session.snapshot, prop)
        # src owns the destination: delivery never crosses a link, so
        # no shutdown set is provably severing.
        assert not cuts.severed({InterfaceId("r3", "Ethernet0")})

    def test_no_owners_disables_check(self, lab_session):
        prop = ReachabilityProperty(
            src_node="r1", src_interface="Ethernet0", dst_ip="203.0.113.9"
        )
        cuts = CutChecker(lab_session.snapshot, prop)
        assert not cuts.severed({InterfaceId("r1", "Ethernet0")})


class TestPlanSweep:
    def test_lab_k1_classification(self, lab_session, lab_configs):
        plan = _plan(lab_session, lab_configs, CHAIN_PROP)
        by_status = {}
        for entry in plan.entries:
            by_status.setdefault(entry.status, []).append(
                entry.scenario.scenario_id
            )
        # Every chain shutdown severs the linear topology.
        assert len(by_status[PRUNED_CUT]) == 9
        assert not any("island" in sid for sid in by_status[PRUNED_CUT])
        # OSPF-passive toggles don't shut anything, and the island pair's
        # failures sever nothing the property needs: they simulate...
        assert sorted(by_status[EVALUATE]) == [
            "iface:island1[Ethernet0]",
            "iface:island2[Ethernet0]",
            "link:island1[Ethernet0]--island2[Ethernet0]",
            "ospf-passive:island1[Ethernet0]",
            "ospf-passive:island2[Ethernet0]",
            "ospf-passive:r1[Ethernet0]",
            "ospf-passive:r2[Ethernet0]",
            "ospf-passive:r2[Ethernet1]",
            "ospf-passive:r3[Ethernet0]",
            "ospf-passive:r3[Ethernet1]",
        ]
        # ...but an island node has one interface: its failure is that
        # interface's flap.
        assert sorted(by_status[PRUNED_DUPLICATE]) == [
            "node:island1", "node:island2",
        ]
        assert plan.counts() == {
            EVALUATE: 10, PRUNED_CUT: 9, PRUNED_DUPLICATE: 2,
        }

    def test_evaluate_entries_carry_configs(self, lab_session, lab_configs):
        plan = _plan(lab_session, lab_configs, CHAIN_PROP, kinds=("policy",))
        for entry in plan.entries:
            if entry.status == EVALUATE:
                assert entry.changed_configs
            else:
                assert entry.changed_configs is None

    def test_duplicate_representative_is_first_seen(
        self, lab_session, lab_configs
    ):
        """The {flap, flap} pair edits both configs exactly like its
        singleton link element, which represents it."""
        elements = enumerate_elements(lab_session.snapshot)
        by_id = {e.element_id: e for e in elements}
        chosen = [
            by_id["link:r1[Ethernet0]--r2[Ethernet0]"],
            by_id["iface:r1[Ethernet0]"],
            by_id["iface:r2[Ethernet0]"],
        ]
        scenarios, _ = enumerate_scenarios(chosen, k=2)
        plan = plan_sweep(lab_session.snapshot, lab_configs, scenarios, R2_PROP)
        entries = {e.scenario.scenario_id: e for e in plan.entries}
        entry = entries["iface:r1[Ethernet0]+iface:r2[Ethernet0]"]
        assert entry.status == PRUNED_DUPLICATE
        assert entry.representative == "link:r1[Ethernet0]--r2[Ethernet0]"
        assert entry.changed_configs is None
        assert entries[entry.representative].status == EVALUATE

    def test_base_representative_id_reserved(self):
        assert BASE_SCENARIO_ID == "<base>"


class TestDuplicates:
    def test_flap_pair_matches_link(self, lab_session):
        """{flap u, flap v} has the op map of the link element u--v; one
        flap alone does not."""
        by_id = {e.element_id: e for e in enumerate_elements(lab_session.snapshot)}
        (link,), _ = enumerate_scenarios(
            [by_id["link:r1[Ethernet0]--r2[Ethernet0]"]], k=1
        )
        flaps = [by_id["iface:r1[Ethernet0]"], by_id["iface:r2[Ethernet0]"]]
        scenarios, _ = enumerate_scenarios(flaps, k=2)
        one, pair = scenarios[0], scenarios[-1]
        assert len(pair.elements) == 2
        assert pair.op_map() == link.op_map()
        assert one.op_map() != link.op_map()

    @pytest.mark.parametrize("k", (1, 2))
    def test_equal_op_maps_dedupe_onto_the_smallest_member(
        self, lab_session, lab_configs, k
    ):
        """Every class of equal op maps among the non-cut scenarios has
        one evaluated member, its smallest in (size, id) order; the rest
        name it."""
        elements = enumerate_elements(lab_session.snapshot)
        scenarios, _ = enumerate_scenarios(elements, k=k)
        plan = plan_sweep(lab_session.snapshot, lab_configs, scenarios, R2_PROP)
        order = {s.scenario_id: i for i, s in enumerate(scenarios)}
        classes = {}
        for entry in plan.entries:
            if entry.status != PRUNED_CUT:
                key = tuple(sorted(entry.scenario.op_map().items()))
                classes.setdefault(key, []).append(entry)
        duplicates = 0
        for members in classes.values():
            smallest = min(members, key=lambda e: order[e.scenario.scenario_id])
            assert smallest.status == EVALUATE
            for entry in members:
                if entry is not smallest:
                    duplicates += 1
                    assert entry.status == PRUNED_DUPLICATE
                    assert entry.representative == smallest.scenario.scenario_id
        assert duplicates == plan.counts()[PRUNED_DUPLICATE]
        assert duplicates > 0

    def test_duplicates_of_a_cut_are_cut(self, lab_session, lab_configs):
        """Equal op maps shut equal interfaces: a cut class is cut whole
        and never represents anything."""
        plan = _plan(lab_session, lab_configs, CHAIN_PROP, k=2)
        classes = {}
        for entry in plan.entries:
            key = tuple(sorted(entry.scenario.op_map().items()))
            classes.setdefault(key, set()).add(entry.status == PRUNED_CUT)
        assert {True} in classes.values()
        assert all(len(cut) == 1 for cut in classes.values())


def test_island_scenarios_are_evaluated_and_match_brute_force(lab_configs):
    """The island pair's seven failures, which an influence-graph class
    once pruned to the base verdict, are simulated (the two node
    failures as their interface's flap), and every lab verdict is brute
    force's."""
    session = Session.from_texts(lab_configs, cache=False)
    result = sweep_session(session, k=1, prop=CHAIN_PROP)
    island = {
        o.scenario_id: o for o in result.outcomes if "island" in o.scenario_id
    }
    assert len(island) == 7
    for outcome in island.values():
        simulated = island.get(outcome.representative, outcome)
        assert simulated.status == "evaluated", outcome
    brute = brute_force_verdicts(lab_configs, CHAIN_PROP, 1, ALL_KINDS, None)
    assert {o.scenario_id: o.verdict.canonical() for o in result.outcomes} == {
        sid: verdict.canonical() for sid, verdict in brute.items()
    }
