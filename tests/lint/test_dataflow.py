"""Seeded networks for the five dataflow rules: each network plants one
defect, and the test asserts the rule fires on the right device, blames
the right file:line, and carries the right witnesses."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.loader import load_snapshot_from_texts
from repro.hdr.ip import Prefix
from repro.lint import LintConfig, Severity, lint_snapshot
from repro.lint.dataflow import analyze, build_graph, build_universe, validate_containment
from repro.lint.dataflow.graph import originated_prefixes
from repro.routing.routespace import RouteSpaceUniverse
from repro.synth.networks import NETWORKS, network_by_name


def line_of(text, marker):
    """1-based line number of the first config line containing marker."""
    for number, line in enumerate(text.splitlines(), start=1):
        if marker in line:
            return number
    raise AssertionError(f"marker {marker!r} not found")


def run_rules(configs, rules):
    snapshot = load_snapshot_from_texts(configs)
    report = lint_snapshot(snapshot, LintConfig.from_dict({"rules": rules}))
    return snapshot, report


LEAK = {
    "r1": """
hostname r1
interface Ethernet0
 ip address 10.0.12.1 255.255.255.0
 no shutdown
ip route 10.9.0.0 255.255.0.0 Null0
router bgp 65001
 redistribute static
 neighbor 10.0.12.2 remote-as 65002
""",
    "r2": """
hostname r2
interface Ethernet0
 ip address 10.0.12.2 255.255.255.0
 no shutdown
router bgp 65002
 neighbor 10.0.12.1 remote-as 65001
""",
}


class TestRouteLeak:
    def test_redistributed_private_route_leaks(self):
        snapshot, report = run_rules(LEAK, ["route-leak"])
        leaks = [f for f in report.findings if f.hostname == "r1"]
        assert leaks, "r1 redistributes 10.9/16 into an eBGP session"
        finding = leaks[0]
        assert finding.severity is Severity.ERROR
        assert finding.category == "dataflow"
        # Blame: no export policy, so the neighbor statement itself.
        assert finding.location.file == "r1"
        assert finding.location.line == line_of(
            LEAK["r1"], "neighbor 10.0.12.2"
        )
        assert "eBGP peer r2" in finding.message
        assert "10.9.0.0/16" in finding.message, "witness route expected"
        # Related: where the route entered BGP, and who receives it.
        related_lines = {(r.location.file, r.location.line) for r in finding.related}
        assert ("r1", line_of(LEAK["r1"], "redistribute static")) in related_lines
        assert ("r2", line_of(LEAK["r2"], "neighbor 10.0.12.1")) in related_lines

    def test_no_leak_without_redistribution(self):
        configs = {
            "r1": LEAK["r1"].replace(" redistribute static\n", ""),
            "r2": LEAK["r2"],
        }
        _, report = run_rules(configs, ["route-leak"])
        assert not report.findings

    def test_no_export_community_advertised(self):
        configs = {
            "r1": """
hostname r1
interface Ethernet0
 ip address 10.0.12.1 255.255.255.0
 no shutdown
ip prefix-list NETS seq 5 permit 10.1.0.0/24
route-map TO_PEER permit 10
 match ip address prefix-list NETS
 set community no-export
router bgp 65001
 network 10.1.0.0 mask 255.255.255.0
 neighbor 10.0.12.2 remote-as 65002
 neighbor 10.0.12.2 route-map TO_PEER out
""",
            "r2": LEAK["r2"],
        }
        _, report = run_rules(configs, ["route-leak"])
        tagged = [
            f for f in report.findings if "no-export community" in f.message
        ]
        assert tagged and tagged[0].hostname == "r1"
        # With an export map defined, the map is the blamed location.
        assert tagged[0].location.line == line_of(
            configs["r1"], "route-map TO_PEER permit 10"
        )
        assert "10.1.0.0/24" in tagged[0].message


LOOP = {
    "r1": """
hostname r1
interface Ethernet0
 ip address 10.0.12.1 255.255.255.0
 no shutdown
router ospf 1
 redistribute bgp 65001
router bgp 65001
 network 10.1.0.0 mask 255.255.255.0
 redistribute ospf 1
 neighbor 10.0.12.2 remote-as 65001
""",
    "r2": """
hostname r2
interface Ethernet0
 ip address 10.0.12.2 255.255.255.0
 no shutdown
router bgp 65001
 neighbor 10.0.12.1 remote-as 65001
""",
}


class TestRedistributionLoop:
    def test_mutual_redistribution_detected(self):
        snapshot, report = run_rules(LOOP, ["redistribution-loop"])
        assert report.findings
        assert {f.hostname for f in report.findings} == {"r1"}
        lines = {f.location.line for f in report.findings}
        # Both closing statements of the 2-edge cycle are blamed.
        assert line_of(LOOP["r1"], "redistribute bgp 65001") in lines
        assert line_of(LOOP["r1"], "redistribute ospf 1") in lines
        finding = report.findings[0]
        assert finding.severity is Severity.ERROR
        assert "10.1.0.0/24" in finding.message, "BGP network circulates"
        assert finding.related, "cycle edges are cited as witnesses"
        assert any("cycle continues" in r.message for r in finding.related)

    def test_one_way_redistribution_is_clean(self):
        configs = {
            "r1": LOOP["r1"].replace(" redistribute ospf 1\n", ""),
            "r2": LOOP["r2"],
        }
        _, report = run_rules(configs, ["redistribution-loop"])
        assert not report.findings


FILTER_GAP = {
    "r1": """
hostname r1
interface Ethernet0
 ip address 10.0.12.1 255.255.255.0
 no shutdown
ip prefix-list NETS seq 5 permit 10.1.0.0/24
route-map TO_PEER permit 10
 match ip address prefix-list NETS
router bgp 65001
 network 10.1.0.0 mask 255.255.255.0
 neighbor 10.0.12.2 remote-as 65002
 neighbor 10.0.12.2 route-map TO_PEER out
""",
    "r2": """
hostname r2
interface Ethernet0
 ip address 10.0.12.2 255.255.255.0
 no shutdown
router bgp 65002
 network 10.2.0.0 mask 255.255.255.0
 neighbor 10.0.12.1 remote-as 65001
""",
}


class TestFilterGap:
    def test_unfiltered_direction_flagged(self):
        # r1 -> r2 is filtered by TO_PEER; r2 -> r1 has no policy at
        # all, so only r2 is flagged.
        _, report = run_rules(FILTER_GAP, ["filter-gap"])
        assert {f.hostname for f in report.findings} == {"r2"}
        finding = report.findings[0]
        assert finding.severity is Severity.WARNING
        assert "peers: r1" in finding.message
        assert finding.location.line == line_of(
            FILTER_GAP["r2"], "neighbor 10.0.12.1"
        )

    def test_both_directions_unfiltered(self):
        configs = {
            "r1": FILTER_GAP["r1"].replace(
                " neighbor 10.0.12.2 route-map TO_PEER out\n", ""
            ),
            "r2": FILTER_GAP["r2"],
        }
        _, report = run_rules(configs, ["filter-gap"])
        assert {f.hostname for f in report.findings} == {"r1", "r2"}


COMMUNITY = {
    "r1": """
hostname r1
interface Ethernet0
 ip address 10.0.12.1 255.255.255.0
 no shutdown
route-map TO_PEER permit 10
 set community 65000:99
router bgp 65001
 network 10.1.0.0 mask 255.255.255.0
 neighbor 10.0.12.2 remote-as 65002
 neighbor 10.0.12.2 route-map TO_PEER out
 neighbor 10.0.12.2 send-community
""",
    "r2": """
hostname r2
interface Ethernet0
 ip address 10.0.12.2 255.255.255.0
 no shutdown
ip community-list standard CL permit 65000:1
route-map FROM_PEER permit 10
 match community CL
router bgp 65002
 neighbor 10.0.12.1 remote-as 65001
 neighbor 10.0.12.1 route-map FROM_PEER in
""",
}


class TestCommunityDataflow:
    def test_set_never_matched_and_match_never_carried(self):
        _, report = run_rules(COMMUNITY, ["community-dataflow"])
        dead_set = [f for f in report.findings if f.hostname == "r1"]
        assert dead_set, "65000:99 is set but nothing downstream matches it"
        assert "sets community 65000:99" in dead_set[0].message
        assert dead_set[0].location.line == line_of(
            COMMUNITY["r1"], "route-map TO_PEER permit 10"
        )
        dead_match = [f for f in report.findings if f.hostname == "r2"]
        assert dead_match, "CL wants 65000:1 but no arriving route has it"
        assert "community-list CL" in dead_match[0].message
        assert "never fire" in dead_match[0].message

    def test_consumed_community_is_clean(self):
        # Align the sender's community with the receiver's list: both
        # halves of the plumbing now work, no findings anywhere.
        configs = {
            "r1": COMMUNITY["r1"].replace("65000:99", "65000:1"),
            "r2": COMMUNITY["r2"],
        }
        _, report = run_rules(configs, ["community-dataflow"])
        assert not report.findings

    def test_each_matched_list_is_tested_against_its_own_members(self):
        # r1 tags its routes with SEEN's member, so SEEN is carried; the
        # clause also matches NEVER, whose member no route carries.
        configs = {
            "r1": COMMUNITY["r1"].replace("65000:99", "65000:1"),
            "r2": COMMUNITY["r2"].replace(
                "ip community-list standard CL permit 65000:1\n",
                "ip community-list standard NEVER permit 65000:2\n"
                "ip community-list standard SEEN permit 65000:1\n",
            ).replace(
                " match community CL\n",
                " match community NEVER\n match community SEEN\n",
            ),
        }
        _, report = run_rules(configs, ["community-dataflow"])
        assert [f.hostname for f in report.findings] == ["r2"]
        (finding,) = report.findings
        assert "community-list NEVER" in finding.message
        assert finding.location.line == line_of(
            configs["r2"], "route-map FROM_PEER permit 10"
        )


UNREACHABLE = {
    "r1": """
hostname r1
interface Ethernet0
 ip address 10.0.12.1 255.255.255.0
 no shutdown
router bgp 65001
 network 10.1.0.0 mask 255.255.255.0
 neighbor 10.0.12.2 remote-as 65002
""",
    "r2": """
hostname r2
interface Ethernet0
 ip address 10.0.12.2 255.255.255.0
 no shutdown
ip prefix-list TEN seq 5 permit 10.0.0.0/8 le 32
ip prefix-list RFC1918 seq 5 permit 192.168.0.0/16 le 32
route-map FROM_PEER permit 10
 match ip address prefix-list TEN
route-map FROM_PEER permit 20
 match ip address prefix-list RFC1918
router bgp 65002
 neighbor 10.0.12.1 remote-as 65001
 neighbor 10.0.12.1 route-map FROM_PEER in
""",
}


class TestUnreachablePolicyPath:
    def test_dataflow_dead_clause_flagged(self):
        # Clause 20 matches 192.168/16, but r1 only ever sends 10/8
        # space: satisfiable in principle, dead in this network.
        _, report = run_rules(UNREACHABLE, ["unreachable-policy-path"])
        assert {f.hostname for f in report.findings} == {"r2"}
        finding = report.findings[0]
        assert "clause 20" in finding.message
        assert finding.location.line == line_of(
            UNREACHABLE["r2"], "route-map FROM_PEER permit 20"
        )
        assert "dead in this network" in finding.message

    def test_reachable_clauses_are_clean(self):
        configs = {
            "r1": UNREACHABLE["r1"].replace(
                " network 10.1.0.0 mask 255.255.255.0",
                " network 10.1.0.0 mask 255.255.255.0\n"
                " network 192.168.5.0 mask 255.255.255.0",
            ),
            "r2": UNREACHABLE["r2"],
        }
        _, report = run_rules(configs, ["unreachable-policy-path"])
        assert not report.findings


class TestSoundness:
    """The differential from the acceptance criteria, on the seeded
    networks: every concretely propagated prefix must be contained in
    the abstract fixpoint."""

    @pytest.mark.parametrize(
        "configs", [LEAK, LOOP, FILTER_GAP, COMMUNITY, UNREACHABLE],
        ids=["leak", "loop", "filter-gap", "community", "unreachable"],
    )
    def test_containment(self, configs):
        snapshot = load_snapshot_from_texts(configs)
        analysis = analyze(snapshot, build_universe(snapshot))
        assert validate_containment(snapshot, analysis) == []

    def test_report_carries_dataflow_stats(self):
        snapshot = load_snapshot_from_texts(LEAK)
        report = lint_snapshot(
            snapshot, LintConfig.from_dict({"rules": ["route-leak"]})
        )
        stats = report.dataflow
        assert stats is not None
        assert stats["nodes"] > 0 and stats["edges"] > 0
        assert stats["iterations"] >= stats["nodes"]
        assert set(stats) == {
            "fixpoint_seconds", "iterations", "nodes", "edges",
        }
        assert report.to_json()["dataflow"] == stats


class TestSeedFold:
    """Each node's seed is one top-down split over its sorted prefixes;
    by canonicity it must be the very node the union of atoms conjoined
    with the community-free cube is, in the same universe."""

    @staticmethod
    def atoms(universe, prefixes):
        engine = universe.engine
        return engine.and_(
            engine.or_all([universe.prefix_atom(p) for p in prefixes]),
            universe.without_communities(),
        )

    @pytest.mark.parametrize("network", [spec.name for spec in NETWORKS])
    def test_every_registry_seed_equals_the_atom_union(self, network):
        snapshot = load_snapshot_from_texts(network_by_name(network).generate(1))
        universe = build_universe(snapshot)
        graph = build_graph(snapshot, universe)
        checked = 0
        for hostname in snapshot.hostnames():
            domains = originated_prefixes(snapshot.device(hostname))
            for domain, prefixes in domains.items():
                assert graph.seeds[(hostname, domain)].bdd == self.atoms(
                    universe, prefixes
                )
                checked += bool(prefixes)
        assert checked > 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**32 - 1),
                st.sampled_from([0, 1, 8, 16, 23, 24, 30, 31, 32]),
            ),
            max_size=24,
        ),
        st.integers(0, 3),
    )
    def test_random_prefix_lists(self, drawn, duplicates):
        universe = RouteSpaceUniverse(
            communities=("65000:1", "65000:2"), flags=("redistributed",)
        )
        prefixes = [Prefix(address, length) for address, length in drawn]
        prefixes += prefixes[:duplicates]  # repeated entries
        assert universe.originated(prefixes) == self.atoms(universe, prefixes)
