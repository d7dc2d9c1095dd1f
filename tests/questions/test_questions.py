"""Tests for the Lesson 5 question layer and §4.4.1 specialized queries."""

import pytest

from repro.config.loader import load_snapshot_from_texts
from repro.config.model import Action
from repro.hdr import fields as f
from repro.hdr.headerspace import HeaderSpace
from repro.hdr.ip import Ip, Prefix
from repro.hdr.packet import Packet
from repro.questions.configuration import (
    duplicate_ips_question,
    management_plane_consistency,
    undefined_references_question,
    unused_structures_question,
)
from repro.questions.filters import search_filters, unreachable_filter_lines
from repro.questions.filters import test_filter as run_test_filter
from repro.questions.specialized import service_reachable, service_unreachable
from repro.reachability.queries import NetworkAnalyzer
from repro.routing.engine import compute_dataplane

MESSY = {
    "r1": """
hostname r1
interface e0
 ip address 10.0.0.1 255.255.255.0
 ip access-group MISSING in
interface e1
 ip address 10.0.0.1 255.255.255.0
router bgp 65001
 neighbor 10.0.0.2 remote-as 65002
 neighbor 10.0.0.2 route-map ALSO_MISSING out
ip access-list extended DEAD_ACL
 permit ip any any
ip prefix-list DEAD_PL seq 5 permit 10.0.0.0/8
ntp server 192.0.2.1
""",
    "r2": """
hostname r2
interface e0
 ip address 10.0.0.2 255.255.255.0
router bgp 65002
 neighbor 10.0.0.1 remote-as 65001
ip access-list extended SHADOWED
 permit ip 10.0.0.0 0.255.255.255 any
 deny tcp 10.5.0.0 0.0.255.255 any eq 80
 permit ip any any
ntp server 192.0.2.2
""",
}


@pytest.fixture(scope="module")
def snapshot():
    return load_snapshot_from_texts(MESSY)


class TestConfigurationQuestions:
    def test_undefined_references(self, snapshot):
        answer = undefined_references_question(snapshot)
        names = {ref.name for ref in answer.rows}
        assert names == {"MISSING", "ALSO_MISSING"}
        assert set(answer.by_node()) == {"r1"}

    def test_unused_structures(self, snapshot):
        answer = unused_structures_question(snapshot)
        names = {row.name for row in answer.rows}
        assert "DEAD_ACL" in names
        assert "DEAD_PL" in names

    def test_duplicate_ips(self, snapshot):
        answer = duplicate_ips_question(snapshot)
        assert len(answer.rows) == 1
        assert answer.rows[0].ip == Ip("10.0.0.1")
        assert {o.node for o in answer.rows[0].owners} == {"r1"}

    def test_ntp_consistency_majority(self, snapshot):
        answer = management_plane_consistency(snapshot)
        # Two different single-server configs: one becomes the majority
        # reference, the other is flagged.
        assert len(answer.rows) == 1

    def test_ntp_consistency_explicit(self, snapshot):
        answer = management_plane_consistency(
            snapshot, expected_ntp=["192.0.2.1"]
        )
        deviants = {row.hostname for row in answer.rows if row.property_name == "ntp"}
        assert deviants == {"r2"}


class TestFilterQuestions:
    def test_test_filter(self, snapshot):
        row = run_test_filter(
            snapshot, "r2", "SHADOWED",
            Packet(src_ip=Ip("10.5.1.1"), dst_port=80),
        )
        assert row.action is Action.PERMIT  # first line matches first
        assert "10.0.0.0" in row.matched_line

    def test_test_filter_unknown_raises(self, snapshot):
        with pytest.raises(KeyError):
            run_test_filter(snapshot, "r2", "NOPE", Packet())

    def test_search_filters_finds_permits(self, snapshot):
        rows = search_filters(
            snapshot, HeaderSpace.build(src="10.5.0.0/16"), Action.PERMIT
        )
        assert any(row.filter_name == "SHADOWED" for row in rows)
        for row in rows:
            assert row.example is not None

    def test_search_filters_deny_direction(self, snapshot):
        rows = search_filters(
            snapshot,
            HeaderSpace.build(src="10.5.0.0/16", protocols=[f.PROTO_TCP]),
            Action.DENY,
        )
        # DEAD_ACL permits everything; SHADOWED permits this space too
        # (the deny line is shadowed); only MISSING... not defined. So no
        # ACL can deny the space except via implicit deny = none here.
        assert all(row.filter_name not in ("DEAD_ACL",) for row in rows)

    def test_unreachable_lines(self, snapshot):
        rows = unreachable_filter_lines(snapshot)
        shadowed = [r for r in rows if r.filter_name == "SHADOWED"]
        assert len(shadowed) == 1
        assert shadowed[0].line_index == 1
        assert shadowed[0].blocking_lines == [0]

    def test_unreachable_lines_blame_the_lint_witness_lines(self, snapshot):
        from tests.lint.test_acl_reachability import question_blame, rule_blame

        blame = rule_blame(snapshot)
        assert [key for key in blame if key[1] == "SHADOWED"]
        assert question_blame(snapshot) == blame


SERVICE_NET = {
    "gw": """
hostname gw
interface clients
 ip address 10.1.0.1 255.255.255.0
interface servers
 ip address 10.2.0.1 255.255.255.0
 ip access-group PROTECT out
ip access-list extended PROTECT
 permit tcp any any eq 443
 deny ip any any
""",
}


class TestSpecializedQueries:
    @pytest.fixture(scope="class")
    def analyzer(self):
        dataplane = compute_dataplane(load_snapshot_from_texts(SERVICE_NET))
        return NetworkAnalyzer(dataplane)

    def test_service_reachable_https(self, analyzer):
        answer = service_reachable(
            analyzer, "10.2.0.50", port=443,
            client_locations=[("gw", "clients")],
        )
        assert answer.reachable
        assert answer.failing_sources == []

    def test_service_unreachable_on_blocked_port(self, analyzer):
        answer = service_reachable(
            analyzer, "10.2.0.50", port=80,
            client_locations=[("gw", "clients")],
        )
        assert not answer.reachable
        source = answer.failing_sources[0]
        negative, positive, contrast = answer.examples[source]
        assert negative is not None
        assert negative.dst_port == 80

    def test_isolation_query(self, analyzer):
        answer = service_unreachable(
            analyzer, "10.2.0.50", port=22,
            from_locations=[("gw", "clients")],
        )
        assert answer.isolated

    def test_isolation_violated(self, analyzer):
        answer = service_unreachable(
            analyzer, "10.2.0.50", port=443,
            from_locations=[("gw", "clients")],
        )
        assert not answer.isolated
        assert answer.leaking_sources
        example = answer.examples[answer.leaking_sources[0]]
        assert example.dst_port == 443

    def test_scoped_defaults_suppress_spoofing(self, analyzer):
        """§4.4.2: with default scoping, sources are limited to the
        interface's own subnet, so spoofed-source 'violations' vanish."""
        scoped = analyzer.default_sources()
        for source, space in scoped.items():
            iface = source[2]
            device = analyzer.dataplane.snapshot.device(source[1])
            prefix = device.interfaces[iface].prefix
            engine = analyzer.encoder.engine
            own_src = analyzer.encoder.ip_in_prefix(f.SRC_IP, prefix)
            assert engine.implies(space, own_src)
