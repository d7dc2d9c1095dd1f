"""Route-map clause reachability and vacuous-match rules."""

import pytest

from repro.config.loader import load_snapshot_from_texts
from repro.config.model import CommunityList, Device, PrefixList, Snapshot
from repro.hdr.ip import Prefix
from repro.lint import get_rule
from repro.routing.policy import PolicyRoute, apply_route_map

ROUTE_MAPS = {
    "rm": """
hostname rm
interface Loopback0
 ip address 10.0.0.1 255.255.255.255
ip prefix-list WIDE seq 5 permit 10.0.0.0/8 le 32
ip prefix-list NARROW seq 5 permit 10.1.0.0/16 le 24
ip prefix-list DENYONLY seq 5 deny 10.0.0.0/8 le 32
ip prefix-list EMPTYBAND seq 5 permit 10.0.0.0/24 ge 30 le 28
route-map RM permit 10
 match ip address prefix-list WIDE
route-map RM permit 20
 match ip address prefix-list NARROW
route-map RM permit 30
route-map INEXACT deny 10
 match as-path AP1
route-map INEXACT permit 20
 match ip address prefix-list WIDE
router bgp 65000
 neighbor 10.9.9.9 remote-as 65009
 neighbor 10.9.9.9 route-map RM out
 neighbor 10.9.9.9 route-map INEXACT in
""",
}


@pytest.fixture(scope="module")
def snapshot():
    return load_snapshot_from_texts(ROUTE_MAPS)


@pytest.fixture(scope="module")
def clause_findings(snapshot):
    return get_rule("route-map-clause-unreachable").run(snapshot)


def _clauses_flagged(findings, map_name):
    flagged = set()
    for finding in findings:
        if f"route-map {map_name} clause" in finding.message:
            flagged.add(int(finding.message.split("clause ")[1].split()[0]))
    return flagged


class TestClauseReachability:
    def test_shadowed_clause_flagged(self, clause_findings):
        # NARROW (10.1.0.0/16 le 24) is a subset of WIDE (10.0.0.0/8
        # le 32): clause 20 can never fire.
        assert _clauses_flagged(clause_findings, "RM") == {20}

    def test_witness_points_at_shadowing_clause(self, clause_findings, snapshot):
        finding = next(
            f for f in clause_findings if "route-map RM clause 20" in f.message
        )
        assert len(finding.related) == 1
        clause10 = snapshot.device("rm").route_maps["RM"].clauses[0]
        assert finding.related[0].location.line == clause10.source_line

    def test_inexact_clause_not_subtracted(self, clause_findings):
        # INEXACT clause 10 matches on as-path, which the route-space
        # encoder cannot represent; its over-approximate space must NOT
        # be subtracted, so clause 20 stays (correctly) unflagged.
        assert _clauses_flagged(clause_findings, "INEXACT") == set()

    def test_clause_location_resolves(self, clause_findings):
        for finding in clause_findings:
            assert finding.location.file
            assert finding.location.line > 0


class TestVacuousMatch:
    @pytest.fixture(scope="class")
    def findings(self, snapshot):
        return get_rule("vacuous-match").run(snapshot)

    def test_deny_only_prefix_list(self, findings):
        assert any(
            "DENYONLY" in f.message and "permits nothing" in f.message
            for f in findings
        )

    def test_empty_length_band_line(self, findings):
        # ge 30 with le 28 is an empty band: the line can never match.
        assert any(
            "EMPTYBAND" in f.message and "can never match" in f.message
            for f in findings
        )

    def test_healthy_lists_not_flagged(self, findings):
        assert not any("WIDE" in f.message for f in findings)
        assert not any("NARROW" in f.message for f in findings)

    def test_empty_structures_programmatic(self):
        device = Device(hostname="bare")
        device.prefix_lists["NOLINES"] = PrefixList(name="NOLINES")
        device.community_lists["NOCOMM"] = CommunityList(name="NOCOMM")
        snapshot = Snapshot(devices={"bare": device})
        findings = get_rule("vacuous-match").run(snapshot)
        messages = [f.message for f in findings]
        assert any("NOLINES" in m and "no lines" in m for m in messages)
        assert any("NOCOMM" in m and "no communities" in m for m in messages)


#: Each map's last clause can never fire, and each rests on a route that
#: cannot exist: a length past 32, or a prefix with host bits set.
IMPOSSIBLE = {
    "imp": """
hostname imp
interface Loopback0
 ip address 10.0.0.1 255.255.255.255
ip prefix-list HIGH seq 5 permit 10.0.0.0/8 ge 33 le 40
ip prefix-list ALL seq 5 permit 0.0.0.0/0 le 32
ip prefix-list SOME seq 5 permit 0.0.0.0/0 ge 1 le 32
ip prefix-list SOME seq 10 permit 0.0.0.0/0
route-map HIGHMAP permit 10
 match ip address prefix-list HIGH
route-map LE32 permit 10
 match ip address prefix-list ALL
route-map LE32 deny 20
route-map GE1 permit 10
 match ip address prefix-list SOME
route-map GE1 deny 20
route-map TAGS permit 10
 match tag 1
 match tag 2
route-map TAGS permit 20
 match tag 1
""",
}


class TestRoutesThatCannotExist:
    """Residual walks start from the routes that can exist (lengths
    0..32, host bits zero), not from every 6-bit length and address."""

    @pytest.fixture(scope="class")
    def snapshot(self):
        return load_snapshot_from_texts(IMPOSSIBLE)

    @pytest.fixture(scope="class")
    def clause_findings(self, snapshot):
        return get_rule("route-map-clause-unreachable").run(snapshot)

    def test_a_band_past_32_is_vacuous(self, snapshot, clause_findings):
        messages = [f.message for f in get_rule("vacuous-match").run(snapshot)]
        assert any("HIGH line 0 can never match" in m for m in messages)
        assert any("HIGH permits nothing" in m for m in messages)
        (finding,) = [f for f in clause_findings if "HIGHMAP" in f.message]
        assert "clause 10 matches no route" in finding.message

    def test_le_32_covers_every_route(self, clause_findings):
        assert _clauses_flagged(clause_findings, "LE32") == {20}

    def test_ge_1_and_the_default_cover_every_route(self, snapshot, clause_findings):
        assert _clauses_flagged(clause_findings, "GE1") == {20}
        finding = next(f for f in clause_findings if "GE1 clause 20" in f.message)
        clause10 = snapshot.device("imp").route_maps["GE1"].sorted_clauses()[0]
        assert [r.location.line for r in finding.related] == [clause10.source_line]
        device = snapshot.device("imp")
        for text in ("0.0.0.0/0", "10.0.0.0/8", "1.2.3.4/32"):
            result = apply_route_map(device, "GE1", PolicyRoute(Prefix(text)))
            assert result.matched_clause == 10

    def test_two_different_tags_match_no_route(self, clause_findings):
        # The concrete walk ANDs a clause's matches: tag 1 and tag 2 at
        # once never hold. One tag alone may.
        assert _clauses_flagged(clause_findings, "TAGS") == {10}
        (finding,) = [f for f in clause_findings if "TAGS" in f.message]
        assert "matches no route" in finding.message
