"""Questions about sources answer in source coordinates.

Until PR 19 ``service_reachable``, ``service_unreachable``,
``compare_reachability`` and ``multipath_consistency`` compared the
forward engine's at-sink (post-NAT) sets with the at-source scopes they
were asked about, so behind a source NAT they flagged clients that get
through, missed violations, and offered example packets carrying a pool
address nobody can inject. Every example here is traced from the source
it is reported for and must be in the scope that was asked about, meet
a fate the answer claims and none it excludes.
"""

import pytest

from repro import Session
from repro.hdr import fields as f
from repro.questions.differential import compare_reachability
from repro.reachability.graph import Disposition
from repro.reachability.queries import (
    FAILURE_DISPOSITIONS,
    SUCCESS_DISPOSITIONS,
    NetworkAnalyzer,
)
from repro.synth.networks import network_by_name

#: One client subnet, two equal-cost ways to the servers: through ``b``,
#: which translates client sources to a public pool and delivers, and
#: through ``c``, whose ACL drops the clients. The delivered header
#: carries a pool address and the dropped one a client address, so the
#: two at-sink sets never intersect although every client packet meets
#: both fates.
NAT_LAB = {
    "a": """
hostname a
interface lan
 ip address 10.1.0.1 255.255.255.0
interface up1
 ip address 10.0.1.1 255.255.255.252
interface up2
 ip address 10.0.2.1 255.255.255.252
ip route 10.9.0.128 255.255.255.128 10.0.1.2
ip route 10.9.0.128 255.255.255.128 10.0.2.2
""",
    "b": """
hostname b
interface down
 ip address 10.0.1.2 255.255.255.252
 ip nat inside
interface servers
 ip address 10.9.0.1 255.255.255.0
 ip nat outside
ip access-list extended NAT_MATCH
 permit ip 10.1.0.0 0.0.0.255 any
ip nat pool PUBLIC 198.51.100.1 198.51.100.254 prefix-length 24
ip nat inside source list NAT_MATCH pool PUBLIC
ip route 10.1.0.0 255.255.255.0 10.0.1.1
""",
    "c": """
hostname c
interface down
 ip address 10.0.2.2 255.255.255.252
 ip access-group NO_CLIENTS in
interface spare
 ip address 10.9.1.1 255.255.255.0
ip access-list extended NO_CLIENTS
 deny ip 10.1.0.0 0.0.0.255 any
 permit ip any any
ip route 10.1.0.0 255.255.255.0 10.0.2.1
""",
}
LAB_SERVER = "10.9.0.200"
CLIENTS = ("src", "a", "lan")


def _fates(session, packet, source):
    return {
        trace.disposition
        for trace in session.traceroute(packet, source[1], source[2])
    }


def _in_scope(session, packet, scope: int) -> bool:
    engine = session.encoder.engine
    return engine.and_(session.encoder.packet_bdd(packet), scope) != 0


@pytest.fixture(scope="module")
def net8():
    return Session.from_texts(network_by_name("NET8").generate(1))


@pytest.fixture(scope="module")
def lab():
    return Session.from_texts(NAT_LAB)


def _check_service_reachable(session, answer, scopes):
    assert answer.reachable == (not answer.failing_sources)
    assert set(answer.examples) == set(answer.failing_sources)
    for source, (negative, positive, _contrast) in answer.examples.items():
        assert _in_scope(session, negative, scopes[source])
        assert not _fates(session, negative, source) & set(SUCCESS_DISPOSITIONS)
        if positive is not None:
            assert _in_scope(session, positive, scopes[source])
            assert _fates(session, positive, source) & set(SUCCESS_DISPOSITIONS)


def _check_service_unreachable(session, answer):
    assert answer.isolated == (not answer.leaking_sources)
    assert set(answer.examples) == set(answer.leaking_sources)
    for source, packet in answer.examples.items():
        assert _fates(session, packet, source) & set(SUCCESS_DISPOSITIONS)


def _check_multipath(session, violations, scopes):
    for violation in violations:
        assert _in_scope(session, violation.example, scopes[violation.source])
        met = _fates(session, violation.example, violation.source)
        assert met & set(violation.success_dispositions)
        assert met & set(violation.failure_dispositions)
        assert met <= set(
            violation.success_dispositions + violation.failure_dispositions
        )


def _service_scope(session, service_ip, port):
    encoder = session.encoder
    return encoder.engine.and_all(
        [
            encoder.ip_eq(f.DST_IP, service_ip),
            encoder.field_eq(f.DST_PORT, port),
            encoder.tcp(),
        ]
    )


class TestNet8:
    def test_internet_service_fails_only_where_there_is_no_route(self, net8):
        """inside0 holds the default route to the firewall; inside1 and
        inside2 never learn one. The parent also listed inside0's users,
        whose traffic leaves translated."""
        answer = net8.service_reachable("8.8.8.8", 443)
        assert answer.failing_sources == [
            ("src", "inside1", "Loopback0"),
            ("src", "inside1", "Vlan10"),
            ("src", "inside2", "Loopback0"),
            ("src", "inside2", "Vlan10"),
        ]
        for source in answer.failing_sources:
            negative = answer.examples[source][0]
            assert _fates(net8, negative, source) == {Disposition.NO_ROUTE}
        scopes = net8.analyzer.default_sources(_service_scope(net8, "8.8.8.8", 443))
        _check_service_reachable(net8, answer, scopes)

    @pytest.mark.parametrize("port", [443, 25])
    def test_every_example_traces_to_what_the_answer_says(self, net8, port):
        scopes = net8.analyzer.default_sources(_service_scope(net8, "8.8.8.8", port))
        _check_service_reachable(
            net8, net8.service_reachable("8.8.8.8", port), scopes
        )
        _check_service_unreachable(net8, net8.service_unreachable("8.8.8.8", port))
        analyzer = net8.analyzer
        for sources in (analyzer.all_sources(), analyzer.default_sources()):
            _check_multipath(
                net8, analyzer.multipath_consistency(sources), sources
            )

    def test_lost_flows_are_the_users_own(self, net8):
        """Take the firewall's default route away: what inside0's users
        lose is reported with their own addresses, not the pool's."""
        configs = network_by_name("NET8").generate(1)
        default_route = "ip route 0.0.0.0 0.0.0.0 203.0.113.1\n"
        assert default_route in configs["fw0"]
        configs["fw0"] = configs["fw0"].replace(default_route, "")
        broken = Session.from_texts(configs)
        after = NetworkAnalyzer(broken.dataplane, encoder=net8.encoder)
        users = net8.snapshot.device("inside0").interfaces["Vlan10"].prefix
        scope = net8.encoder.ip_in_prefix(f.SRC_IP, users)
        answer = compare_reachability(
            net8.analyzer, after, [("inside0", "Vlan10")], scope
        )
        source = ("src", "inside0", "Vlan10")
        assert set(answer.lost) == {source} and not answer.gained
        packet = answer.lost_examples[source]
        assert users.contains_ip(packet.src_ip)
        assert _fates(net8, packet, source) & set(SUCCESS_DISPOSITIONS)
        assert not _fates(broken, packet, source) & set(SUCCESS_DISPOSITIONS)

        back = compare_reachability(
            after, net8.analyzer, [("inside0", "Vlan10")], scope
        )
        assert back.gained == answer.lost and not back.lost
        assert back.gained_examples[source] == packet


class TestNatLab:
    def test_violation_behind_the_nat_is_found(self, lab):
        """Scoped to plausible client addresses the forward
        intersection is empty — the parent reported no violation."""
        scopes = lab.analyzer.default_sources()
        violations = lab.analyzer.multipath_consistency(scopes)
        assert [v.source for v in violations] == [CLIENTS]
        violation = violations[0]
        assert violation.success_dispositions == [Disposition.DELIVERED]
        assert violation.failure_dispositions == [Disposition.DENIED_IN]
        assert _fates(lab, violation.example, CLIENTS) == {
            Disposition.DELIVERED, Disposition.DENIED_IN,
        }
        _check_multipath(lab, violations, scopes)
        _check_multipath(
            lab, lab.multipath_consistency(), lab.analyzer.all_sources()
        )

    def test_clients_reach_the_server_through_the_nat(self, lab):
        """Some path delivers every client packet; the parent listed
        the clients as failing and contrasted them with a pool-address
        packet."""
        answer = lab.service_reachable(LAB_SERVER, 443)
        assert CLIENTS not in answer.failing_sources
        scopes = lab.analyzer.default_sources(
            _service_scope(lab, LAB_SERVER, 443)
        )
        _check_service_reachable(lab, answer, scopes)
        only_clients = lab.service_reachable(
            LAB_SERVER, 443, client_locations=[("a", "lan")]
        )
        assert only_clients.reachable

    def test_isolation_examples_are_injectable(self, lab):
        answer = lab.service_unreachable(LAB_SERVER, 443)
        assert CLIENTS in answer.leaking_sources
        _check_service_unreachable(lab, answer)
        scoped = lab.service_unreachable(
            LAB_SERVER, 443, from_locations=[("c", "spare")]
        )
        assert scoped.isolated  # c has no route to the servers

    def test_losing_the_nat_path_is_lost_in_client_addresses(self, lab):
        configs = dict(NAT_LAB)
        configs["a"] = configs["a"].replace(
            "ip route 10.9.0.128 255.255.255.128 10.0.1.2\n", ""
        )
        broken = Session.from_texts(configs)
        after = NetworkAnalyzer(broken.dataplane, encoder=lab.encoder)
        clients = lab.snapshot.device("a").interfaces["lan"].prefix
        scope = lab.encoder.ip_in_prefix(f.SRC_IP, clients)
        answer = compare_reachability(lab.analyzer, after, [("a", "lan")], scope)
        assert set(answer.lost) == {CLIENTS} and not answer.gained
        packet = answer.lost_examples[CLIENTS]
        assert clients.contains_ip(packet.src_ip)
        assert Disposition.DELIVERED in _fates(lab, packet, CLIENTS)
        assert _fates(broken, packet, CLIENTS) <= set(FAILURE_DISPOSITIONS)
