"""A delta whose edit touches only the management plane keeps its base's analyzer.

The take rule (``core.session._build_analyzer``): every FIB *is* the
base's object, every device's links are equal and no edited device's
lint projection (:func:`repro.delta.fingerprint.lint_fingerprint`)
moved. Then the delta's analyzer is the base's own — graph, BDD engine,
``fates()`` and op caches — and otherwise a build on a fork of its
engine. Here: which fields the projection reads, the rule against a
scratch session on every registry network, and a chain of inert edits
that leaves the shared engine flat.
"""

import dataclasses

import pytest

from repro.config.loader import detect_syntax, load_snapshot_from_texts
from repro.config.model import (
    Acl,
    AclLine,
    Action,
    AsPathList,
    AsPathListLine,
    BgpProcess,
    CommunityList,
    DeviceRole,
    Interface,
    NatKind,
    NatRule,
    OspfProcess,
    PrefixList,
    PrefixListLine,
    RouteMap,
    StaticRoute,
    Zone,
    ZonePolicy,
    as_path_regex,
)
from repro.core.session import Session
from repro.delta.edits import irrelevant_edit, relevant_edit, shutdown_edit
from repro.delta.fingerprint import lint_fingerprint
from repro.hdr.ip import Ip, Prefix
from repro.questions import registry
from repro.synth.networks import NETWORKS, network_by_name

# -- the lint projection, field by field --------------------------------------

#: Fields the projection leaves out: the management plane, the line
#: count and the lint suppressions. It keeps every annotation: findings
#: carry source locations.
INERT_DEVICE_FIELDS = {
    "ntp_servers", "dns_servers", "snmp_communities", "config_lines", "lint_suppressions",
}

#: Per field, a value differing from the one the test device has.
DEVICE_MUTANTS = {
    "hostname": "r9",
    "vendor": "juniperish",
    "role": DeviceRole.FIREWALL,
    "interfaces": {},
    "acls": {"A": Acl("A", [AclLine(Action.DENY)])},
    "prefix_lists": {"P": PrefixList("P", [PrefixListLine(Action.PERMIT, Prefix("10.0.0.0/8"))])},
    "community_lists": {"C": CommunityList("C", ["65000:1"])},
    "as_path_lists": {
        "AP": AsPathList("AP", [AsPathListLine(Action.PERMIT, as_path_regex("^65000$"))])
    },
    "route_maps": {"RM": RouteMap("RM")},
    "static_routes": [StaticRoute(Prefix("203.0.113.0/24"), next_hop_interface="Null0")],
    "ospf": OspfProcess(),
    "bgp": BgpProcess(65000),
    "zones": {"inside": Zone("inside", ["Ethernet0"])},
    "zone_policies": {("a", "b"): ZonePolicy("a", "b", "A")},
    "ntp_servers": [Ip("203.0.113.250")],
    "dns_servers": [Ip("203.0.113.53")],
    "snmp_communities": ["public"],
    "config_lines": 999,
    "lint_suppressions": [("*", "r1", 3)],
}
NAT = NatRule(NatKind.SOURCE, None, Prefix("198.51.100.0/24"))
INTERFACE_MUTANTS = {
    "name": "Ethernet9",
    "address": Ip("10.0.12.9"),
    "prefix_length": 30,
    "enabled": False,
    "description": "uplink",
    "bandwidth": 10,
    "mtu": 9000,
    "ospf_enabled": False,
    "ospf_area": 7,
    "ospf_cost": 77,
    "ospf_passive": True,
    "ospf_hello_interval": 1,
    "ospf_dead_interval": 4,
    "incoming_acl": "A",
    "outgoing_acl": "A",
    "src_nat_rules": [NAT],
    "dst_nat_rules": [NAT],
    "zone": "inside",
    "source_file": "elsewhere.cfg",
    "source_line": 99,
}
DEVICE_TEXT = """hostname r1
interface Ethernet0
 ip address 10.0.12.1 255.255.255.0
 ip ospf area 0
router ospf 1
 router-id 1.1.1.1
"""


def _device():
    return load_snapshot_from_texts({"r1": DEVICE_TEXT}).device("r1")


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Interface)])
def test_every_interface_field_moves_the_projection(name):
    device = _device()
    before = lint_fingerprint(device)
    iface = device.interfaces["Ethernet0"]
    assert getattr(iface, name) != INTERFACE_MUTANTS[name]
    setattr(iface, name, INTERFACE_MUTANTS[name])
    assert lint_fingerprint(device) != before


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(_device())])
def test_every_device_field_but_the_management_plane_moves_the_projection(name):
    device = _device()
    before = lint_fingerprint(device)
    assert getattr(device, name) != DEVICE_MUTANTS[name]
    setattr(device, name, DEVICE_MUTANTS[name])
    assert (lint_fingerprint(device) != before) == (name not in INERT_DEVICE_FIELDS)


# -- the take rule against scratch, on every registry network ----------------

#: The edit kinds that move no lint projection. A description or a
#: comment line moves it (findings carry descriptions and lines), so the
#: analyzer is rebuilt on a fork for those too.
INERT = ("ntp", "snmp")
KINDS = INERT + (
    "description", "comment", "static", "acl-applied", "acl-unapplied", "shutdown", "nat-zone", "removed", "added",
)


def _edits(base, configs):
    """kind -> changed configs; ``nat-zone`` strips the zones off NET8's
    firewall, every other edit touches the last file."""
    target = sorted(configs)[-1]
    text = configs[target]
    hostname = base.snapshot.sources[target]
    iface = base.dataplane.topology.node_edges(hostname)[0].tail.interface
    if detect_syntax(text) == "juniperish":
        acl = (
            "set firewall filter TAKE term t1 from protocol tcp\n"
            "set firewall filter TAKE term t1 from destination-port 81\n"
            "set firewall filter TAKE term t1 then discard\n"
            "set firewall filter TAKE term t2 then accept\n"
        )
        applied = f"set interfaces {iface} unit 0 family inet filter input TAKE\n"
        management = "set system name-server 203.0.113.53\n"
        description = f"set interfaces {iface} description moved\n"
        comment = "# moved down one line\n"
    else:
        acl = "ip access-list extended TAKE\n deny tcp any any eq 81\n permit ip any any\n!\n"
        applied = f"interface {iface}\n ip access-group TAKE in\n!\n"
        management = "snmp-server community public RO\n"
        description = f"interface {iface}\n description moved\n!\n"
        comment = "! moved down one line\n"
    edits = {
        "ntp": {target: irrelevant_edit(text)},
        "snmp": {target: text + management},
        "description": {target: text + description},
        "comment": {target: comment + text},
        "static": {target: relevant_edit(text)},
        "acl-applied": {target: text + acl + applied},
        "acl-unapplied": {target: text + acl},
        "shutdown": {target: shutdown_edit(text, iface)},
        "removed": {target: None},
        "added": {"zz-added": "hostname zz-added\ninterface Ethernet0\n ip address 10.250.250.1 255.255.255.0\n"},
    }
    if "fw0" in configs:
        edits["nat-zone"] = {"fw0": "".join(
            line for line in configs["fw0"].splitlines(True)
            if "zone" not in line and "service-policy" not in line
        )}
    return edits


def _headerspaces(session):
    """The three tcp/80 header spaces ``service-mix`` asks of a network:
    to the first three host-facing subnets."""
    sources = sorted(session.analyzer.default_sources(), key=lambda n: tuple(map(str, n)))
    prefixes = [
        session.snapshot.device(node[1]).interfaces[node[2]].prefix for node in sources[:3]
    ]
    return [
        {"headerspace": {"dst": [str(prefix)], "protocols": ["tcp"], "dst_ports": [80]}}
        for prefix in prefixes
    ]


def _ask(session, params):
    declared = registry.QUESTIONS["reachability"]
    return declared.run(session, registry.bind(declared, params, session.snapshot), None)


def _canonical_sets(engine, sets):
    return {key: engine.canonical(packets) for key, packets in sets.items()}


def _answers(session):
    """Every answer the take must not change, engine-independent; the
    registry question as ``service-mix`` asks it."""
    engine = session.encoder.engine
    sink = min(node for node in session.analyzer.graph.sink_nodes() if node[0] == "sink")
    return {
        "reachability": _canonical_sets(engine, session.reachability().by_disposition),
        "question": _ask(session, _headerspaces(session)[0]),
        "destination": _canonical_sets(
            engine, session.analyzer.destination_reachability(sink[1], sink[2])
        ),
        "multipath": [
            (v.source, engine.canonical(v.packet_set), v.example,
             v.success_dispositions, v.failure_dispositions)
            for v in session.multipath_consistency()
        ],
    }


@pytest.fixture(scope="module")
def warm(request):
    """A network's configs and a base with every answer asked, so that a
    taken analyzer answers from warm caches."""
    configs = network_by_name(request.param).generate(1)
    base = Session.from_texts(configs)
    _answers(base)
    return configs, base


@pytest.mark.parametrize("warm, kind", [
    (spec.name, kind) for spec in NETWORKS for kind in KINDS
    if kind != "nat-zone" or spec.name == "NET8"
], indirect=["warm"])
def test_the_analyzer_is_taken_exactly_for_inert_edits_and_answers_as_scratch(warm, kind):
    configs, base = warm
    changed = _edits(base, configs)[kind]
    variant = base.delta(changed)
    texts = {f: t for f, t in {**configs, **changed}.items() if t is not None}
    scratch = Session.from_texts(texts)
    assert _answers(variant) == _answers(scratch)
    info = variant.delta_info
    if kind in INERT:
        assert variant.analyzer is base.analyzer
        assert info.stages["analyzer"] == "reused"
    else:
        assert variant.analyzer is not base.analyzer
        assert variant.encoder.engine is not base.encoder.engine
        assert info.stages["analyzer"].startswith("recomputed (")


# -- a chain of inert edits on one engine -------------------------------------


def test_fifty_chained_inert_deltas_share_one_flat_engine():
    configs = network_by_name("NET3").generate(1)
    session = Session.from_texts(configs)
    asked = _headerspaces(session)
    target = sorted(configs)[0]
    text = configs[target]
    ntp = "set system ntp server" if detect_syntax(text) == "juniperish" else "ntp server"
    answers, stats = [], []
    for index in range(1, 51):
        text += f"{ntp} 198.51.100.{index}\n"
        session = session.delta({target: text})
        answers.append([_ask(session, params) for params in asked])
        assert session.delta_info.stages["analyzer"] == "reused", index
        stats.append(session.encoder.engine.stats())
    assert stats[-1] == stats[0]
    scratch = Session.from_texts({**configs, target: text})
    expected = [_ask(scratch, params) for params in asked]
    assert all(round_ == expected for round_ in answers)
