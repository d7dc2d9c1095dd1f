"""Every destination-address label of the forwarding graph from one
fold per device (`destination_labels`): edge for edge against the
`and_`/`diff` construction it replaced (`apply_built_reference`), the
conservation invariant that holds of either, the guard that the build
no longer calls `apply`, and the static route out of a dead interface
that used to leave a dead end in the graph. A delta's build grafts the
labels of a device whose markers did not move onto its base's
(`grafted_labels`): node for node the full fold, on every registry
network, on a graft of a graft and on random FIB edits."""

import re
import types
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session
from repro.bdd.engine import TRUE, BddEngine
from repro.config.loader import load_snapshot_from_texts
from repro.config.model import Device, Interface, Snapshot
from repro.dataplane.fib import (
    NO_ROUTE_KEY,
    Fib,
    FibActionType,
    FibEntry,
    compute_fibs,
)
from repro.delta.edits import igp_edit, irrelevant_edit, relevant_edit, shutdown_edit
from repro.hdr.fields import HEADER_FIELDS, HeaderLayout
from repro.hdr.headerspace import HeaderSpace, PacketEncoder
from repro.hdr.ip import Ip, Prefix
from repro.hdr.packet import Packet
from repro.provenance import record as prov
from repro.reachability import graph as graph_module
from repro.reachability.graph import destination_labels, fwd_node
from repro.reachability.queries import NetworkAnalyzer
from repro.routing.engine import compute_dataplane
from repro.routing.topology import InterfaceId, Layer3Edge, Layer3Topology
from repro.synth.networks import NETWORKS, network_by_name

from .apply_built_reference import destination_edges


def _uncompressed(dataplane, fibs, encoder):
    """An analyzer whose forwarding graph has every device's pipeline
    whole."""
    return NetworkAnalyzer(dataplane, encoder, fibs, compress=False)


#: dst_ip no longer first, and its neighbours changed (as in
#: `test_fib_classes.py`).
_PERMUTED = tuple(reversed(HEADER_FIELDS))


def _encoders():
    return PacketEncoder(), PacketEncoder(HeaderLayout(field_order=_PERMUTED))


def _assert_reference_edges(dataplane, fibs, analyzer):
    """The analyzer's destination-labelled edges are the reference's:
    tail, head, ``describe()`` and — on the analyzer's own hash-consed
    engine, so equal ids are equal canonical forms — label. Returns how
    many."""
    compared = 0
    for hostname, segment in analyzer.graph.segments.items():
        built = [
            (edge.tail, edge.head, edge.fn.describe(), edge.fn.label)
            for edge in segment.edges
            if edge.tail[0] in ("fwd", "egress")
        ]
        expected = [
            (tail, head, f"constraint({note})", label)
            for tail, head, note, label in destination_edges(
                dataplane.snapshot.device(hostname), fibs[hostname],
                dataplane.topology, analyzer.encoder,
            )
        ]
        assert built == expected, hostname
        compared += len(built)
    return compared


def _assert_conserved(analyzer, hostnames):
    """Nothing vanishes, nothing appears: every node of a modelled
    device that is not a sink leads somewhere, the lookup sends every
    packet somewhere, and what it sends out of an interface is what
    leaves the interface's egress."""
    graph, engine = analyzer.graph, analyzer.encoder.engine
    for node in graph.nodes:
        if node[0] not in ("sink", "disp") and node[1] in hostnames:
            assert graph.out_edges(node), f"dead end at {node}"
    for hostname in hostnames:
        lookup = graph.out_edges(fwd_node(hostname))
        assert engine.or_all(edge.fn.label for edge in lookup) == TRUE, hostname
        for edge in lookup:
            if edge.head[0] == "out":
                wire = graph.out_edges(("egress", hostname, edge.head[2]))
                assert (
                    engine.or_all(out.fn.label for out in wire) == edge.fn.label
                ), edge.head


# -- the registry --------------------------------------------------------


@pytest.mark.parametrize("name", [spec.name for spec in NETWORKS])
def test_registry_graphs_equal_the_reference_and_conserve(name):
    snapshot = load_snapshot_from_texts(network_by_name(name).generate(1))
    dataplane = compute_dataplane(snapshot)
    fibs = compute_fibs(dataplane)
    for encoder in _encoders():
        analyzer = _uncompressed(dataplane, fibs, encoder)
        assert _assert_reference_edges(dataplane, fibs, analyzer) > 3 * len(fibs)
        _assert_conserved(analyzer, set(fibs))


def _forbidden_calls(build):
    """How often ``build()`` intersects, negates and subtracts."""
    with mock.patch.object(BddEngine, "and_") as and_, mock.patch.object(
        BddEngine, "not_"
    ) as not_, mock.patch.object(BddEngine, "diff") as diff:
        build()
    return and_.call_count, not_.call_count, diff.call_count


def test_a_graph_without_filters_is_built_with_no_apply():
    """No ACL, NAT or zone on NET9: its whole graph is destination
    labels, and those are `mk` nodes unioned — never intersected,
    negated or subtracted."""
    snapshot = load_snapshot_from_texts(network_by_name("NET9").generate(1))
    dataplane = compute_dataplane(snapshot)
    fibs = compute_fibs(dataplane)
    graphs = []
    assert _forbidden_calls(
        lambda: graphs.append(_uncompressed(dataplane, fibs, PacketEncoder()).graph)
    ) == (0, 0, 0)
    assert graphs[0].num_edges() > 1000


def test_net3_destination_labels_call_no_apply():
    """NET3, the fat-tree the claim is measured on, has egress ACLs on
    six devices; everything else of its build is apply-free."""
    snapshot = load_snapshot_from_texts(network_by_name("NET3").generate(1))
    dataplane = compute_dataplane(snapshot)
    fibs = compute_fibs(dataplane)
    encoder = PacketEncoder()
    for hostname, fib in fibs.items():
        assert _forbidden_calls(
            lambda: graph_module.destination_labels(
                snapshot.device(hostname), fib, dataplane.topology, encoder
            )
        ) == (0, 0, 0)


# -- what the registry lacks ----------------------------------------------

_R = "r"
#: Addresses close enough together that routes, subnets, own and
#: neighbour addresses nest and collide.
_POOL = [Ip(f"10.0.0.{host}") for host in range(8)] + [
    Ip("10.0.1.1"), Ip("10.0.1.2"), Ip("10.1.0.1"), Ip("192.168.0.1"),
]
_ips = st.sampled_from(_POOL)
_names = st.sampled_from(["e0", "e1", "e2"])
_interfaces = st.fixed_dictionaries(
    {
        name: st.one_of(
            st.none(), st.tuples(_ips, st.sampled_from([24, 29, 30, 31, 32]))
        )
        for name in ("e0", "e1", "e2")
    }
)
#: (tail interface, head node, head address): two heads may share one.
_links = st.lists(
    st.tuples(_names, st.sampled_from(["n0", "n1", "n2"]), _ips),
    max_size=5, unique_by=lambda link: link[:2],
)
_actions = st.one_of(
    st.tuples(st.just(FibActionType.FORWARD), _names, st.one_of(st.none(), _ips)),
    st.just((FibActionType.DROP_NULL, None, None)),
    st.just(NO_ROUTE_KEY),
)
_prefixes = st.builds(
    Prefix, _ips.map(lambda ip: ip.value),
    st.sampled_from([0, 8, 16, 23, 24, 25, 29, 30, 31, 32]),
)
_action_lists = st.lists(_actions, min_size=1, max_size=3, unique=True)
_routes = st.dictionaries(_prefixes, _action_lists, max_size=10)


def _one_device(interfaces, links, routes, connected=True):
    """A data plane of one device ``r``: its interfaces (``None`` =
    unnumbered; ``e3`` is shut down), the topology edges out of them and
    its FIB (``connected`` adds the interfaces' own subnets to it)."""
    device = Device(_R)
    for name, addressed in interfaces.items():
        address, length = addressed or (None, None)
        device.interfaces[name] = Interface(name, address, length)
    device.interfaces["e3"] = Interface("e3", Ip("10.0.0.3"), 24, enabled=False)
    topology = Layer3Topology(
        [
            Layer3Edge(
                InterfaceId(_R, name), InterfaceId(head, "x0"), Ip("10.0.0.0"), head_ip
            )
            for name, head, head_ip in links
        ]
    )
    fib = Fib(_R)
    for prefix, actions in routes.items():
        for action, out_interface, arp_ip in actions:
            fib.add(FibEntry(prefix, action, out_interface, arp_ip))
    if connected:
        for name, iface in device.interfaces.items():
            if iface.enabled and iface.prefix is not None:
                fib.add(FibEntry(iface.prefix, FibActionType.FORWARD, name))
    dataplane = types.SimpleNamespace(
        snapshot=Snapshot(devices={_R: device}), topology=topology
    )
    return dataplane, {_R: fib}


def _check(dataplane, fibs, encoder):
    analyzer = _uncompressed(dataplane, fibs, encoder)
    compared = _assert_reference_edges(dataplane, fibs, analyzer)
    _assert_conserved(analyzer, {_R})
    return analyzer.graph, compared


@given(
    interfaces=_interfaces, links=_links, routes=_routes,
    connected=st.booleans(), permuted=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_random_devices_equal_the_reference_and_conserve(
    interfaces, links, routes, connected, permuted
):
    _check(
        *_one_device(interfaces, links, routes, connected), _encoders()[permuted]
    )


#: One FIB edit: add actions to a prefix, remove it, or replace its
#: actions.
_fib_edits = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "replace"]), _prefixes, _action_lists),
    min_size=1, max_size=4,
)


@given(
    interfaces=_interfaces, links=_links, routes=_routes, edits=_fib_edits,
    connected=st.booleans(), permuted=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_random_fib_edits_graft_to_the_fold(
    interfaces, links, routes, edits, connected, permuted
):
    """A device's FIB edited at random under unchanged markers: the
    build on the base grafts, and the grafted labels are the fold's,
    node for node, in the new build's engine."""
    edited = dict(routes)
    for op, prefix, actions in edits:
        if op == "remove":
            edited.pop(prefix, None)
        elif op == "replace":
            edited[prefix] = actions
        else:
            edited[prefix] = list(dict.fromkeys(edited.get(prefix, []) + actions))
    dataplane, fibs = _one_device(interfaces, links, routes, connected)
    _same, new_fibs = _one_device(interfaces, links, edited, connected)
    base = NetworkAnalyzer(dataplane, _encoders()[permuted], fibs, compress=False)
    new = NetworkAnalyzer(dataplane, None, new_fibs, compress=False, base=base)
    assert new.grafted_segments == [_R]
    assert new.graph.segments[_R].labels == destination_labels(
        dataplane.snapshot.device(_R), new_fibs[_R], dataplane.topology, new.encoder
    )
    _assert_reference_edges(dataplane, new_fibs, new)
    _assert_conserved(new, {_R})


_FORWARD = FibActionType.FORWARD
_E0 = {"e0": (Ip("10.0.0.1"), 24), "e1": (Ip("10.0.1.1"), 30), "e2": None}


@pytest.mark.parametrize(
    "links, routes, labels",
    [
        pytest.param(
            [],
            {Prefix("10.0.0.0/30"): [(_FORWARD, "e1", Ip("10.0.1.2"))]},
            {"destined to device", "no-route", "fib -> e0", "fib -> e1",
             "delivered to subnet", "exits network"},
            id="own /32 inside a longer FIB prefix",
        ),
        pytest.param(
            [("e0", "n0", Ip("10.0.0.2"))],
            {Prefix("10.0.0.2/32"): [(_FORWARD, "e1", Ip("10.0.1.2"))]},
            {"destined to device", "no-route", "fib -> e0", "fib -> e1",
             "delivered to subnet", "exits network"},
            id="a neighbour address that is itself a /32 route",
        ),
        pytest.param(
            [("e0", "n0", Ip("10.0.0.2"))],
            {
                Prefix("10.0.0.0/29"): [(_FORWARD, "e0", None)],
                Prefix("10.0.0.4/30"): [(FibActionType.DROP_NULL, None, None)],
            },
            {"destined to device", "no-route", "null-routed", "fib -> e0",
             "fib -> e1", "to n0", "delivered to subnet"},
            id="a subnet containing longer routes",
        ),
        pytest.param(
            [("e0", "n0", Ip("10.0.0.2"))],
            {
                Prefix("10.1.0.0/16"): [
                    (_FORWARD, "e0", Ip("10.0.0.2")), (_FORWARD, "e0", Ip("10.0.0.5")),
                ],
            },
            {"destined to device", "no-route", "fib -> e0", "fib -> e1",
             "to n0", "delivered to subnet", "exits network"},
            id="ECMP with one modelled and one unmodelled next hop",
        ),
        pytest.param(
            [("e0", "n0", Ip("10.0.0.2")), ("e0", "n1", Ip("10.0.0.2"))],
            {},
            {"destined to device", "no-route", "fib -> e0", "fib -> e1",
             "to n0", "to n1", "delivered to subnet"},
            id="two topology edges to one head address",
        ),
        pytest.param(
            [],
            {Prefix("203.0.113.0/24"): [(_FORWARD, "e2", None)]},
            {"destined to device", "no-route", "fib -> e0", "fib -> e1",
             "fib -> e2", "delivered to subnet", "exits network"},
            id="a route out of an unnumbered interface",
        ),
    ],
)
def test_named_cases(links, routes, labels):
    for encoder in _encoders():
        graph, compared = _check(*_one_device(_E0, links, routes), encoder)
        notes = {
            edge.fn.note for edge in graph.edges if edge.tail[0] in ("fwd", "egress")
        }
        assert notes == labels and compared >= len(labels)


# -- a static route out of a dead interface -------------------------------

_STATIC = "ip route 203.0.113.0 255.255.255.0 Ethernet7\n"


@pytest.mark.parametrize(
    "interface, disposition",
    [
        ("interface Ethernet7\n shutdown\n!\n", "no-route"),
        ("interface Ethernet7\n!\n", "exits-network"),  # up, unnumbered
        ("", "no-route"),  # no such interface
    ],
)
def test_static_route_out_of_a_dead_interface(interface, disposition):
    """Installed whatever the interface's state, it used to leave a
    dead-end ``out`` node: the symbolic engine lost the packets (no
    disposition at all) while the tracer said EXITS_NETWORK."""
    configs = dict(network_by_name("NET1").generate(2))
    configs["net1-core0"] += interface + _STATIC
    with prov.recording() as recorder:
        session = Session.from_texts(configs)
        session.dataplane
    events = recorder.events_for("net1-core0", "203.0.113.0/24")
    if disposition == "no-route":
        assert [(e.protocol, e.action) for e in events] == [("static", "suppressed")]
        assert "Ethernet7" in events[0].detail
    else:
        assert ("static", "installed") in [(e.protocol, e.action) for e in events]

    answer = session.reachability(
        HeaderSpace.build(dst="203.0.113.0/24"), sources=[("net1-core0", "Ethernet0")]
    )
    symbolic = {d.value for d, space in answer.by_disposition.items() if space}
    traces = session.traceroute(
        Packet(dst_ip=Ip("203.0.113.9"), src_ip=Ip("10.16.0.2")),
        "net1-core0", "Ethernet0",
    )
    assert symbolic == {trace.disposition.value for trace in traces} == {disposition}

    analyzer = _uncompressed(session.dataplane, session.fibs, PacketEncoder())
    _assert_conserved(analyzer, set(session.fibs))
    _assert_reference_edges(session.dataplane, session.fibs, analyzer)


# -- grafted labels on the registry ----------------------------------------


def _assert_built_labels_fold(session):
    """Every segment the session's build made has the labels a full fold
    of its FIB gives in that build's engine; returns the build."""
    analyzer = session.analyzer
    built = set(session.snapshot.devices) - set(analyzer.reused_pipelines)
    assert set(analyzer.grafted_segments) <= built
    for hostname in sorted(built):
        assert analyzer.graph.segments[hostname].labels == destination_labels(
            session.snapshot.device(hostname), session.fibs[hostname],
            session.dataplane.topology, analyzer.encoder,
        ), hostname
    return analyzer


def _readdress(text: str, address: Ip) -> str:
    """``address`` renumbered wherever the text spells it."""
    fresh = f"10.254.{address.value >> 8 & 0xFF}.{address.value & 0xFF}"
    return re.sub(rf"(?<![\d.]){re.escape(str(address))}(?![\d])", fresh, text)


def _static_delete(configs):
    """The first file with a static route, that route's line deleted."""
    for filename in sorted(configs):
        lines = configs[filename].splitlines(keepends=True)
        for index, line in enumerate(lines):
            if line.startswith(("ip route ", "set routing-options static route ")):
                return filename, "".join(lines[:index] + lines[index + 1:])
    return None


def _graft_edits(base, configs):
    """kind -> changed configs, the edited host, whether it grafts."""
    target = sorted(configs)[0]
    text = configs[target]
    hostname = base.snapshot.sources[target]
    device = base.snapshot.device(hostname)
    iface = min(
        (i for i in device.interfaces.values() if i.enabled and i.address is not None),
        key=lambda i: (not i.ospf_enabled, i.name),
    )
    edits = {
        "static": ({target: relevant_edit(text)}, hostname, True),
        "ntp": ({target: irrelevant_edit(text)}, hostname, True),
        "ospf-cost": (
            {target: igp_edit(text, iface.name, iface.ospf_area or 0)}, hostname, True
        ),
        "shutdown": ({target: shutdown_edit(text, iface.name)}, hostname, False),
        "readdress": ({target: _readdress(text, iface.address)}, hostname, False),
    }
    # None: the network has no static route, so the delete undoes the
    # "static" edit on that edit's delta.
    deleted = _static_delete(configs)
    if deleted is None:
        edits["static-delete"] = (None, hostname, True)
    else:
        filename, edited = deleted
        edits["static-delete"] = (
            {filename: edited}, base.snapshot.sources[filename], True
        )
    return edits


@pytest.mark.parametrize("name", [spec.name for spec in NETWORKS])
def test_registry_edits_graft_or_fold_to_the_fold(name):
    """Six edits on every registry network: each segment the delta
    builds has the full fold's labels. The edited device grafts unless
    its markers moved (interface shut down or renumbered); an NTP line
    builds no segment at all."""
    configs = network_by_name(name).generate(1)
    base = Session.from_texts(configs)
    base.analyzer
    sessions = {}
    for kind, (changed, hostname, grafts) in _graft_edits(base, configs).items():
        if changed is None:
            target = sorted(configs)[0]
            new = sessions["static"].delta({target: configs[target]})
        else:
            new = base.delta(changed)
        sessions[kind] = new
        if kind == "readdress":
            assert new.snapshot.device(hostname) != base.snapshot.device(hostname)
        if kind == "ntp":
            # Nothing the graph reads moved: the base's analyzer, whole.
            assert new.analyzer is base.analyzer
            assert new.delta_info.stages["analyzer"] == "reused"
            assert "graft" not in new.delta_info.reused
            continue
        analyzer = _assert_built_labels_fold(new)
        assert (hostname in analyzer.grafted_segments) == grafts, kind
        assert new.delta_info.reused["graft"] == len(analyzer.grafted_segments)


def test_a_graft_grafted_again_is_the_fold():
    """A delta of a delta grafts onto labels that were grafted: two
    static routes on one device, an NTP line on another, a route
    deleted again."""
    configs = network_by_name("NET10").generate(1)
    first, second = sorted(configs)[:2]
    base = Session.from_texts(configs)
    base.analyzer
    once = base.delta({first: relevant_edit(configs[first])})
    _assert_built_labels_fold(once)
    twice_text = configs[first] + "ip route 198.51.100.0 255.255.255.0 Null0\n"
    twice = once.delta({first: relevant_edit(twice_text)})
    third = twice.delta({second: irrelevant_edit(configs[second])})
    undone = third.delta({first: configs[first]})
    for session in (twice, third, undone):
        analyzer = _assert_built_labels_fold(session)
        assert analyzer.grafted_segments
    hostname = base.snapshot.sources[first]
    assert hostname in twice.analyzer.grafted_segments
    assert hostname in undone.analyzer.grafted_segments
    # Back where it started: the base's labels, up to node ids.
    canonical = undone.encoder.engine.canonical
    assert {
        label: canonical(node)
        for label, node in undone.analyzer.graph.segments[hostname].labels.items()
    } == {
        label: base.encoder.engine.canonical(node)
        for label, node in base.analyzer.graph.segments[hostname].labels.items()
    }
