"""Every destination-address label of the forwarding graph from one
fold per device (`destination_labels`): edge for edge against the
`and_`/`diff` construction it replaced (`apply_built_reference`), the
conservation invariant that holds of either, the guard that the build
no longer calls `apply`, and the static route out of a dead interface
that used to leave a dead end in the graph."""

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
from repro.hdr.fields import HEADER_FIELDS, HeaderLayout
from repro.hdr.headerspace import HeaderSpace, PacketEncoder
from repro.hdr.ip import Ip, Prefix
from repro.hdr.packet import Packet
from repro.provenance import record as prov
from repro.reachability import graph as graph_module
from repro.reachability.graph import fwd_node
from repro.reachability.queries import NetworkAnalyzer
from repro.routing.engine import compute_dataplane
from repro.routing.topology import InterfaceId, Layer3Edge, Layer3Topology
from repro.synth.networks import NETWORKS, network_by_name

from .apply_built_reference import destination_edges


def _uncompressed_graph(dataplane, fibs, encoder):
    """The forwarding graph as built, every device's pipeline whole."""
    return NetworkAnalyzer(dataplane, encoder, fibs, compress=False).graph


#: dst_ip no longer first, and its neighbours changed (as in
#: `test_fib_classes.py`).
_PERMUTED = tuple(reversed(HEADER_FIELDS))


def _encoders():
    return PacketEncoder(), PacketEncoder(HeaderLayout(field_order=_PERMUTED))


def _assert_reference_edges(dataplane, fibs, graph):
    """The graph's destination-labelled edges are the reference's: tail,
    head, ``describe()`` and — on the graph's own hash-consed engine, so
    equal ids are equal canonical forms — label. Returns how many."""
    compared = 0
    for hostname, edges in graph.device_edges.items():
        built = [
            (edge.tail, edge.head, edge.fn.describe(), edge.fn.label)
            for edge in edges
            if edge.tail[0] in ("fwd", "egress")
        ]
        expected = [
            (tail, head, f"constraint({note})", label)
            for tail, head, note, label in destination_edges(
                dataplane.snapshot.device(hostname), fibs[hostname],
                dataplane.topology, graph.encoder,
            )
        ]
        assert built == expected, hostname
        compared += len(built)
    return compared


def _assert_conserved(graph, hostnames):
    """Nothing vanishes, nothing appears: every node of a modelled
    device that is not a sink leads somewhere, the lookup sends every
    packet somewhere, and what it sends out of an interface is what
    leaves the interface's egress."""
    engine = graph.encoder.engine
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
        graph = _uncompressed_graph(dataplane, fibs, encoder)
        assert _assert_reference_edges(dataplane, fibs, graph) > 3 * len(fibs)
        _assert_conserved(graph, set(fibs))


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
        lambda: graphs.append(_uncompressed_graph(dataplane, fibs, PacketEncoder()))
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
_routes = st.dictionaries(
    st.builds(
        Prefix, _ips.map(lambda ip: ip.value),
        st.sampled_from([0, 8, 16, 23, 24, 25, 29, 30, 31, 32]),
    ),
    st.lists(_actions, min_size=1, max_size=3, unique=True),
    max_size=10,
)


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
    graph = _uncompressed_graph(dataplane, fibs, encoder)
    compared = _assert_reference_edges(dataplane, fibs, graph)
    _assert_conserved(graph, {_R})
    return graph, compared


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

    graph = _uncompressed_graph(session.dataplane, session.fibs, PacketEncoder())
    _assert_conserved(graph, set(session.fibs))
    _assert_reference_edges(session.dataplane, session.fibs, graph)
