"""The forwarding classes read off one pass over the FIB trie
(`Fib.lpm_classes`, unioned per action by the reference
`fib_action_spaces`) against the per-prefix construction they replaced,
against `Fib.lookup`, and the graph shape that follows from them.
`test_destination_labels.py` takes it from there to the graph's edges."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.engine import FALSE, TRUE
from repro.config.loader import load_snapshot_from_texts
from repro.dataplane.fib import (
    NO_ROUTE_KEY,
    Fib,
    FibActionType,
    FibEntry,
    compute_fibs,
)
from repro.hdr import fields as f
from repro.hdr.fields import HEADER_FIELDS, HeaderLayout
from repro.hdr.headerspace import PacketEncoder
from repro.hdr.ip import Ip, Prefix
from repro.reachability.queries import NetworkAnalyzer
from repro.routing.engine import compute_dataplane
from repro.synth.networks import NETWORKS, network_by_name

from .apply_built_reference import fib_action_spaces, own_ip_space
from .per_prefix_reference import per_prefix_action_spaces


def _uncompressed_graph(dataplane, fibs, encoder):
    """The forwarding graph as built, every device's pipeline whole."""
    return NetworkAnalyzer(dataplane, encoder, fibs, compress=False).graph


#: dst_ip no longer first, and its neighbours changed: the trie pass may
#: only rely on dst_ip's own levels growing with bit depth.
_PERMUTED = tuple(reversed(HEADER_FIELDS))


def _dataplane_and_fibs(name):
    snapshot = load_snapshot_from_texts(network_by_name(name).generate(1))
    dataplane = compute_dataplane(snapshot)
    return dataplane, compute_fibs(dataplane)


def _assert_same_spaces(dataplane, fibs, encoder):
    """Both constructions in one hash-consed engine: equal node ids are
    equal canonical forms."""
    compared = 0
    for hostname, fib in fibs.items():
        own = own_ip_space(dataplane.snapshot.device(hostname), encoder)
        new = fib_action_spaces(fib, own, encoder)
        old = per_prefix_action_spaces(fib, own, encoder)
        assert set(new) == set(old), hostname
        for key in old:
            assert new[key] == old[key], (hostname, key)
        compared += len(old)
    assert compared > len(fibs)


@pytest.mark.parametrize("name", [spec.name for spec in NETWORKS])
def test_trie_pass_equals_per_prefix_construction(name):
    dataplane, fibs = _dataplane_and_fibs(name)
    _assert_same_spaces(dataplane, fibs, PacketEncoder())


def test_trie_pass_under_a_permuted_field_order():
    dataplane, fibs = _dataplane_and_fibs("NET5")
    encoder = PacketEncoder(HeaderLayout(field_order=_PERMUTED))
    assert encoder.layout.var(f.DST_IP, 0) > encoder.layout.var(f.SRC_IP, 31)
    _assert_same_spaces(dataplane, fibs, encoder)


@pytest.mark.parametrize("name", ["NET1", "NET5", "NET10"])
def test_one_fib_edge_per_device_and_interface(name):
    dataplane, fibs = _dataplane_and_fibs(name)
    graph = _uncompressed_graph(dataplane, fibs, PacketEncoder())
    per_pair = Counter(
        (edge.tail, edge.head) for edge in graph.edges if edge.tail[0] == "fwd"
    )
    assert per_pair and set(per_pair.values()) == {1}
    forwarding = [head for _tail, head in per_pair if head[0] == "out"]
    assert forwarding
    # Fewer edges out of the lookup than FIB prefixes: the point of it.
    assert len(per_pair) < sum(len(fib.entries()) for fib in fibs.values())


# -- random FIBs ---------------------------------------------------------

_ACTIONS = [
    (FibActionType.FORWARD, "e0", None),
    (FibActionType.FORWARD, "e0", Ip("10.0.0.2")),
    (FibActionType.FORWARD, "e0", Ip("10.0.0.3")),
    (FibActionType.FORWARD, "e1", Ip("10.0.1.2")),
    (FibActionType.FORWARD, "e2", None),
    (FibActionType.DROP_NULL, None, None),
    NO_ROUTE_KEY,
]


@st.composite
def _prefixes(draw):
    # A narrow address pool, so prefixes nest and collide often.
    value = draw(st.integers(0, 255)) << 24 | draw(st.integers(0, 3)) << 6
    return Prefix(value, draw(st.sampled_from([0, 1, 7, 8, 9, 24, 26, 31, 32])))


_routes = st.dictionaries(
    _prefixes(),
    st.lists(st.sampled_from(_ACTIONS), min_size=1, max_size=3, unique=True),
    max_size=14,
)
_addresses = st.lists(st.integers(0, 0xFFFFFFFF), max_size=8)


def _is_member(encoder, space, address):
    levels = encoder.layout.vars_of(f.DST_IP)
    return encoder.engine.eval(
        space, {level: (address >> (31 - bit)) & 1 for bit, level in enumerate(levels)}
    )


@given(routes=_routes, own=_addresses, probes=_addresses, permuted=st.booleans())
@settings(max_examples=120, deadline=None)
def test_random_fibs_partition_and_agree_with_lookup(routes, own, probes, permuted):
    encoder = PacketEncoder(
        HeaderLayout(field_order=_PERMUTED) if permuted else None
    )
    engine = encoder.engine
    fib = Fib("r")
    for prefix, actions in routes.items():
        for action, out_interface, arp_ip in actions:
            fib.add(FibEntry(prefix, action, out_interface, arp_ip))
    # Own addresses inside routed prefixes are the interesting ones.
    own = own + [prefix.network.value for prefix in list(routes)[:3]]
    own_set = engine.or_all(encoder.ip_eq(f.DST_IP, Ip(a)) for a in own)

    levels = encoder.layout.vars_of(f.DST_IP)
    classes = fib.lpm_classes(
        lambda depth, lo, hi: engine.mk(levels[depth], lo, hi), TRUE, FALSE
    )
    sets = list(classes.values())
    assert engine.or_all(sets) == TRUE
    for i, one in enumerate(sets):
        assert one != FALSE
        for other in sets[i + 1:]:
            assert engine.and_(one, other) == FALSE

    spaces = fib_action_spaces(fib, own_set, encoder)
    assert spaces == per_prefix_action_spaces(fib, own_set, encoder)
    assert engine.or_all([own_set, *spaces.values()]) == TRUE
    for space in spaces.values():
        assert space != FALSE and engine.and_(space, own_set) == FALSE

    edges = [p.network.value for p in routes]
    edges += [p.network.value | (0xFFFFFFFF >> p.length) for p in routes]
    for address in probes + own + edges:
        if address in own:
            expected = set()
        else:
            expected = {e.action_key for e in fib.lookup(address)} or {NO_ROUTE_KEY}
        holders = {k for k, s in spaces.items() if _is_member(encoder, s, address)}
        assert holders == expected
