"""The BGP exchange against its old per-advertisement pipeline.

``engine._Exchange.advertise`` decides BGP's own rules before it builds
anything and skips the policy round trip on a side without a route-map;
:mod:`tests.routing.reference_exchange` is the parent commit's pipeline,
which built everything first. Over generated attribute bundles, session
kinds and route-maps drawn from every ``MatchKind`` and ``SetKind`` both
must install the same route or both reject — and where several rules
reject, the engine's reason must be one that holds. This is what carries
"rule before policy": a route-map action that could invalidate an early
rule (say a ``set as-path`` that *replaces* the path) has to fail here,
not silently change routing.
"""

from hypothesis import given, settings, strategies as st

from repro.config.model import (
    Action,
    AsPathList,
    AsPathListLine,
    BgpNeighbor,
    BgpProcess,
    CommunityList,
    Device,
    MatchKind,
    PrefixList,
    PrefixListLine,
    Protocol,
    RouteMap,
    RouteMapClause,
    RouteMapMatch,
    RouteMapSet,
    SetKind,
    as_path_regex,
)
from repro.hdr.ip import Ip, Prefix
from repro.routing.bgp import BgpSession
from repro.routing.engine import DataPlaneStats, _Exchange
from repro.routing.policy import PolicySemantics
from repro.routing.route import AD_EBGP, AD_IBGP, BgpAttributes, BgpRoute, Origin

from tests.routing.reference_exchange import (
    AS_PATH_LOOP,
    EXPORT_DENY,
    ORIGINATOR_LOOP,
    SPLIT_HORIZON,
    applicable_reasons,
    reference_exchange,
)

SENDER_IP, RECEIVER_IP, THIRD_IP = Ip("10.0.0.1"), Ip("10.0.0.2"), Ip("10.0.0.3")
SENDER_AS, OTHER_AS = 65001, 65002
AS_POOL = [SENDER_AS, OTHER_AS, 65003, 64512, 100]
COMMUNITY_POOL = ["65001:1", "65001:2", "65002:7", "no-export"]
PREFIXES = [Prefix("10.1.0.0/16"), Prefix("10.1.2.0/24"), Prefix("172.16.0.0/12")]

#: Values each match kind may name; every list also holds one that
#: resolves to nothing on the device.
MATCH_VALUES = {
    MatchKind.PREFIX_LIST: ["PL_TEN", "PL_MISSING"],
    MatchKind.COMMUNITY: ["CL_ONE", "CL_MISSING"],
    MatchKind.AS_PATH: ["AL_VIA_OTHER", "AL_EMPTY", "AL_MISSING"],
    MatchKind.TAG: ["0", "7"],
    MatchKind.METRIC: ["0", "50"],
    MatchKind.PROTOCOL: ["ospf", "static", "bgp"],
}
SET_VALUES = {
    SetKind.LOCAL_PREF: ["50", "250"],
    SetKind.METRIC: ["0", "50"],
    SetKind.COMMUNITY: ["65002:7 65001:1", "no-export"],
    SetKind.COMMUNITY_ADDITIVE: ["65001:2", "no-export 65001:1"],
    # Prepending the receiver's own AS is what an early loop check must
    # not miss.
    SetKind.AS_PATH_PREPEND: [str(OTHER_AS), f"{SENDER_AS} {SENDER_AS}", "64512"],
    SetKind.NEXT_HOP: ["192.0.2.9"],
    SetKind.TAG: ["7"],
    SetKind.WEIGHT: ["300"],
}


def _device(hostname: str, local_as: int, neighbor: BgpNeighbor, route_map) -> Device:
    device = Device(hostname=hostname)
    device.prefix_lists["PL_TEN"] = PrefixList(
        "PL_TEN", [PrefixListLine(Action.PERMIT, Prefix("10.0.0.0/8"), le=24)]
    )
    device.community_lists["CL_ONE"] = CommunityList("CL_ONE", ["65001:1", "no-export"])
    for name, regex in (("AL_VIA_OTHER", f"_{OTHER_AS}_"), ("AL_EMPTY", "^$")):
        line = AsPathListLine(Action.PERMIT, as_path_regex(regex))
        device.as_path_lists[name] = AsPathList(name, [line])
    if route_map is not None:
        device.route_maps[route_map.name] = route_map
    device.bgp = BgpProcess(local_as=local_as, neighbors={neighbor.peer_ip: neighbor})
    return device


matches = st.sampled_from(list(MatchKind)).flatmap(
    lambda kind: st.sampled_from(MATCH_VALUES[kind]).map(
        lambda value: RouteMapMatch(kind, value)
    )
)
sets = st.sampled_from(list(SetKind)).flatmap(
    lambda kind: st.sampled_from(SET_VALUES[kind]).map(
        lambda value: RouteMapSet(kind, value)
    )
)
clauses = st.tuples(
    st.sampled_from(list(Action)),
    st.lists(matches, max_size=2),
    st.lists(sets, max_size=3),
)


def _policies(name: str):
    """(applied route-map name, its definition or None): no policy, a
    defined route-map, or a name that is defined nowhere."""
    defined = st.lists(clauses, max_size=3).map(
        lambda drawn: (
            name,
            RouteMap(
                name,
                [
                    RouteMapClause(10 * (index + 1), action, clause_matches, clause_sets)
                    for index, (action, clause_matches, clause_sets) in enumerate(drawn)
                ],
            ),
        )
    )
    return st.one_of(st.just((None, None)), defined, st.just((name, None)))


attributes = st.builds(
    # The plain constructor: bundles as no engine path canonicalises them
    # (communities unsorted or repeated).
    BgpAttributes,
    as_path=st.lists(st.sampled_from(AS_POOL), max_size=4).map(tuple),
    local_pref=st.sampled_from([100, 200]),
    med=st.sampled_from([0, 50]),
    origin=st.sampled_from(list(Origin)),
    communities=st.lists(st.sampled_from(COMMUNITY_POOL), max_size=4).map(tuple),
    weight=st.sampled_from([0, 32768]),
    originator_id=st.sampled_from([None, RECEIVER_IP, THIRD_IP]),
    admin_distance=st.sampled_from([AD_EBGP, AD_IBGP]),
    from_ibgp=st.booleans(),
    source_protocol=st.sampled_from([None, Protocol.OSPF, Protocol.STATIC]),
    tag=st.sampled_from([0, 7]),
)
routes = st.builds(
    BgpRoute,
    prefix=st.sampled_from(PREFIXES),
    next_hop_ip=st.sampled_from([SENDER_IP, THIRD_IP]),
    attributes=attributes,
    received_from=st.sampled_from([None, RECEIVER_IP, THIRD_IP]),
)


@st.composite
def exchanges(draw):
    """(route, sender's session, sender device, receiver device, semantics)."""
    is_ibgp = draw(st.booleans())
    receiver_as = SENDER_AS if is_ibgp else OTHER_AS
    export_name, export_map = draw(_policies("RM_OUT"))
    import_name, import_map = draw(_policies("RM_IN"))
    to_receiver = BgpNeighbor(
        peer_ip=RECEIVER_IP,
        remote_as=receiver_as,
        export_policy=export_name,
        next_hop_self=draw(st.booleans()),
        send_community=draw(st.booleans()),
        route_reflector_client=draw(st.booleans()),
    )
    to_sender = BgpNeighbor(
        peer_ip=SENDER_IP, remote_as=SENDER_AS, import_policy=import_name
    )
    session = BgpSession(
        local_node="sender",
        remote_node="receiver",
        local_ip=SENDER_IP,
        remote_ip=RECEIVER_IP,
        local_as=SENDER_AS,
        remote_as=receiver_as,
        neighbor=to_receiver,
        is_ibgp=is_ibgp,
        established=True,
    )
    semantics = PolicySemantics(undefined_route_map_permits=draw(st.booleans()))
    return (
        draw(routes),
        session,
        _device("sender", SENDER_AS, to_receiver, export_map),
        _device("receiver", receiver_as, to_sender, import_map),
        semantics,
    )


def _advertise(route, session, sender, receiver, semantics):
    stats = DataPlaneStats()
    installed, reason, _result = _Exchange(
        session, sender, receiver, semantics, stats
    ).advertise(route)
    return installed, reason, stats


@settings(max_examples=600, deadline=None)
@given(exchanges())
def test_exchange_matches_reference(case):
    route, session, sender, receiver, semantics = case
    expected, expected_reason = reference_exchange(
        route, session, sender, receiver, semantics
    )
    installed, reason, stats = _advertise(*case)
    assert installed == expected
    if expected is None:
        assert reason in applicable_reasons(route, session, sender, receiver, semantics)
    else:
        assert reason == ""
        assert installed.attributes.communities == tuple(
            sorted(set(installed.attributes.communities))
        )
    # A side without a route-map evaluates nothing.
    applied = (session.neighbor.export_policy is not None) + (
        receiver.bgp.neighbors[SENDER_IP].import_policy is not None
    )
    assert stats.policy_evals <= applied
    assert expected_reason is None or expected is None


def _ebgp_case(route, export_map=None):
    to_receiver = BgpNeighbor(
        peer_ip=RECEIVER_IP,
        remote_as=OTHER_AS,
        export_policy=export_map.name if export_map else None,
    )
    to_sender = BgpNeighbor(peer_ip=SENDER_IP, remote_as=SENDER_AS)
    session = BgpSession(
        "sender", "receiver", SENDER_IP, RECEIVER_IP, SENDER_AS, OTHER_AS,
        to_receiver, is_ibgp=False, established=True,
    )
    return (
        route,
        session,
        _device("sender", SENDER_AS, to_receiver, export_map),
        _device("receiver", OTHER_AS, to_sender, None),
        PolicySemantics(),
    )


def _route(**attrs):
    return BgpRoute(
        PREFIXES[0], THIRD_IP, BgpAttributes.make(**attrs), received_from=THIRD_IP
    )


def test_loop_check_sees_the_prepended_path():
    """The receiver's AS arrives only through ``set as-path prepend`` on
    export: the early loop rule must look at what the route-map made of
    the path, not at the sender's route."""
    prepend = RouteMap(
        "RM_OUT",
        [
            RouteMapClause(
                10, Action.PERMIT, [],
                [RouteMapSet(SetKind.AS_PATH_PREPEND, str(OTHER_AS))],
            )
        ],
    )
    case = _ebgp_case(_route(as_path=(100,)), prepend)
    assert reference_exchange(*case) == (None, AS_PATH_LOOP)
    installed, reason, stats = _advertise(*case)
    assert (installed, reason) == (None, AS_PATH_LOOP)
    assert stats.policy_evals == 1


def test_export_deny_outranks_the_loop_it_hides():
    """Both an export deny and an AS-path loop hold (NET5's providers):
    the export policy speaks first, as it did before the rework."""
    deny = RouteMap("RM_OUT", [RouteMapClause(10, Action.DENY)])
    case = _ebgp_case(_route(as_path=(OTHER_AS, 100)), deny)
    assert reference_exchange(*case) == (None, EXPORT_DENY)
    assert applicable_reasons(*case) == {EXPORT_DENY, AS_PATH_LOOP}
    installed, reason, _stats = _advertise(*case)
    assert (installed, reason) == (None, EXPORT_DENY)


def test_split_horizon_needs_no_policy_evaluation():
    """An iBGP-learned route to a non-client is dropped before the export
    route-map is looked at (the one reordering the rework makes), and an
    originator loop is reported where split horizon does not apply."""
    to_receiver = BgpNeighbor(
        peer_ip=RECEIVER_IP, remote_as=SENDER_AS, export_policy="RM_OUT"
    )
    to_sender = BgpNeighbor(peer_ip=SENDER_IP, remote_as=SENDER_AS)
    deny = RouteMap("RM_OUT", [RouteMapClause(10, Action.DENY)])
    session = BgpSession(
        "sender", "receiver", SENDER_IP, RECEIVER_IP, SENDER_AS, SENDER_AS,
        to_receiver, is_ibgp=True, established=True,
    )
    case = (
        _route(from_ibgp=True, admin_distance=AD_IBGP),
        session,
        _device("sender", SENDER_AS, to_receiver, deny),
        _device("receiver", SENDER_AS, to_sender, None),
        PolicySemantics(),
    )
    assert reference_exchange(*case) == (None, EXPORT_DENY)
    installed, reason, stats = _advertise(*case)
    assert (installed, reason) == (None, SPLIT_HORIZON)
    assert stats.policy_evals == 0

    to_receiver.route_reflector_client = True
    to_receiver.export_policy = None
    reflected = BgpRoute(
        PREFIXES[0], THIRD_IP,
        BgpAttributes.make(from_ibgp=True, admin_distance=AD_IBGP),
        received_from=RECEIVER_IP,
    )
    case = (reflected,) + case[1:]
    assert reference_exchange(*case) == (None, ORIGINATOR_LOOP)
    assert _advertise(*case)[:2] == (None, ORIGINATOR_LOOP)
