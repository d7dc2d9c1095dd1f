"""The BGP exchange's *old* per-advertisement pipeline, kept as a
test-only reference.

Until PR 17 ``engine._process_incoming`` built the whole export → import
object chain for every advertisement before asking whether BGP would
send it at all: sender's route → ``PolicyRoute`` → export route-map →
``BgpRoute`` → :func:`export_route` (split horizon) →
:func:`accepts_route` (loops) → ``PolicyRoute`` → import route-map →
``BgpRoute``. The engine now applies the rules that are decidable from
the sender's route and the session *first* and builds nothing for a
side without a route-map; this module is the old order, copied from the
parent commit (``dataclasses.replace`` round trips included) so that it
shares nothing with what it checks but the route-map evaluator and the
value types.

:func:`reference_exchange` answers "installed route or rejection
reason" for one advertisement; :func:`applicable_reasons` lists every
rejection rule that holds for it, because where two rules both reject
the engine may now name the earlier-decidable one.
"""

from dataclasses import replace
from typing import Optional, Set, Tuple

from repro.config.model import Device
from repro.routing.bgp import BgpSession
from repro.routing.policy import (
    DEFAULT_SEMANTICS,
    PolicyRoute,
    PolicySemantics,
    apply_route_map,
)
from repro.routing.route import AD_EBGP, AD_IBGP, BgpAttributes, BgpRoute

SPLIT_HORIZON = "split_horizon"
AS_PATH_LOOP = "as_path_loop"
ORIGINATOR_LOOP = "originator_loop"
EXPORT_DENY = "export_deny"
IMPORT_DENY = "import_deny"


def _with_changes(attrs: BgpAttributes, **kwargs) -> BgpAttributes:
    return replace(attrs, **kwargs)


def _to_policy_route(route: BgpRoute) -> PolicyRoute:
    attrs = route.attributes
    return PolicyRoute(
        prefix=route.prefix,
        next_hop_ip=route.next_hop_ip,
        as_path=attrs.as_path,
        local_pref=attrs.local_pref,
        med=attrs.med,
        origin=attrs.origin,
        communities=set(attrs.communities),
        weight=attrs.weight,
        tag=attrs.tag,
        source_protocol=attrs.source_protocol,
    )


def _from_policy_route(base: BgpRoute, policy_route: PolicyRoute) -> BgpRoute:
    attrs = _with_changes(
        base.attributes,
        as_path=tuple(policy_route.as_path),
        local_pref=policy_route.local_pref,
        med=policy_route.med,
        origin=policy_route.origin,
        communities=tuple(sorted(set(policy_route.communities))),
        weight=policy_route.weight,
        tag=policy_route.tag,
    )
    next_hop = policy_route.next_hop_ip or base.next_hop_ip
    return BgpRoute(
        prefix=base.prefix,
        next_hop_ip=next_hop,
        attributes=attrs,
        received_from=base.received_from,
    )


def _export_route(session: BgpSession, route: BgpRoute) -> Optional[BgpRoute]:
    attrs = route.attributes
    if session.is_ibgp:
        if attrs.from_ibgp and not session.neighbor.route_reflector_client:
            return None
        next_hop = route.next_hop_ip
        if session.neighbor.next_hop_self or route.received_from is None:
            next_hop = session.local_ip
        new_attrs = _with_changes(
            attrs,
            from_ibgp=True,
            admin_distance=AD_IBGP,
            originator_id=attrs.originator_id
            or (route.received_from if attrs.from_ibgp else None),
        )
    else:
        next_hop = session.local_ip
        new_attrs = _with_changes(
            attrs,
            as_path=(session.local_as,) + attrs.as_path,
            local_pref=100,
            from_ibgp=False,
            admin_distance=AD_EBGP,
            originator_id=None,
            weight=0,
            med=0 if attrs.from_ibgp else attrs.med,
            communities=attrs.communities
            if session.neighbor.send_community
            else (),
        )
    return BgpRoute(
        prefix=route.prefix,
        next_hop_ip=next_hop,
        attributes=new_attrs,
        received_from=session.local_ip,
    )


def _loop_reason(sender_session: BgpSession, route: BgpRoute) -> Optional[str]:
    """``accepts_route`` as seen by the receiver (local/remote swapped)."""
    receiver_as, receiver_ip = sender_session.remote_as, sender_session.remote_ip
    if not sender_session.is_ibgp and receiver_as in route.attributes.as_path:
        return AS_PATH_LOOP
    if (
        sender_session.is_ibgp
        and route.attributes.originator_id is not None
        and route.attributes.originator_id == receiver_ip
    ):
        return ORIGINATOR_LOOP
    return None


def reference_exchange(
    route: BgpRoute,
    sender_session: BgpSession,
    sender_device: Device,
    receiver_device: Device,
    semantics: PolicySemantics = DEFAULT_SEMANTICS,
) -> Tuple[Optional[BgpRoute], Optional[str]]:
    """The route the receiver installs for the sender's best ``route``,
    or ``(None, reason)`` — checks in the parent commit's order."""
    export_policy = sender_session.neighbor.export_policy
    result = apply_route_map(
        sender_device, export_policy, _to_policy_route(route), semantics
    )
    if not result.permitted:
        return None, EXPORT_DENY
    shaped = _from_policy_route(route, result.route)
    advertisement = _export_route(sender_session, shaped)
    if advertisement is None:
        return None, SPLIT_HORIZON
    reason = _loop_reason(sender_session, advertisement)
    if reason is not None:
        return None, reason
    receiver_neighbor = receiver_device.bgp.neighbors.get(sender_session.local_ip)
    import_policy = receiver_neighbor.import_policy if receiver_neighbor else None
    result = apply_route_map(
        receiver_device, import_policy, _to_policy_route(advertisement), semantics
    )
    if not result.permitted:
        return None, IMPORT_DENY
    final = _from_policy_route(advertisement, result.route)
    return (
        BgpRoute(
            prefix=final.prefix,
            next_hop_ip=final.next_hop_ip,
            attributes=final.attributes,
            received_from=sender_session.local_ip,
        ),
        None,
    )


def applicable_reasons(
    route: BgpRoute,
    sender_session: BgpSession,
    sender_device: Device,
    receiver_device: Device,
    semantics: PolicySemantics = DEFAULT_SEMANTICS,
) -> Set[str]:
    """Every rejection that holds for the advertisement: the one the old
    order reports, plus the BGP rules that hold for the sender's route
    whatever its export policy does (a route-map changes neither
    ``from_ibgp`` nor the originator and can only lengthen the path)."""
    _installed, first = reference_exchange(
        route, sender_session, sender_device, receiver_device, semantics
    )
    reasons = {first} if first is not None else set()
    attrs = route.attributes
    if sender_session.is_ibgp:
        if attrs.from_ibgp and not sender_session.neighbor.route_reflector_client:
            reasons.add(SPLIT_HORIZON)
        originator = attrs.originator_id or (
            route.received_from if attrs.from_ibgp else None
        )
        if originator is not None and originator == sender_session.remote_ip:
            reasons.add(ORIGINATOR_LOOP)
    elif sender_session.remote_as in attrs.as_path:
        reasons.add(AS_PATH_LOOP)
    return reasons
