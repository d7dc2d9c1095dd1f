"""The forwarding-graph builder's *old* FIB construction, kept as a
test-only reference.

Until PR 12 ``_build_device_pipeline`` computed every FIB entry's packet
set as ``prefix - OR(all longer prefixes inside it)`` over a second
"shadow" trie and emitted one edge per prefix. The builder now reads the
same sets off one pass over the FIB's trie
(:func:`repro.reachability.graph.fib_action_spaces`); this module is the
old arithmetic, written as plainly as possible (quadratic, cubes from
``from_assignment``) so that it shares no code with what it checks.
"""

from typing import Dict, List

from repro.bdd.engine import FALSE
from repro.dataplane.fib import NO_ROUTE_KEY, ActionKey, Fib
from repro.hdr import fields as f
from repro.hdr.headerspace import PacketEncoder
from repro.hdr.ip import Prefix


def prefix_cube(encoder: PacketEncoder, prefix: Prefix) -> int:
    """``dst_ip in prefix`` the way ``ip_in_prefix`` used to build it."""
    return encoder.engine.from_assignment(
        {
            encoder.layout.var(f.DST_IP, bit): prefix.network.bit(bit)
            for bit in range(prefix.length)
        }
    )


def per_prefix_action_spaces(
    fib: Fib, own_ip_set: int, encoder: PacketEncoder
) -> Dict[ActionKey, int]:
    """Per action key, the union of its entries' effective spaces; what
    no prefix matches joins the unresolvable routes under
    ``NO_ROUTE_KEY``. Empty spaces are left out."""
    engine = encoder.engine
    not_accepted = engine.not_(own_ip_set)
    table = fib.entries()
    parts: Dict[ActionKey, List[int]] = {}
    routed: List[int] = []
    for prefix, entries in table:
        longer = [
            prefix_cube(encoder, other)
            for other, _ in table
            if other.length > prefix.length and prefix.contains_prefix(other)
        ]
        space = engine.diff(prefix_cube(encoder, prefix), engine.or_all(longer))
        space = engine.and_(space, not_accepted)
        routed.append(space)
        for entry in entries:
            parts.setdefault(entry.action_key, []).append(space)
    parts.setdefault(NO_ROUTE_KEY, []).append(
        engine.diff(not_accepted, engine.or_all(routed))
    )
    spaces = {key: engine.or_all(spaces) for key, spaces in parts.items()}
    return {key: space for key, space in spaces.items() if space != FALSE}
