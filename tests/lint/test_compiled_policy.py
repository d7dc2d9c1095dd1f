"""Compiled route maps against the concrete walk they encode.

Over every route map of the registry networks and of the lint test
fixtures, a drawn route — a boundary prefix of some prefix-list line of
its device, carrying a subset of the communities its map names — is:

* in a prefix list's space iff ``PrefixList.permits`` holds;
* in an exact clause's guard iff ``_clause_matches`` holds, and in an
  inexact clause's guard whenever ``_clause_matches`` holds;

and ``apply_route_map`` decides at the first exact clause whose guard
holds, unless an earlier inexact clause matched first.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.engine import FALSE
from repro.config.loader import load_snapshot_from_texts
from repro.config.model import SetKind
from repro.hdr.ip import Prefix
from repro.lint.dataflow import build_universe
from repro.routing.policy import (
    DEFAULT_SEMANTICS,
    PolicyRoute,
    _clause_matches,
    apply_route_map,
)
from repro.synth.networks import NETWORKS
from tests.lint import test_dataflow, test_routemap_rules

#: The first-match cases the other fixtures lack: a ge-only band, a deny
#: line before a permit, a community list of two, an undefined list, and
#: inexact clauses before exact ones.
EDGES = {
    "edges": """
hostname edges
ip prefix-list GEONLY seq 5 permit 10.0.0.0/8 ge 16
ip prefix-list ORDER seq 5 deny 10.1.0.0/16 le 32
ip prefix-list ORDER seq 10 permit 10.0.0.0/8 le 24
ip prefix-list EXACT seq 5 permit 192.168.1.0/24
ip community-list standard C1 permit 65000:1 65000:2
route-map E permit 10
 match ip address prefix-list ORDER
 match community C1
route-map E permit 20
 match tag 0
 match ip address prefix-list EXACT
route-map E deny 30
 match ip address prefix-list GEONLY
route-map E permit 40
 match ip address prefix-list MISSING
route-map E permit 50
 match as-path 1
 set community 65000:9 additive
route-map E permit 60
 match community C1
route-map E permit 70
 match ip address prefix-list EXACT
""",
}

FIXTURES = {
    "edges": EDGES,
    "route-maps": test_routemap_rules.ROUTE_MAPS,
    "impossible": test_routemap_rules.IMPOSSIBLE,
    "leak": test_dataflow.LEAK,
    "loop": test_dataflow.LOOP,
    "filter-gap": test_dataflow.FILTER_GAP,
    "community": test_dataflow.COMMUNITY,
    "unreachable": test_dataflow.UNREACHABLE,
}


@lru_cache(maxsize=None)
def cases():
    """(universe, device, route-map name, candidate prefixes, named
    communities) for every route map of every source."""
    sources = {spec.name: spec.generate(1) for spec in NETWORKS}
    sources.update(FIXTURES)
    found = []
    for label in sorted(sources):
        snapshot = load_snapshot_from_texts(sources[label])
        universe = build_universe(snapshot)
        for hostname in snapshot.hostnames():
            device = snapshot.device(hostname)
            prefixes = boundary_prefixes(device)
            for name in sorted(device.route_maps):
                found.append(
                    (universe, device, name, prefixes, named_communities(device, name))
                )
    assert {device.hostname for _, device, *_ in found} >= {"edges", "rm", "wcore0"}
    return found


def boundary_prefixes(device):
    """Each prefix-list line's network and its sibling (last network bit
    flipped), at the lengths one either side of every bound."""
    prefixes = {Prefix("0.0.0.0/0"), Prefix("255.255.255.255/32")}
    for plist in device.prefix_lists.values():
        for line in plist.lines:
            network, length = line.prefix.network_value, line.prefix.length
            lengths = {length}
            for bound in (length, line.ge, line.le):
                if bound is not None:
                    lengths |= {bound - 1, bound, bound + 1}
            for each in lengths:
                if 0 <= each <= 32:
                    prefixes.add(Prefix(network, each))
                    if length:
                        prefixes.add(Prefix(network ^ (1 << (32 - length)), each))
    return sorted(prefixes, key=lambda p: (p.network_value, p.length))


def named_communities(device, name):
    """The communities a route map matches on or sets."""
    names = set()
    for clause in device.route_maps[name].clauses:
        for match in clause.matches:
            clist = device.community_lists.get(match.value)
            if clist is not None:
                names.update(clist.communities)
        for set_clause in clause.sets:
            if set_clause.kind in (SetKind.COMMUNITY, SetKind.COMMUNITY_ADDITIVE):
                names.update(set_clause.value.split())
    return sorted(names)


def point(universe, prefix, communities):
    """The one route announcing ``prefix`` with exactly ``communities``
    (flags free)."""
    engine = universe.engine
    bdd = universe.prefix_atom(prefix)
    for name in universe.communities:
        literal = universe.community(name)
        bdd = engine.and_(bdd, literal if name in communities else engine.not_(literal))
    return bdd


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_compiled_policy_agrees_with_the_concrete_walk(data):
    universe, device, name, prefixes, names = data.draw(st.sampled_from(cases()))
    prefix = data.draw(st.sampled_from(prefixes))
    communities = data.draw(st.sets(st.sampled_from(names))) if names else set()
    engine = universe.engine
    route = point(universe, prefix, communities)

    def holds(bdd):
        return engine.and_(route, bdd) != FALSE

    for plist in device.prefix_lists.values():
        assert holds(universe.prefix_list_space(plist)) == plist.permits(prefix)

    concrete = PolicyRoute(prefix, communities=set(communities))
    summary = universe.policy(device, name)
    clauses = device.route_maps[name].sorted_clauses()
    assert [c.seq for c in summary.clauses] == [c.seq for c in clauses]
    for clause, compiled in zip(clauses, summary.clauses):
        matches = _clause_matches(device, clause, concrete, DEFAULT_SEMANTICS, [])
        if compiled.is_exact(False):
            assert holds(compiled.guard) == matches, (name, clause.seq, prefix)
        elif matches:
            assert holds(compiled.guard), (name, clause.seq, prefix)

    first_exact = next(
        (
            index
            for index, compiled in enumerate(summary.clauses)
            if compiled.is_exact(False) and holds(compiled.guard)
        ),
        None,
    )
    decided = apply_route_map(device, name, concrete).matched_clause
    expected = None if first_exact is None else summary.clauses[first_exact].seq
    if decided != expected:
        # Only an earlier inexact clause may take the route first.
        index = [c.seq for c in summary.clauses].index(decided)
        assert first_exact is None or index < first_exact
        assert not summary.clauses[index].is_exact(False)
        assert holds(summary.clauses[index].guard)
