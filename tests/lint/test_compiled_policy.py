"""The match and set rows of ``repro.routing.policy`` against themselves,
and compiled route maps against the simulator's walk.

Over every route map of the registry networks and of the lint test
fixtures, a drawn route — a boundary prefix of some prefix-list line of
its device, a subset of the communities its map names, a tag, a metric,
a source protocol and an AS path — is checked row by row:

* a match row: if the route passes the row's concrete test, its point
  lies in the row's guard and its tag among the row's tags; if the row
  says its guard is exact, the two agree both ways;
* a set row: its route-space transfer of the route's point contains the
  point of the route the concrete rewrite gives, with its tag;

and, per map, ``apply_route_map`` decides at the first exact compiled
clause whose guard holds, unless an earlier inexact clause matched first.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.engine import FALSE
from repro.config.loader import load_snapshot_from_texts
from repro.config.model import MatchKind, Protocol, SetKind
from repro.hdr.ip import Prefix
from repro.lint.dataflow import build_universe
from repro.routing.policy import MATCH_ROWS, SET_ROWS, PolicyRoute, apply_route_map
from repro.synth.networks import NETWORKS
from tests.lint import test_dataflow, test_routemap_rules

#: The cases the other fixtures lack: a ge-only band, a deny line before
#: a permit, a community list of two, an undefined list, inexact clauses
#: before exact ones, an as-path list with a deny line, metric and tag
#: matches, and every set kind.
EDGES = {
    "edges": """
hostname edges
ip prefix-list GEONLY seq 5 permit 10.0.0.0/8 ge 16
ip prefix-list ORDER seq 5 deny 10.1.0.0/16 le 32
ip prefix-list ORDER seq 10 permit 10.0.0.0/8 le 24
ip prefix-list EXACT seq 5 permit 192.168.1.0/24
ip community-list standard C1 permit 65000:1 65000:2
ip as-path access-list AP deny _65002$
ip as-path access-list AP permit ^65001_
route-map E permit 10
 match ip address prefix-list ORDER
 match community C1
 set community 65000:1 65000:9
 set tag 7
route-map E permit 20
 match tag 0
 match ip address prefix-list EXACT
 set local-preference 200
 set metric 50
route-map E deny 30
 match ip address prefix-list GEONLY
route-map E permit 40
 match ip address prefix-list MISSING
 set weight 300
route-map E permit 50
 match as-path AP
 set community 65000:9 additive
 set as-path prepend 65000 65000
route-map E permit 60
 match community C1
 match metric 50
 set ip next-hop 192.0.2.1
route-map E permit 70
 match tag 7
 match ip address prefix-list EXACT
route-map E permit 80
 match ip address prefix-list EXACT
""",
    "junos": """set system host-name junos
set policy-options prefix-list PL 10.0.0.0/8
set policy-options policy-statement P term a from protocol ospf
set policy-options policy-statement P term a from prefix-list PL
set policy-options policy-statement P term a then accept
set policy-options policy-statement P term b from protocol static
set policy-options policy-statement P term b then reject
set policy-options policy-statement P term c then accept
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

AS_PATHS = st.lists(st.sampled_from([65000, 65001, 65002, 100]), max_size=3).map(tuple)


@lru_cache(maxsize=None)
def cases():
    """(universe, device, route-map name, candidate prefixes, named
    communities, named numbers) for every route map of every source."""
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
                found.append((
                    universe, device, name, prefixes,
                    named_communities(device, name), named_numbers(device, name),
                ))
    assert {device.hostname for _, device, *_ in found} >= {"edges", "junos", "rm", "wcore0"}
    clauses = [c for _, device, name, *_ in found for c in device.route_maps[name].clauses]
    # Every row of the table is exercised.
    assert {m.kind for c in clauses for m in c.matches} == set(MatchKind)
    assert {s.kind for c in clauses for s in c.sets} == set(SetKind)
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
            names.update(MATCH_ROWS[match.kind].members(device, match.value))
        for set_clause in clause.sets:
            names.update(SET_ROWS[set_clause.kind].communities(set_clause.value))
    return sorted(names)


def named_numbers(device, name):
    """0 and every number a route map's matches name (tags, metrics)."""
    numbers = {0}
    for clause in device.route_maps[name].clauses:
        numbers.update(int(m.value) for m in clause.matches if m.value.isdecimal())
    return sorted(numbers)


def point(universe, prefix, communities):
    """The one route announcing ``prefix`` with exactly ``communities``
    (flags free)."""
    engine = universe.engine
    bdd = universe.prefix_atom(prefix)
    for name in universe.communities:
        literal = universe.community(name)
        bdd = engine.and_(bdd, literal if name in communities else engine.not_(literal))
    return bdd


@st.composite
def drawn(draw):
    universe, device, name, prefixes, names, numbers = draw(st.sampled_from(cases()))
    route = PolicyRoute(
        draw(st.sampled_from(prefixes)),
        as_path=draw(AS_PATHS),
        med=draw(st.sampled_from(numbers)),
        communities=set(draw(st.sets(st.sampled_from(names)))) if names else set(),
        tag=draw(st.sampled_from(numbers)),
        source_protocol=draw(st.sampled_from([None, *Protocol])),
    )
    return universe, device, name, route


def _carries(universe, bdd, route):
    """Whether ``bdd`` holds the route's point."""
    return universe.engine.and_(bdd, point(universe, route.prefix, route.communities)) != FALSE


@settings(max_examples=400, deadline=None)
@given(drawn())
def test_each_match_row_guard_holds_the_routes_its_test_passes(case):
    universe, device, name, route = case
    for clause in device.route_maps[name].clauses:
        for match in clause.matches:
            row = MATCH_ROWS[match.kind]
            passes = row.test(device, match.value, route)
            tags = row.tags(match.value)
            inside = _carries(universe, row.guard(universe, device, match.value), route) and (
                tags is None or route.tag in tags
            )
            if passes:
                assert inside, (name, clause.seq, match)
                members = row.members(device, match.value)
                assert not members or route.communities & set(members)
            if row.exact:
                assert passes == inside, (name, clause.seq, match)


@settings(max_examples=400, deadline=None)
@given(drawn())
def test_each_set_row_transfer_holds_the_rewritten_route(case):
    universe, device, name, route = case
    engine = universe.engine
    for clause in device.route_maps[name].clauses:
        for set_clause in clause.sets:
            row = SET_ROWS[set_clause.kind]
            rewritten = route.copy()
            row.apply(rewritten, set_clause.value)
            bdd, tags = point(universe, route.prefix, route.communities), frozenset({route.tag})
            if row.transfer is not None:
                bdd, tags = row.transfer(universe, set_clause.value, bdd, tags)
            after = point(universe, rewritten.prefix, rewritten.communities)
            assert engine.diff(after, bdd) == FALSE, (name, clause.seq, set_clause)
            assert tags is None or rewritten.tag in tags
            assert set(row.communities(set_clause.value)) <= rewritten.communities


@settings(max_examples=400, deadline=None)
@given(drawn())
def test_compiled_policy_agrees_with_the_concrete_walk(case):
    universe, device, name, route = case
    for plist in device.prefix_lists.values():
        assert _carries(universe, universe.prefix_list_space(plist), route) == plist.permits(
            route.prefix
        )
    summary = universe.policy(device, name)
    clauses = device.route_maps[name].sorted_clauses()
    assert [c.seq for c in summary.clauses] == [c.seq for c in clauses]

    def holds(compiled):
        return _carries(universe, compiled.guard, route) and (
            compiled.tags is None or route.tag in compiled.tags
        )

    for clause, compiled in zip(clauses, summary.clauses):
        matches = all(MATCH_ROWS[m.kind].test(device, m.value, route) for m in clause.matches)
        if compiled.exact(False):
            assert holds(compiled) == matches, (name, clause.seq, route)
        elif matches:
            assert holds(compiled), (name, clause.seq, route)

    first_exact = next(
        (
            index
            for index, compiled in enumerate(summary.clauses)
            if compiled.exact(False) and holds(compiled)
        ),
        None,
    )
    decided = apply_route_map(device, name, route).matched_clause
    expected = None if first_exact is None else summary.clauses[first_exact].seq
    if decided != expected:
        # Only an earlier inexact clause may take the route first.
        index = [c.seq for c in summary.clauses].index(decided)
        assert first_exact is None or index < first_exact
        assert not summary.clauses[index].exact(False)
        assert holds(summary.clauses[index])
