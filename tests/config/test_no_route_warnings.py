"""Route-policy lines the vendors would refuse parse with a warning
naming their file and line, and stay in the model: a ``match tag`` or
``match metric`` value that is not a number (it matches no route), and
prefix-length bounds outside the prefix's length..32 or upside down, in
both dialects."""

import pytest

from repro.bdd.engine import FALSE
from repro.config.model import MatchKind, RouteMapMatch
from repro.core.session import Session
from repro.lint.dataflow.domain import build_universe
from repro.hdr.ip import Prefix
from repro.routing.policy import MATCH_ROWS, PolicyRoute
from repro.synth.networks import network_by_name

CLAUSE = "route-map RM_PROV0_IN permit 10\n"


@pytest.mark.parametrize("kind", ["tag", "metric"])
def test_a_match_on_a_word_matches_no_route_and_warns(kind):
    configs = network_by_name("NET10").generate(1)
    text = configs["wcore0"]
    line = text[: text.index(CLAUSE)].count("\n") + 2
    configs["wcore0"] = text.replace(CLAUSE, CLAUSE + f" match {kind} abc\n")
    session = Session.from_texts(configs)
    assert session.dataplane.converged
    [warning] = session.parse_warnings
    assert (warning.source_file, warning.line_number) == ("wcore0", line)
    assert f"match {kind} abc" in warning.describe()
    # Neither the simulation nor lint's compiled map lets a route through.
    device = session.snapshot.device("wcore0")
    [match] = [m for m in device.route_maps["RM_PROV0_IN"].clauses[0].matches if m.value == "abc"]
    assert not MATCH_ROWS[match.kind].test(device, match.value, PolicyRoute(Prefix("8.1.0.0/16")))
    universe = build_universe(session.snapshot)
    assert universe.policy(device, "RM_PROV0_IN").clauses[0].guard == FALSE
    # Provider 0's 8.0.0.0/8, which the clause let in, is denied by
    # clause 20 now.
    assert all(
        route.prefix != Prefix("8.0.0.0/8")
        for route in session.dataplane.main_rib("wcore0").routes()
    )


def test_a_numeric_match_parses_without_a_warning():
    configs = network_by_name("NET10").generate(1)
    configs["wcore0"] = configs["wcore0"].replace(CLAUSE, CLAUSE + " match tag 7\n")
    session = Session.from_texts(configs)
    assert session.parse_warnings == []
    assert RouteMapMatch(MatchKind.TAG, "7") in (
        session.snapshot.device("wcore0").route_maps["RM_PROV0_IN"].clauses[0].matches
    )


CISCO = "hostname r1\nip prefix-list HIGH seq 5 permit 10.0.0.0/8 {bounds}\n"
JUNIPER = (
    "set system host-name r1\n"
    "set policy-options policy-statement P term t from route-filter 10.0.0.0/8 {bounds}\n"
    "set policy-options policy-statement P term t then accept\n"
)


@pytest.mark.parametrize("template, bounds, problem, vacuous", [
    (CISCO, "ge 33 le 40", "ge 33 outside 8..32", True),
    (CISCO, "le 7", "le 7 outside 8..32", True),
    (CISCO, "ge 24 le 16", "ge 24 above le 16", True),
    (JUNIPER, "prefix-length-range /33-/40", "ge 33 outside 8..32", True),
    (JUNIPER, "upto /40", "le 40 outside 8..32", False),
    (JUNIPER, "prefix-length-range /24-/16", "ge 24 above le 16", True),
], ids=["cisco-ge", "cisco-le", "cisco-order", "juniper-range", "juniper-upto", "juniper-order"])
def test_invalid_length_bounds_warn_and_stay(template, bounds, problem, vacuous):
    session = Session.from_texts({"r1.cfg": template.format(bounds=bounds)})
    [warning] = session.parse_warnings
    assert (warning.source_file, warning.line_number) == ("r1.cfg", 2)
    assert warning.comment.endswith(f"length bounds: {problem}")
    # The line stays in the model as written, so lint still says so
    # where it can never match (``upto /40`` matches lengths 8..32).
    [plist] = session.snapshot.device("r1").prefix_lists.values()
    assert len(plist.lines) == 1 and plist.lines[0].bounds_problem() == problem
    findings = [f.message for f in session.lint().findings if f.rule_id == "vacuous-match"]
    assert any("line 0 can never match" in message for message in findings) == vacuous


@pytest.mark.parametrize("template, bounds", [
    (CISCO, "ge 16 le 24"), (CISCO, "le 32"), (CISCO, ""),
    (JUNIPER, "upto /24"), (JUNIPER, "orlonger"), (JUNIPER, "exact"),
    (JUNIPER, "prefix-length-range /16-/24"),
])
def test_bounds_that_can_match_parse_without_a_warning(template, bounds):
    session = Session.from_texts({"r1.cfg": template.format(bounds=bounds)})
    assert session.parse_warnings == []


#: Each malformed entry and the reason its warning gives.
MALFORMED = {
    "10.0.0.0/33 exact": "prefix length out of range: 33",
    "10.0.0.300/8 orlonger": "invalid IPv4 address: '10.0.0.300'",
    "10.0.0.0/8 upto 40": "unrecognized route-filter",
    "10.0.0.0/8": "unrecognized route-filter",
    "permit 10.0.0.0/33": "prefix length out of range: 33",
    "permit 10.0.0.300/8": "invalid IPv4 address: '10.0.0.300'",
    "permit 10.0.0.0/8 ge abc": "invalid literal for int() with base 10: 'abc'",
    "permit": "missing a word",
}


@pytest.mark.parametrize("route_filter", [
    "10.0.0.0/33 exact", "10.0.0.300/8 orlonger", "10.0.0.0/8 upto 40", "10.0.0.0/8",
])
def test_a_malformed_route_filter_warns_and_the_snapshot_loads(route_filter):
    text = JUNIPER.replace("10.0.0.0/8 {bounds}", route_filter)
    session = Session.from_texts({"r1.cfg": text})
    [warning] = session.parse_warnings
    assert (warning.source_file, warning.line_number) == ("r1.cfg", 2)
    assert warning.comment == MALFORMED[route_filter]
    assert session.snapshot.device("r1").prefix_lists == {}


@pytest.mark.parametrize("entry", [
    "permit 10.0.0.0/33", "permit 10.0.0.300/8", "permit 10.0.0.0/8 ge abc", "permit",
])
def test_a_malformed_cisco_prefix_list_line_warns_and_the_snapshot_loads(entry):
    session = Session.from_texts({"r1.cfg": CISCO.replace("permit 10.0.0.0/8 {bounds}", entry)})
    [warning] = session.parse_warnings
    assert (warning.source_file, warning.line_number) == ("r1.cfg", 2)
    assert warning.comment == MALFORMED[entry]
    # The line is not modelled, so neither is a list it alone defines.
    assert session.snapshot.device("r1").prefix_lists == {}
