"""The parse boundary: a line either parser cannot model is one warning
naming its file and line, and is left out of the model; nothing a
configuration file says makes ``Session.from_texts`` raise.

The probe corpus is 37 appended lines (each after a block header where
it needs one), 23 ciscoish on NET1 ``net1-core0`` and 14 juniperish on
NET3 ``agg0-0``: 25 hold a value its handler cannot parse (a bad
address, number, port, mask, prefix or as-path regex), 11 hold words no
handler models (``ip route 10.0.0.0``, ``router ospf x``, trailing junk
after ``Null0``, ``match interface``, a community list's ``deny`` line
or ``expanded`` regex, an unknown word after ``redistribute static``,
juniperish ``from``/``then`` words, and a policy term that sets a value
but never ends in ``then accept|reject``), and one a prefix-list entry
with an out-of-range length. Each probe's parse equals the parse of the
text without it. Lines that are modelled are checked against the model
they parse into.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.loader import parse_config_text
from repro.config.model import Action, Protocol
from repro.core.session import Session
from repro.synth.networks import network_by_name

#: (network, device, appended text, line of the append it is about).
PROBES = [("NET1", "net1-core0", text, line) for text, line in [
    ("interface Ethernet9\n ip address banana", 2),
    ("interface Ethernet9\n ip address 1.2.3.4 255.255.255.300", 2),
    ("interface Ethernet9\n mtu big", 2),
    ("interface Ethernet9\n ip ospf cost high", 2),
    ("router bgp notanumber\n neighbor 10.0.0.1 remote-as 65001", 1),
    ("route-map M permit ten\n set metric 5", 1),
    ("ip route 10.9.0.0 255.255.0.0 999.1.1.1", 1),
    ("router bgp 65001\n neighbor 1.1.1.1 remote-as abc", 2),
    ("ip access-list extended PROBE\n permit tcp any any eq notaport", 2),
    ("ip access-list extended PROBE\n permit ip 10.0.0.0 0.255.0.255 any", 2),
    ("ntp server banana", 1),
    ("ip name-server 1.2.3", 1),
    ("router ospf 1\n network 10.0.0.0 0.0.0.255 area x", 2),
    ("ip route 10.9.0.0 255.255.0.0 Null0 tag x", 1),
    ("ip route 10.0.0.0", 1),
    ("router ospf x", 1),
    ("ip route 10.9.0.0 255.255.0.0 Null0 abc", 1),
    ("route-map M permit 10\n match interface Eth0", 2),
    ("ip prefix-list P permit 10.0.0.0/40", 1),
    ("ip as-path access-list BAD permit (65000", 1),
    ("ip community-list standard C deny 65000:1", 1),
    ("ip community-list expanded E permit 65000:.*", 1),
    ("router ospf 1\n redistribute static route-mapp X", 2),
]] + [("NET3", "agg0-0", text, 1) for text in [
    "set policy-options prefix-list PL 10.0.0.0/33",
    "set protocols bgp group CORE neighbor 10.16.0.2 peer-as abc",
    "set interfaces ge-0/0/9 unit 0 family inet address banana/24",
    "set interfaces ge-0/0/9 mtu big",
    "set protocols ospf area x interface ge-0/0/0",
    "set routing-options static route 10.9.0.0/16 next-hop 999.1.1.1",
    "set routing-options router-id banana",
    "set system ntp server banana",
    "set protocols bgp local-as abc",
    "set firewall filter F term t from source-address 10.0.0.0/33",
    "set policy-options policy-statement P term t from neighbor 10.0.0.1",
    "set firewall filter F term t then count C",
    "set firewall filter F term t from icmp-type echo-request",
    "set policy-options policy-statement PROBE term t then local-preference 200",
]]


def _model(session):
    """Everything parsed but the warnings, the line counts aside."""
    snapshot = session.snapshot
    devices = {name: replace(d, config_lines=0) for name, d in snapshot.devices.items()}
    return repr(devices), snapshot.sources


def _without(append: str, line: int) -> str:
    """``append`` without line ``line``; a top-level line takes its
    indented lines with it (a failing block header drops its block)."""
    lines = append.split("\n")
    end = line
    if not lines[line - 1][:1].isspace():
        while end < len(lines) and lines[end][:1].isspace():
            end += 1
    return "\n".join(lines[: line - 1] + lines[end:])


@pytest.mark.parametrize(
    "network, host, append, line", PROBES, ids=[probe[2] for probe in PROBES]
)
def test_a_probe_line_is_warned_at_its_line_and_left_out(network, host, append, line):
    configs = network_by_name(network).generate(1)
    base = configs[host]
    configs[host] = base + append + "\n"
    session = Session.from_texts(configs)
    number = len(base.splitlines()) + line
    warned = [(w.source_file, w.line_number) for w in session.parse_warnings]
    assert (host, number) in warned, session.parse_warnings
    configs[host] = base + _without(append, line) + "\n"
    assert _model(session) == _model(Session.from_texts(configs))


CLAUSE = "route-map RM_PROV0_IN permit 10\n"


def test_a_malformed_as_path_regex_is_one_located_warning_and_the_data_plane_builds():
    configs = network_by_name("NET10").generate(1)
    text = configs["wcore0"].replace(CLAUSE, f"{CLAUSE} match as-path BAD\n")
    configs["wcore0"] = text + "ip as-path access-list BAD permit (65000\n"
    session = Session.from_texts(configs)
    [warning] = session.parse_warnings
    assert (warning.source_file, warning.line_number) == ("wcore0", len(text.splitlines()) + 1)
    assert "as-path regex" in warning.comment
    assert session.dataplane.converged
    assert "BAD" not in session.snapshot.device("wcore0").as_path_lists


def _parsed(text, name="r1"):
    device, warnings = parse_config_text(text, name)
    return device, [(w.line_number, w.comment) for w in warnings]


def test_as_path_list_lines_keep_their_action_first_match():
    device, warnings = _parsed(
        "hostname r1\n"
        "ip as-path access-list A permit _65000_\n"
        "ip as-path access-list A deny _65001$\n"
    )
    assert warnings == []
    alist = device.as_path_lists["A"]
    assert [line.action for line in alist.lines] == [Action.PERMIT, Action.DENY]
    assert alist.permits((65000, 65001))  # the first line decides
    assert not alist.permits((65001,))  # the deny line
    assert not alist.permits((100,))  # implicit deny


def test_a_classless_redistribution_is_modelled_without_a_warning():
    device, warnings = _parsed(
        "hostname r1\nrouter ospf 1\n"
        " redistribute connected subnets route-map X\n"
        " redistribute bgp 65001 metric 5\n"
    )
    assert warnings == []
    assert [(r.source, r.route_map, r.metric) for r in device.ospf.redistributions] == [
        (Protocol.CONNECTED, "X", None), (Protocol.BGP, None, 5),
    ]


def test_a_juniperish_security_policy_then_sets_the_zone_acl_action():
    device, warnings = _parsed(
        "set system host-name j1\n"
        "set security policies from-zone a to-zone b policy p match protocol tcp\n"
        "set security policies from-zone a to-zone b policy p then deny\n"
        "set security policies from-zone a to-zone b policy q then permit\n"
    )
    assert warnings == []
    assert [line.action for line in device.acls["~zone~a~b~"].lines] == [
        Action.DENY, Action.PERMIT,
    ]


def test_a_juniperish_policy_term_without_accept_or_reject_falls_through():
    device, warnings = _parsed(
        "set system host-name j1\n"
        "set policy-options policy-statement P term a from prefix-list PL\n"
        "set policy-options policy-statement P term b from route-filter 10.0.0.0/8 orlonger\n"
        "set policy-options policy-statement P term b then metric 5\n"
        "set policy-options policy-statement P term c from community C\n"
        "set policy-options policy-statement P term c then reject\n"
        "set policy-options policy-statement Q term a from prefix-list PL\n"
    )
    # Term a matches and falls through: left out, as Junos goes on.
    # Term b sets a metric no clause can carry over: warned, left out.
    assert warnings == [(3, "policy term sets attributes but has no then accept|reject: "
                            "not modelled")]
    [clause] = device.route_maps["P"].clauses
    assert (clause.action, [m.value for m in clause.matches]) == (Action.DENY, ["C"])
    assert "Q" not in device.route_maps and device.prefix_lists == {}


@pytest.mark.parametrize("line", ["set local-preference high", "set as-path prepend abc"])
def test_a_set_value_that_is_not_a_number_is_warned_and_the_data_plane_builds(line):
    configs = network_by_name("NET10").generate(1)
    text = configs["wcore0"]
    number = text[: text.index(CLAUSE)].count("\n") + 2
    configs["wcore0"] = text.replace(CLAUSE, f"{CLAUSE} {line}\n")
    session = Session.from_texts(configs)
    [warning] = session.parse_warnings
    assert (warning.source_file, warning.line_number) == ("wcore0", number)
    assert session.dataplane.converged
    clause = session.snapshot.device("wcore0").route_maps["RM_PROV0_IN"].clauses[0]
    assert all(s.value not in ("high", "abc") for s in clause.sets)


# ----------------------------------------------------------------------
# Mutation fuzzer: registry files with tokens dropped, duplicated,
# garbled and lines truncated, in both dialects (NAT, zones and route
# maps included).

GARBAGE = ["banana", "-1", "999.1.1.1", "10.0.0.0/33", "0.255.0.255", "65536",
           "x/y", "/", "-", "in", "permit", "set", "interface", "0"]

_FILES = {
    "ciscoish": ("NET1", "net1-core0"),
    "ciscoish-nat": ("NET8", "fw0"),
    "ciscoish-policy": ("NET10", "wcore2"),
    "juniperish": ("NET3", "agg0-0"),
    "juniperish-ospf": ("NET6", next(
        name for name, text in network_by_name("NET6").generate(1).items()
        if text.startswith("set ")
    )),
}

_MUTATION = st.tuples(
    st.sampled_from(["drop", "duplicate", "garble", "truncate", "drop-line", "copy-line"]),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=20),
    st.sampled_from(GARBAGE),
)


def _mutate(text: str, mutations) -> str:
    lines = text.splitlines()
    for kind, line_index, token_index, word in mutations:
        index = line_index % len(lines)
        raw = lines[index]
        indent = raw[: len(raw) - len(raw.lstrip())]
        tokens = raw.split()
        position = token_index % (len(tokens) or 1)
        if kind == "drop-line":
            del lines[index]
            lines = lines or [""]
            continue
        if kind == "copy-line":
            lines.insert(line_index % (len(lines) + 1), raw)
            continue
        if kind == "drop":
            del tokens[position:position + 1]
        elif kind == "duplicate":
            tokens[position:position + 1] = tokens[position:position + 1] * 2
        elif kind == "garble":
            tokens[position:position + 1] = [word]
        else:
            del tokens[position:]
        lines[index] = indent + " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("dialect", sorted(_FILES))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=6))
def test_mutated_registry_configs_parse_and_every_warning_is_located(dialect, mutations):
    network, host = _FILES[dialect]
    configs = network_by_name(network).generate(1)
    configs[host] = _mutate(configs[host], mutations)
    session = Session.from_texts(configs)
    for warning in session.parse_warnings:
        if warning.comment.startswith("duplicate hostname"):
            continue
        assert warning.source_file == host and warning.line_number > 0, warning
