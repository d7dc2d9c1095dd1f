"""The question registry: what is declared, what ``bind`` accepts and
that nothing but the one typed error ever leaves it."""

import pathlib
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config.loader import load_snapshot_from_texts
from repro.hdr.headerspace import HeaderSpace
from repro.hdr.ip import Prefix
from repro.hdr.packet import Packet
from repro.lint import LintConfig, all_rules
from repro.questions.params import ParamError
from repro.questions.registry import QUESTIONS, bind
from repro.sweep.scenarios import ReachabilityProperty
from repro.synth.special import net1

from tests.questions.wellformed import (
    GHOST_FILTERS, GHOST_HOSTS, GHOST_INTERFACES, GHOST_RULES, RETIRED,
    WELLFORMED,
)

SNAPSHOT = load_snapshot_from_texts(net1(2))
README = pathlib.Path(__file__).parents[2] / "README.md"


class TestDeclarations:
    def test_table_of_wellformed_params_covers_the_registry(self):
        assert set(WELLFORMED) == set(QUESTIONS)
        for name, declared in QUESTIONS.items():
            assert declared.name == name
            assert set(WELLFORMED[name]) == set(declared.params), name
            assert {
                key for key, param in declared.params.items() if param.required
            } <= set(WELLFORMED[name])

    def test_flags(self):
        by_scope = {}
        for name, declared in QUESTIONS.items():
            by_scope.setdefault(declared.scope, set()).add(name)
        assert by_scope == {
            "routing": {"routes", "reachability", "traceroute", "explain_route"},
            "config": {
                "test_filter", "undefined_references", "unused_structures",
                "duplicate_ips", "parse_warnings",
            },
            # lint reads every device whatever it touches (PR 21's bug).
            "global": {"route_diff", "lint", "sweep", "sleep"},
        }
        assert {n for n, q in QUESTIONS.items() if q.is_async} == {"sweep"}
        assert {n for n, q in QUESTIONS.items() if q.debug} == {"sleep"}
        assert {n for n, q in QUESTIONS.items() if q.converged} == {
            "routes", "reachability", "traceroute", "explain_route",
            "route_diff", "sweep",
        }

    def test_wellformed_params_bind_to_domain_objects(self):
        bound = {
            name: bind(QUESTIONS[name], params, SNAPSHOT)
            for name, params in WELLFORMED.items()
        }
        assert bound["routes"] == {"node": "net1-core0"}
        reach = bound["reachability"]
        assert isinstance(reach["headerspace"], HeaderSpace)
        assert reach["sources"] == [("net1-spur0", "Vlan10"), ("net1-core0", None)]
        assert reach["scoped"] is False
        assert isinstance(bound["traceroute"]["packet"], Packet)
        assert bound["explain_route"]["prefix"] == Prefix("10.16.0.4/30")
        assert isinstance(bound["sweep"]["property"], ReachabilityProperty)
        assert bound["sweep"]["kinds"] == ("link",)
        assert isinstance(bound["lint"]["lintconfig"], LintConfig)
        assert bound["sleep"] == {"seconds": 0.0}
        assert bound["duplicate_ips"] == {}

    def test_absent_and_null_params_are_the_same(self):
        for name, declared in QUESTIONS.items():
            optional = {
                key: None for key, param in declared.params.items()
                if not param.required
            }
            required = {
                key: value for key, value in WELLFORMED[name].items()
                if declared.params[key].required
            }
            assert bind(declared, {**required, **optional}, SNAPSHOT) == bind(
                declared, required, SNAPSHOT
            )
        assert bind(QUESTIONS["routes"], None, SNAPSHOT) == {}

    def test_named_hosts_pin_a_question_to_devices(self):
        reach = QUESTIONS["reachability"]
        args = bind(reach, WELLFORMED["reachability"], SNAPSHOT)
        assert reach.named_hosts(args) == {
            "net1-spur0": "sources", "net1-core0": "sources",
        }
        sweep = QUESTIONS["sweep"]
        args = bind(sweep, WELLFORMED["sweep"], SNAPSHOT)
        assert sweep.named_hosts(args) == {"net1-spur0": "property"}
        assert QUESTIONS["lint"].named_hosts({}) == {}

    @pytest.mark.parametrize("name, field, params", GHOST_HOSTS)
    def test_a_hostname_outside_the_snapshot_does_not_bind(
        self, name, field, params
    ):
        with pytest.raises(ParamError) as excinfo:
            bind(QUESTIONS[name], params, SNAPSHOT)
        assert excinfo.value.field == field
        assert "ghost" in excinfo.value.reason

    @pytest.mark.parametrize("name, field, params", GHOST_INTERFACES)
    def test_an_interface_its_device_lacks_does_not_bind(
        self, name, field, params
    ):
        with pytest.raises(ParamError) as excinfo:
            bind(QUESTIONS[name], params, SNAPSHOT)
        assert excinfo.value.field == field
        assert "has no interface 'Ghost0/9'" in excinfo.value.reason

    @pytest.mark.parametrize("name, field, params", GHOST_FILTERS)
    def test_a_filter_its_device_lacks_does_not_bind(self, name, field, params):
        with pytest.raises(ParamError) as excinfo:
            bind(QUESTIONS[name], params, SNAPSHOT)
        assert excinfo.value.field == field
        assert f"has no filter {params['filter']!r}" in excinfo.value.reason

    @pytest.mark.parametrize("name, field, params", GHOST_RULES)
    def test_a_rule_id_no_rule_declares_does_not_bind(
        self, name, field, params
    ):
        with pytest.raises(ParamError) as excinfo:
            bind(QUESTIONS[name], params, SNAPSHOT)
        assert excinfo.value.field == field
        assert "unknown rule id(s)" in excinfo.value.reason
        assert "no-such-rule" in excinfo.value.reason
        assert "duplicate-ip" in excinfo.value.reason  # the valid ids

    @pytest.mark.parametrize("name, field", RETIRED)
    def test_a_retired_param_is_an_unknown_key(self, name, field):
        assert field not in QUESTIONS[name].params
        with pytest.raises(ParamError) as excinfo:
            bind(QUESTIONS[name], {field: True}, SNAPSHOT)
        assert excinfo.value.field == field
        assert "unknown field" in excinfo.value.reason

    def test_readme_lists_every_question_with_its_params(self):
        """The README's ``| question | params |`` table (``*`` = required,
        ``—`` = none) is the registry, debug aids left out."""
        table = README.read_text().split("| question | params |", 1)[1]
        table = table.split("\n\n", 1)[0]
        documented = {
            name: {
                key.strip("`*\\"): key.endswith("*")
                for key in re.findall(r"`\w+`(?:\\\*)?", cell.split("(")[0])
            }
            for name, cell in re.findall(r"^\| `(\w+)` \| (.+) \|$", table, re.MULTILINE)
        }
        declared = {
            name: {key: param.required for key, param in q.params.items()}
            for name, q in QUESTIONS.items()
            if not q.debug
        }
        assert documented == declared


# ----------------------------------------------------------------------
# Hostile params: bound args or the one typed error, never anything else

_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([
        "net1-core0", "ghost", "tcp", "10.0.0.0/8", "10.0.0.1", "link",
        "error", "Vlan10", "duplicate-ip", "no-such-rule", 0, 1, 7, 80, 70000,
        -1, 2 ** 40,
    ])
)


#: Keys a nested object takes beyond those the well-formed table uses.
_MORE_KEYS = {
    "headerspace": ["src", "not_dst", "not_src", "src_ports", "tcp_flags_set",
                    "tcp_flags_unset"],
    "packet": ["src_port", "icmp_code", "icmp_type", "tcp_flags",
               "packet_length", "dscp", "ecn"],
    "lintconfig": ["rules", "severity", "suppress"],
}

_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["rule", "node", "dst", "k"]) | st.text(max_size=4),
        inner, max_size=3,
    ),
    max_leaves=10,
)


def _mutated(value, name="params"):
    """The well-formed ``value`` with parts (at any depth) replaced by
    arbitrary JSON, keys dropped, known sibling keys added and — now and
    then — an unknown key."""
    if isinstance(value, dict):
        known = {key: _mutated(inner, key) | _json for key, inner in value.items()}
        known.update({key: _json for key in _MORE_KEYS.get(name, ())})
        stray = st.dictionaries(st.text(max_size=4), _json, max_size=1)
        return st.tuples(
            st.fixed_dictionaries({}, optional=known),
            st.just({}) | st.just({}) | st.just({}) | stray,
        ).map(lambda parts: {**parts[1], **parts[0]})
    if isinstance(value, list):
        items = st.one_of([_mutated(item, name) for item in value]) | _json
        return st.lists(items, max_size=3)
    return st.just(value) | st.just(value) | _json


@pytest.mark.parametrize("name", sorted(QUESTIONS))
@settings(
    max_examples=250, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_bind_returns_args_or_the_one_typed_error(name, data):
    declared = QUESTIONS[name]
    raw = data.draw(_json | _mutated(WELLFORMED[name]))
    try:
        args = bind(declared, raw, SNAPSHOT)
    except ParamError as error:
        assert str(error) == f"{error.field}: {error.reason}"
        return
    assert set(args) <= set(declared.params)
    assert set(declared.named_hosts(args)) <= set(SNAPSHOT.devices)
    config = args.get("lintconfig")
    if config is not None:
        named = (config.rules or set()) | config.disable | set(config.severity)
        assert named <= {rule.rule_id for rule in all_rules()}
