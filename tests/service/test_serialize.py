"""Tests for the service's question transport: lookup, bind, dispatch.

The wire codecs and the schema binder are tested where they live,
``tests/questions/test_params.py``; the question declarations in
``tests/questions/test_registry.py``.
"""

import pytest

from repro.questions import registry
from repro.service.errors import (
    InvalidRequestError,
    SnapshotNotFoundError,
    UnknownQuestionError,
)
from repro.service.serialize import (
    QUESTIONS,
    prepare,
    run_question,
    settings_from_json,
)
from repro.service.store import SnapshotStore
from repro.synth.special import net1


@pytest.fixture(scope="module")
def store():
    store = SnapshotStore()
    store.init("lab", net1(2))
    return store


class TestDecoders:
    def test_settings(self):
        settings = settings_from_json({"schedule": "lockstep", "max_iterations": 9})
        assert settings.schedule == "lockstep"
        assert settings.max_iterations == 9
        assert settings_from_json({}) == settings_from_json({"schedule": None})
        for bad in ({"tempo": "fast"}, {"max_iterations": "9"},
                    {"use_logical_clocks": "no"}, {"schedule": 3}):
            with pytest.raises(ValueError):
                settings_from_json(bad)


class TestDispatch:
    def test_routes(self, store):
        result = run_question(store, "lab", "routes", {})
        assert result["count"] == len(result["rows"]) > 0
        one = run_question(store, "lab", "routes", {"node": "net1-core0"})
        assert all(row["node"] == "net1-core0" for row in one["rows"])

    def test_reachability_has_witnesses(self, store):
        result = run_question(store, "lab", "reachability", {})
        assert result["success"]
        assert result["dispositions"]
        example = next(iter(result["dispositions"].values()))["example"]
        assert "dst_ip" in example

    def test_test_filter(self, store):
        result = run_question(
            store, "lab", "test_filter",
            {"node": "net1-core0", "filter": "SPUR_FILTER",
             "packet": {"dst_port": 23}},
        )
        assert result["action"] == "deny"

    def test_traceroute(self, store):
        result = run_question(
            store, "lab", "traceroute",
            {"packet": {"src_ip": "172.19.0.10", "dst_ip": "172.19.1.10",
                        "dst_port": 80},
             "node": "net1-spur0", "interface": "Vlan10"},
        )
        trace = result["traces"][0]
        assert trace["path"]
        assert trace["hops"][0]["steps"]

    def test_config_questions_clean_snapshot(self, store):
        assert run_question(store, "lab", "undefined_references", {})["rows"] == []
        assert run_question(store, "lab", "duplicate_ips", {})["rows"] == []
        assert run_question(store, "lab", "parse_warnings", {})["rows"] == []

    def test_route_diff_self_is_empty(self, store):
        result = run_question(store, "lab", "route_diff", {"candidate": "lab"})
        assert result["rows"] == []

    def test_missing_required_param(self, store):
        with pytest.raises(InvalidRequestError) as excinfo:
            run_question(store, "lab", "traceroute", {"node": "net1-spur0"})
        assert excinfo.value.status == 400
        assert excinfo.value.details == {"field": "packet"}

    def test_params_must_be_an_object(self, store):
        for params in ([], "node", 7):
            with pytest.raises(InvalidRequestError) as excinfo:
                run_question(store, "lab", "routes", params)
            assert excinfo.value.details == {"field": "params"}
        assert run_question(store, "lab", "routes", None)["count"] > 0

    def test_unknown_question(self, store):
        with pytest.raises(UnknownQuestionError) as excinfo:
            run_question(store, "lab", "divination", {})
        assert excinfo.value.status == 400
        assert "routes" in excinfo.value.details["available"]

    def test_debug_questions_gated(self, store):
        with pytest.raises(UnknownQuestionError):
            run_question(store, "lab", "sleep", {})
        result = run_question(
            store, "lab", "sleep", {"seconds": 0.0}, debug=True
        )
        assert result["slept_s"] == 0.0

    def test_registry_is_complete(self):
        assert {"routes", "reachability", "traceroute", "test_filter",
                "explain_route", "route_diff"} <= set(QUESTIONS)
        # The service's view is the registry minus the debug aids.
        assert set(registry.QUESTIONS) - set(QUESTIONS) == {"sleep"}
        assert all(QUESTIONS[name] is registry.QUESTIONS[name] for name in QUESTIONS)

    def test_prepare_refuses_before_any_analysis(self, store):
        declared, session, args = prepare(
            store, "lab", "routes", {"node": "net1-core0"}
        )
        assert declared is QUESTIONS["routes"]
        assert session is store.get("lab")
        assert args == {"node": "net1-core0"}
        assert prepare(store, "lab", "sleep", None, debug=True)[0].debug
        with pytest.raises(UnknownQuestionError):
            prepare(store, "lab", "sleep", None)
        with pytest.raises(SnapshotNotFoundError):
            prepare(store, "ghost", "routes", None)
        with pytest.raises(InvalidRequestError):
            prepare(store, "lab", "routes", {"node": "ghost"})
