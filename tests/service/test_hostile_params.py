"""Hostile JSON over HTTP: for every registered question, a request the
registry cannot bind is a ``400 invalid_request`` naming the field —
never a 200 with a made-up answer, never a 500, never a dropped
connection — and the service answers the next well-formed request.

The table is derived from ``tests/questions/wellformed.py``: one unknown
key, each required key missing, each param given every *other* JSON
type, each object param given nested garbage, each hostname replaced by
one the snapshot lacks. The eight probes ISSUE 24 recorded on the parent
are the named cases at the end; each failed there. The ghost-interface
rows failed there too: reachability from an interface its device lacks
answered 200 with no disposition, and traceroute from one ``no-route``.
So did the ghost-filter rows: ``test_filter`` on a filter its node lacks
bound, raised ``KeyError`` in the run, and answered a 400 that named no
field. Two more row kinds: each lint rule id replaced by one no rule
declares (these answered 200 with no finding, since a misspelt id
selected or silenced nothing), and each retired param given a value of
every type.
"""

import pytest

from repro.questions.registry import QUESTIONS
from repro.synth.special import net1

from tests.questions.wellformed import (
    GHOST_FILTERS, GHOST_HOSTS, GHOST_INTERFACES, GHOST_RULES, RETIRED,
    WELLFORMED,
)

#: One value of each JSON type; a param is given all but its own.
BY_TYPE = {
    bool: True,
    int: 7,
    str: "false",
    list: [["x", {"y": None}]],
    dict: {"a": {"b": [None, 1.5]}},
}


def wrong_types(value):
    own = float if isinstance(value, float) else type(value)
    return [
        wrong for kind, wrong in BY_TYPE.items()
        if kind is not own and not (own is float and kind is int)
    ]


def malformed_requests():
    """``(id, question, params, field prefix)`` rows."""
    for name, declared in sorted(QUESTIONS.items()):
        good = WELLFORMED[name]
        yield f"{name}-unknown-key", name, {**good, "nod": "x"}, "nod"
        yield f"{name}-not-an-object", name, [good], "params"
        for key, param in declared.params.items():
            if param.required:
                rest = {k: v for k, v in good.items() if k != key}
                yield f"{name}-missing-{key}", name, rest, key
            for wrong in wrong_types(good[key]):
                kind = type(wrong).__name__
                yield f"{name}-{key}-as-{kind}", name, {**good, key: wrong}, key
            if isinstance(good[key], dict):
                garbage = {**good[key], **BY_TYPE[dict]}
                yield f"{name}-{key}-garbage", name, {**good, key: garbage}, key
    for name, key, params in GHOST_HOSTS:
        yield f"{name}-{key}-ghost-host", name, params, key
    for name, key, params in GHOST_INTERFACES:
        yield f"{name}-{key}-ghost-interface", name, params, key
    for name, key, params in GHOST_FILTERS:
        yield f"{name}-{key}-ghost-filter", name, params, key
    for name, key, params in GHOST_RULES:
        yield f"{name}-{key}-ghost-rule", name, params, key
    for name, key in RETIRED:
        for kind, value in BY_TYPE.items():
            params = {**WELLFORMED[name], key: value}
            yield f"{name}-{key}-as-{kind.__name__}", name, params, key


ROWS = list(malformed_requests())


@pytest.fixture(scope="module")
def client():
    from repro.service import AnalysisService, ServiceConfig
    from tests.service.conftest import Client

    service = AnalysisService(ServiceConfig(port=0, debug=True))
    service.start()
    client = Client(service.port)
    status, _ = client.post("/snapshots", {"name": "lab", "configs": net1(2)})
    assert status == 201
    yield client
    service.stop(drain=False, timeout=10.0)


def ask(client, question, params, **body):
    return client.post(
        f"/snapshots/lab/questions/{question}", {"params": params, **body}
    )


def assert_invalid(status, body, field):
    assert status == 400, body
    error = body["error"]
    assert error["code"] == "invalid_request", body
    named = error["details"]["field"]
    assert named == field or named.startswith(field + "."), body
    assert error["message"].startswith(named + ": "), body


def test_the_table_is_not_empty_and_covers_every_question():
    assert len(ROWS) > 130
    assert {row[1] for row in ROWS} == set(QUESTIONS)


@pytest.mark.parametrize(
    "question, params, field", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS]
)
def test_malformed_params_are_400_naming_the_field(client, question, params, field):
    # No ``wait``: a sweep (async by default) is refused before it is
    # queued, not accepted with a 202 and failed later.
    assert_invalid(*ask(client, question, params), field)


def test_every_wellformed_request_is_answered(client):
    """...by the same service, after the table above has run."""
    for name, params in WELLFORMED.items():
        status, body = ask(client, name, params, wait=True)
        assert status == 200 and body["status"] == "done", (name, body)
    status, body = ask(client, "routes", {})
    assert status == 200 and body["result"]["count"] > 0
    status, health = client.get("/healthz")
    assert status == 200 and health["status"] == "ok"


class TestProbesRecordedOnTheParent:
    """ISSUE 24's Motivation, NET1@2. Parent's answer in each docstring."""

    def test_misspelt_key(self, client):
        """200 with every route."""
        assert_invalid(*ask(client, "routes", {"nod": "x"}), "nod")

    def test_string_for_a_boolean(self, client):
        """200, and ran scoped: ``bool("false")``."""
        assert_invalid(*ask(client, "reachability", {"scoped": "false"}), "scoped")

    def test_string_for_the_sources_list(self, client):
        """200 with an empty verdict (one 'source' per character)."""
        assert_invalid(
            *ask(client, "reachability", {"sources": "net1-core0"}), "sources"
        )

    def test_source_on_no_device(self, client):
        """200 with an empty verdict."""
        assert_invalid(
            *ask(client, "reachability", {"sources": [["nope", None]]}), "sources"
        )

    def test_derivation_for_no_device(self, client):
        """200 with a derivation tree, while ``routes`` said 400."""
        params = {"node": "nope", "prefix": "10.16.0.4/30"}
        assert_invalid(*ask(client, "explain_route", params), "node")
        assert_invalid(*ask(client, "routes", {"node": "nope"}), "node")

    def test_string_for_the_protocols_list(self, client):
        """400, but about the letter: ``unknown protocol name 't'``."""
        status, body = ask(
            client, "reachability", {"headerspace": {"protocols": "tcp"}}
        )
        assert_invalid(status, body, "headerspace.protocols")
        assert "'tcp'" in body["error"]["message"]

    @pytest.mark.parametrize("question, params, field, reason", [
        ("lint", {"lintconfig": {"bogus": 1}}, "lintconfig", "bogus"),
        ("lint", {"jobs": 2}, "jobs", "unknown field"),
        ("sweep", {"k": 0}, "k", ">= 1"),
        ("sweep", {"kinds": ["link", "gremlin"]}, "kinds", "gremlin"),
        ("sweep", {"property": {"src_node": "net1-core0"}},
         "property.src_interface", "missing"),
    ])
    def test_lint_and_sweep_keep_their_reason(
        self, client, question, params, field, reason
    ):
        """400 whose message was ``ServiceError.__init__() takes 2
        positional arguments but 3 were given``."""
        status, body = ask(client, question, params, wait=True)
        assert_invalid(status, body, field)
        assert reason in body["error"]["message"]
        assert "positional" not in body["error"]["message"]

    def test_body_fields_are_decoded_like_params(self, client):
        """``timeout_s: "soon"`` killed the handler thread: a traceback in
        the server log and no HTTP reply."""
        for body, field in (
            ({"timeout_s": "soon"}, "timeout_s"),
            ({"timeout_s": -1}, "timeout_s"),
            ({"timeout_s": True}, "timeout_s"),
            ({"wait": "false"}, "wait"),
            ({"wait": 0}, "wait"),
            ({"parms": {}}, "parms"),
        ):
            assert_invalid(
                *client.post("/snapshots/lab/questions/routes", body), field
            )
        status, body = client.post(
            "/snapshots/lab/questions/routes", {"timeout_s": 30, "wait": True}
        )
        assert status == 200 and body["result"]["count"] > 0

    def test_snapshot_bodies_likewise(self, client):
        configs = {"r1.cfg": "hostname r1\n"}
        for body, field in (
            ({"name": "x", "configs": configs, "force": "false"}, "force"),
            ({"name": "x", "configs": configs, "settings": {"tempo": 1}},
             "settings.tempo"),
            ({"name": "x", "configs": configs, "settings": "fast"}, "settings"),
            ({"name": "x"}, "configs"),
            ({"configs": configs}, "name"),
            ({"name": "x", "configs": configs, "colour": "red"}, "colour"),
        ):
            assert_invalid(*client.post("/snapshots", body), field)
        assert_invalid(
            *client.request("PATCH", "/snapshots/lab", {"config": {}}), "config"
        )
        status, _ = client.get("/snapshots/x")
        assert status == 404
