"""Lint is a function of the snapshot and nothing else: a cache-backed
session, a repeat call, an inert-delta child and a routing-delta child
all return what ``lint_snapshot`` returns on a from-scratch parse of the
same texts, and lint writes nothing to the snapshot cache. The delta
engine's question prioritization therefore never skips ``lint``: it
reads every device, whatever its coverage footprint says."""

import pytest

from repro import Session, obs
from repro.config.loader import load_snapshot_from_texts
from repro.core.cache import SnapshotCache
from repro.delta.edits import irrelevant_edit, relevant_edit
from repro.lint import lint_snapshot
from repro.service.serialize import run_question
from repro.service.store import SnapshotStore
from repro.synth.networks import network_by_name

#: A three-AS chain (r1 -- r2 -- r3) with redistribution at one end and
#: a route-map in the middle, so edits interact with every edge kind.
BASE = {
    "r1": """
hostname r1
interface Ethernet0
 ip address 10.0.12.1 255.255.255.0
 no shutdown
ip route 10.9.1.0 255.255.255.0 Null0
router bgp 65001
 redistribute static
 network 10.1.0.0 mask 255.255.255.0
 neighbor 10.0.12.2 remote-as 65002
""",
    "r2": """
hostname r2
interface Ethernet0
 ip address 10.0.12.2 255.255.255.0
 no shutdown
interface Ethernet1
 ip address 10.0.23.2 255.255.255.0
 no shutdown
ip prefix-list TEN seq 5 permit 10.0.0.0/8 le 32
route-map TO_R3 permit 10
 match ip address prefix-list TEN
router bgp 65002
 network 10.2.0.0 mask 255.255.255.0
 neighbor 10.0.12.1 remote-as 65001
 neighbor 10.0.23.3 remote-as 65003
 neighbor 10.0.23.3 route-map TO_R3 out
""",
    "r3": """
hostname r3
interface Ethernet0
 ip address 10.0.23.3 255.255.255.0
 no shutdown
router bgp 65003
 network 10.3.0.0 mask 255.255.255.0
 neighbor 10.0.23.2 remote-as 65002
""",
}

#: Redistributed by r1 and leaked through r2 to r3: a routing edit whose
#: lint consequence shows up two devices away from the edited one.
LEAKED_ROUTE = "ip route 10.9.2.0 255.255.255.0 Null0\n"

NETWORKS = {
    "NET1": lambda: network_by_name("NET1").generate(1),
    "NET5": lambda: network_by_name("NET5").generate(1),
    "chain": lambda: dict(BASE),
}


def findings(report):
    return [finding.to_json() for finding in report.findings]


def from_scratch(texts):
    return findings(lint_snapshot(load_snapshot_from_texts(texts), jobs=1))


@pytest.mark.parametrize("network", sorted(NETWORKS))
def test_session_lint_equals_lint_of_the_parsed_texts(network, tmp_path):
    texts = NETWORKS[network]()
    target = sorted(texts)[0]
    session = Session.from_texts(texts, cache=SnapshotCache(str(tmp_path)))
    expected = from_scratch(texts)
    assert findings(session.lint(jobs=1)) == expected
    assert findings(session.lint(jobs=1)) == expected

    for edit in (irrelevant_edit, relevant_edit):
        edited = {**texts, target: edit(texts[target])}
        child = session.delta({target: edited[target]})
        assert bool(child.delta_info.seeds) is (edit is relevant_edit)
        assert findings(child.lint(jobs=1)) == from_scratch(edited)

    kinds = {path.name.split("-", 1)[0] for path in tmp_path.rglob("*.pkl")}
    assert "snapshot" in kinds
    assert not kinds & {"lint", "dataflow"}


def test_routing_delta_child_reports_the_new_leak(tmp_path):
    """The differential above is not vacuous: on the chain, the routing
    edit changes lint's answer on a session that has linted before."""
    session = Session.from_texts(BASE, cache=SnapshotCache(str(tmp_path)))
    before = findings(session.lint(jobs=1))
    child = session.delta({"r1": BASE["r1"] + LEAKED_ROUTE})
    added = [f for f in findings(child.lint(jobs=1)) if f not in before]
    assert {(f["rule"], f["severity"]) for f in added} == {
        ("route-leak", "error")
    }
    assert all("10.9.2.0/24" in f["message"] for f in added)
    # ... also on devices the edit did not touch.
    assert {f["node"] for f in added} == {"r1", "r2", "r3"}


@pytest.fixture
def metrics_mode():
    obs.disable()
    obs.reset()
    obs.enable_metrics()
    yield
    obs.disable()
    obs.reset()


def test_delta_never_lists_lint_as_skipped(metrics_mode, tmp_path):
    """Regression: lint was config-scoped, so a routing edit on a device
    outside its recorded coverage footprint listed it under
    ``questions_skipped`` ("the base answer still holds") although
    re-running it yields a new route-leak ERROR."""
    store = SnapshotStore(SnapshotCache(str(tmp_path)))
    store.init("lab", BASE)
    before = run_question(store, "lab", "lint", {})["findings"]

    store.patch("lab", {"r1": BASE["r1"] + LEAKED_ROUTE})
    info = store.get("lab").delta_info
    assert [e["question"] for e in info.questions_skipped] == []
    assert [e["question"] for e in info.questions_affected] == ["lint"]
    assert [e["scope"] for e in info.questions_affected] == ["global"]

    after = run_question(store, "lab", "lint", {})["findings"]
    assert after != before
    assert any(
        f["rule"] == "route-leak" and "10.9.2.0/24" in f["message"]
        for f in after
    )
