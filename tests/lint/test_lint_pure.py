"""Lint is a function of the snapshot and nothing else: a cache-backed
session, a repeat call, an inert-delta child and a routing-delta child
all return what ``lint_snapshot`` returns on a from-scratch parse of the
same texts, and lint writes nothing to the snapshot cache. The delta
engine's question prioritization therefore never skips ``lint``: it
reads every device, whatever its coverage footprint says."""

import json

import pytest

from repro import Session, obs
from repro.config.loader import load_snapshot_from_texts
from repro.core.cache import SnapshotCache
from repro.delta.edits import irrelevant_edit, relevant_edit
from repro.lint import lint_snapshot, runner
from repro.lint.dataflow import graph as dataflow_graph
from repro.lint.dataflow import validate_containment
from repro.routing import policy
from repro.service.serialize import run_question
from repro.service.store import SnapshotStore
from repro.synth.networks import NETWORKS as NETWORKS_REGISTRY
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
    return findings(lint_snapshot(load_snapshot_from_texts(texts)))


@pytest.mark.parametrize("network", sorted(NETWORKS))
def test_session_lint_equals_lint_of_the_parsed_texts(network, tmp_path):
    texts = NETWORKS[network]()
    target = sorted(texts)[0]
    session = Session.from_texts(texts, cache=SnapshotCache(str(tmp_path)))
    expected = from_scratch(texts)
    assert findings(session.lint()) == expected
    assert findings(session.lint()) == expected

    for edit in (irrelevant_edit, relevant_edit):
        edited = {**texts, target: edit(texts[target])}
        child = session.delta({target: edited[target]})
        assert bool(child.delta_info.seeds) is (edit is relevant_edit)
        assert findings(child.lint()) == from_scratch(edited)

    kinds = {path.name.split("-", 1)[0] for path in tmp_path.rglob("*.pkl")}
    assert "snapshot" in kinds
    assert not kinds & {"lint", "dataflow"}


def test_routing_delta_child_reports_the_new_leak(tmp_path):
    """The differential above is not vacuous: on the chain, the routing
    edit changes lint's answer on a session that has linted before."""
    session = Session.from_texts(BASE, cache=SnapshotCache(str(tmp_path)))
    before = findings(session.lint())
    child = session.delta({"r1": BASE["r1"] + LEAKED_ROUTE})
    added = [f for f in findings(child.lint()) if f not in before]
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


# ----------------------------------------------------------------------
# The session's lint stage: built once, shared by every lint run on the
# session, equal to a from-scratch run.

REGISTRY = [spec.name for spec in NETWORKS_REGISTRY]


def as_json(value):
    return json.loads(json.dumps(value))


@pytest.fixture
def counted_builds(monkeypatch):
    """Counts of the dataflow fixpoint, layer-3 topology and BGP session
    set builds, wherever lint builds them."""
    counts = {"analyze": 0, "topology": 0, "bgp_sessions": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(runner, "analyze", counting("analyze", runner.analyze))
    for module in (runner, dataflow_graph):
        monkeypatch.setattr(
            module, "build_layer3_topology",
            counting("topology", module.build_layer3_topology),
        )
        monkeypatch.setattr(
            module, "compute_bgp_sessions",
            counting("bgp_sessions", module.compute_bgp_sessions),
        )
    return counts


@pytest.mark.parametrize("network", REGISTRY)
def test_session_stage_is_built_once_and_equals_a_fresh_run(
    network, counted_builds
):
    texts = network_by_name(network).generate(1)
    expected = as_json(
        lint_snapshot(load_snapshot_from_texts(texts)).to_json()["findings"]
    )
    assert counted_builds == {"analyze": 1, "topology": 1, "bgp_sessions": 1}
    store = SnapshotStore()
    store.init("lab", texts)
    session = store.get("lab")

    def lint_record():
        (record,) = [
            record for (question, _), record in session.coverage_records().items()
            if question == "lint"
        ]
        return record

    assert not session.lint_stage.has_dataflow
    vectors = []
    for _ in range(2):
        # The registry question first: its first run builds the stage.
        answer = run_question(store, "lab", "lint", {})
        assert as_json(answer["findings"]) == expected
        vectors.append(dict(lint_record()["vector"]))
        assert as_json(findings(session.lint())) == expected
    assert counted_builds == {"analyze": 2, "topology": 2, "bgp_sessions": 2}
    assert session.lint_stage.has_dataflow

    # A reused stage records what the built one did: the rules still
    # run, so the second (reusing) run adds exactly the first's touches
    # (none on a network without ACLs or route maps).
    assert lint_record()["runs"] == 2
    built = vectors[0]
    assert vectors[1] == {key: count * 2 for key, count in built.items()}


def test_a_config_without_dataflow_rules_builds_no_fixpoint(counted_builds):
    session = Session.from_texts(network_by_name("NET3").generate(1))
    config = {"rules": ["bgp-session-compat", "mtu-mismatch", "duplicate-ip"]}
    for _ in range(2):
        report = session.lint(config)
        assert report.dataflow is None
    assert not session.lint_stage.has_dataflow
    assert counted_builds == {"analyze": 0, "topology": 1, "bgp_sessions": 1}
    # A later full run builds the fixpoint, whose graph builds its own
    # inputs: still at most one of each per run.
    session.lint()
    assert counted_builds == {"analyze": 1, "topology": 2, "bgp_sessions": 2}


def test_a_delta_session_builds_its_own_stage(counted_builds):
    texts = network_by_name("NET10").generate(1)
    target = sorted(texts)[0]
    session = Session.from_texts(texts)
    session.lint()
    edited = {**texts, target: relevant_edit(texts[target])}
    child = session.delta({target: edited[target]})
    assert child.lint_stage is not session.lint_stage
    assert findings(child.lint()) == from_scratch(edited)
    assert counted_builds["analyze"] == 3  # base, child, scratch
    session.lint()
    child.lint()
    assert counted_builds["analyze"] == 3


def test_stage_counters_split_built_from_reused(metrics_mode):
    session = Session.from_texts(network_by_name("NET1").generate(1))
    first = session.lint()
    metrics = obs.metrics()
    assert metrics.counter("lint.dataflow.built") == 1
    assert metrics.counter("lint.dataflow.reused") == 0
    second = session.lint()
    assert metrics.counter("lint.dataflow.built") == 1
    assert metrics.counter("lint.dataflow.reused") == 1
    # A reuse reports the stage's fixpoint and observes no second cost.
    assert second.dataflow == first.dataflow
    assert metrics.bucket_histogram("lint.dataflow.fixpoint_seconds").count == 1
    assert metrics.bucket_histogram("lint.dataflow.iterations").count == 1


@pytest.mark.parametrize("network", REGISTRY)
def test_repeated_runs_leave_the_stage_engine_flat(network):
    session = Session.from_texts(network_by_name(network).generate(1))
    session.lint()
    session.lint()
    engine = session.lint_stage.dataflow.universe.engine
    settled = engine.stats()
    for _ in range(20):
        session.lint()
    assert engine.stats() == settled


@pytest.mark.parametrize("network", ["NET3", "NET10"])
def test_stage_passes_the_containment_differential(network):
    session = Session.from_texts(network_by_name(network).generate(1))
    session.lint()
    assert validate_containment(session.snapshot, session.lint_stage.dataflow) == []


def test_an_inert_delta_carries_the_stage(metrics_mode, counted_builds):
    """A delta whose edit moved no device's lint projection takes its
    base's stage: the child's first run builds nothing, and its findings
    are a scratch run's. A delta of that delta carries it on."""
    texts = network_by_name("NET10").generate(1)
    target = sorted(texts)[0]
    session = Session.from_texts(texts)
    session.lint()
    inert = {**texts, target: irrelevant_edit(texts[target])}
    child = session.delta({target: inert[target]})
    assert child.delta_info.stages["lint"] == "reused"
    assert child.lint_stage.snapshot is child.snapshot
    assert child.lint_stage.lock is session.lint_stage.lock
    assert findings(child.lint()) == from_scratch(inert)
    assert counted_builds["analyze"] == 2  # base, scratch
    grandchild = child.delta({target: inert[target] + "ntp server 203.0.113.251\n"})
    assert grandchild.delta_info.stages["lint"] == "reused"
    assert grandchild.lint_stage.lock is session.lint_stage.lock
    metrics = obs.metrics()
    assert metrics.counter("delta.stage.lint.reused") == 2
    assert metrics.counter("delta.stage.lint.recomputed") == 0


def test_a_moved_lint_projection_starts_a_new_stage(metrics_mode):
    """A line inserted at the top of a file moves every location in it,
    so the delta builds its own stage, and says why; a base that never
    linted offers none."""
    session = Session.from_texts(BASE)
    untouched = session.delta({"r3": BASE["r3"] + "ntp server 203.0.113.9\n"})
    assert "lint" not in untouched.delta_info.stages
    session.lint()
    shifted = {**BASE, "r2": "! moved down one line\n" + BASE["r2"]}
    child = session.delta({"r2": shifted["r2"]})
    assert child.delta_info.stages["lint"] == "recomputed (lint inputs of r2 changed)"
    assert child.lint_stage.lock is not session.lint_stage.lock
    ours, scratch = findings(child.lint()), from_scratch(shifted)
    assert ours == scratch
    assert ours != findings(session.lint())  # the r2 locations moved
    assert obs.metrics().counter("delta.stage.lint.recomputed") == 1


def test_a_warm_run_of_the_acl_rules_builds_no_line_space(monkeypatch):
    texts = network_by_name("NET8").generate(1)
    session = Session.from_texts(texts)
    built = []
    real = runner.line_space

    def counting(line, encoder):
        built.append(line)
        return real(line, encoder)

    monkeypatch.setattr(runner, "line_space", counting)
    config = {"rules": ["acl-line-unreachable", "acl-line-partially-shadowed"]}
    first = session.lint(config)
    lines = sum(
        len(acl.lines)
        for device in session.snapshot.devices.values()
        for acl in device.acls.values()
    )
    assert lines and len(built) == lines  # one space per line, both rules
    engine = session.lint_stage.packet_encoder.engine
    settled = engine.stats()
    for _ in range(3):
        assert findings(session.lint(config)) == findings(first)
    assert len(built) == lines
    assert engine.stats() == settled
    assert findings(first) == [
        f for f in from_scratch(texts) if f["rule"].startswith("acl-line-")
    ]


def test_each_route_map_compiles_once_into_the_stage_universe(monkeypatch):
    """The route-map rules and the fixpoint read one compiled summary per
    map from the stage's universe: a run of the two route-map rules
    compiles each of NET10's maps once, warm runs compile nothing and
    leave the universe's engine flat, and a later full lint compiles no
    map again. A fixpoint built after the clause rule reads its
    summaries too."""
    texts = network_by_name("NET10").generate(1)
    expected = from_scratch(texts)
    compiled = []
    real = policy.compile_policy

    def counting(universe, device, name):
        compiled.append((device.hostname, name))
        return real(universe, device, name)

    monkeypatch.setattr(policy, "compile_policy", counting)
    session = Session.from_texts(texts)
    maps = sorted(
        (device.hostname, name)
        for device in session.snapshot.devices.values()
        for name in device.route_maps
    )
    config = {"rules": ["route-map-clause-unreachable", "unreachable-policy-path"]}
    first = session.lint(config)
    assert maps and sorted(compiled) == maps
    stage = session.lint_stage
    assert stage.dataflow.universe is stage.universe
    settled = stage.universe.engine.stats()
    for _ in range(3):
        assert findings(session.lint(config)) == findings(first)
    assert sorted(compiled) == maps
    assert stage.universe.engine.stats() == settled
    assert findings(session.lint()) == expected
    assert sorted(compiled) == maps

    compiled.clear()
    later = Session.from_texts(texts)
    later.lint({"rules": ["route-map-clause-unreachable"]})
    assert sorted(compiled) == maps
    later.lint()
    assert sorted(compiled) == maps
