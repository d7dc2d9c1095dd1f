"""Provenance recording must never change analysis results.

Mirror of ``tests/obs/test_invariance.py`` for the provenance layer:
recording on, recording off, or an explain call in between all produce
byte-identical pipeline outputs (serialized FIBs) and identical query
answers. Recording is also required to restore the previous recorder on
exit — including across exceptions and nesting.
"""

import pytest

from repro import obs
from repro.config.loader import load_snapshot_from_texts
from repro.dataplane.fib import compute_fibs
from repro.provenance import record as prov
from repro.routing.engine import compute_dataplane

CONFIGS = {
    "edge.cfg": """
hostname edge
interface eth0
 ip address 10.0.0.1 255.255.255.0
 ip access-group EDGE_IN in
interface eth1
 ip address 10.0.12.1 255.255.255.0
ip route 10.0.2.0 255.255.255.0 10.0.12.2
ip access-list extended EDGE_IN
 deny tcp any any eq 23
 permit ip any any
router ospf 1
 network 10.0.12.0 0.0.0.255 area 0
""",
    "core.cfg": """
hostname core
interface eth0
 ip address 10.0.12.2 255.255.255.0
interface eth1
 ip address 10.0.2.1 255.255.255.0
router ospf 1
 network 10.0.12.0 0.0.0.255 area 0
 network 10.0.2.0 0.0.0.255 area 0
""",
}


@pytest.fixture(autouse=True)
def prov_clean():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def fib_description() -> bytes:
    """Deterministic byte serialization of the pipeline's FIBs."""
    snapshot = load_snapshot_from_texts(CONFIGS)
    dataplane = compute_dataplane(snapshot)
    fibs = compute_fibs(dataplane)
    lines = []
    for hostname in sorted(fibs):
        lines.append(hostname)
        for prefix, entries in fibs[hostname].entries():
            for rendered in sorted(entry.describe() for entry in entries):
                lines.append(f"  {prefix}: {rendered}")
    return "\n".join(lines).encode()


class TestRecordingInvariance:
    def test_fibs_identical_recording_on_vs_off(self):
        baseline = fib_description()
        with prov.recording() as recorder:
            recorded = fib_description()
        unrecorded_again = fib_description()
        assert baseline == recorded == unrecorded_again
        assert len(recorder) > 0  # the recording did capture derivations

    def test_recording_restores_previous_state_on_exception(self):
        assert not prov.enabled()
        with pytest.raises(RuntimeError):
            with prov.recording():
                assert prov.enabled()
                raise RuntimeError("boom")
        assert not prov.enabled()
        assert prov.recorder() is None

    def test_nested_recordings_compose(self):
        with prov.recording() as outer:
            prov.route_event("a", "10.0.0.0/24", "static", "installed", "x")
            with prov.recording() as inner:
                prov.route_event("b", "10.0.0.0/24", "static", "installed", "y")
            # Inner recording must not leak into the outer one, and the
            # outer recorder must be live again after the inner exits.
            prov.route_event("a", "10.0.1.0/24", "static", "installed", "z")
        assert [e.node for e in outer.events] == ["a", "a"]
        assert [e.node for e in inner.events] == ["b"]

    def test_query_answers_identical_with_and_without_explain(self):
        from repro.core.session import Session

        plain = Session.from_texts(CONFIGS)
        plain_count = plain.encoder.engine.sat_count(
            plain.reachability().success_set()
        )

        explained = Session.from_texts(CONFIGS)
        tree = explained.explain_route("edge", "10.0.2.0/24")
        assert not tree.empty
        explained_count = explained.encoder.engine.sat_count(
            explained.reachability().success_set()
        )
        assert plain_count == explained_count
        assert not prov.enabled()  # explain left recording off

    def test_recording_emits_obs_counters_when_tracing(self, tmp_path):
        obs.enable(str(tmp_path / "trace.jsonl"))
        with prov.recording():
            prov.route_event("a", "10.0.0.0/24", "static", "installed", "x")
        counters = obs.metrics_dump()["counters"]
        assert counters.get("provenance.recordings") == 1
        assert counters.get("provenance.route_events") == 1

    def test_disabled_recording_records_nothing(self):
        assert not prov.enabled()
        prov.route_event("a", "10.0.0.0/24", "static", "installed", "x")
        assert prov.recorder() is None
