"""Instrumentation must never change analysis results.

The contract: tracing on, tracing off, or tracing pointed at a damaged
file all produce byte-identical pipeline outputs (pickled FIBs), and a
broken sink degrades silently instead of raising.
"""

import pytest

from repro import obs
from repro.config.loader import load_snapshot_from_texts
from repro.dataplane.fib import compute_fibs
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
def obs_clean():
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


class TestTracingInvariance:
    def test_fibs_identical_tracing_on_vs_off(self, tmp_path):
        baseline = fib_description()
        obs.enable(str(tmp_path / "trace.jsonl"))
        traced = fib_description()
        obs.flush()
        obs.disable()
        untraced_again = fib_description()
        assert baseline == traced == untraced_again

    def test_trace_file_to_unwritable_path_degrades_silently(self, tmp_path):
        baseline = fib_description()
        # Point the sink at a path inside a *file* (open() fails inside
        # enable -> must raise there, not corrupt analysis) — instead
        # simulate a sink dying mid-run: enable, then close the file
        # behind obs's back so every write errors.
        trace = tmp_path / "trace.jsonl"
        obs.enable(str(trace))
        from repro.obs import trace as trace_mod

        trace_mod._STATE.sink.close()  # sink now raises ValueError on write
        damaged = fib_description()
        assert damaged == baseline
        obs.disable()

    def test_corrupt_preexisting_trace_file_is_appended_not_parsed(self, tmp_path):
        # A half-written file from a crashed run must not affect a new
        # traced run: we only ever append.
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"type": "span", "name": "torn"\nGARBAGE\n')
        baseline = fib_description()
        obs.enable(str(trace))
        traced = fib_description()
        obs.flush()
        obs.disable()
        assert traced == baseline
        content = trace.read_text().splitlines()
        assert content[0].startswith('{"type": "span", "name": "torn"')
        assert content[1] == "GARBAGE"
        assert len(content) > 2  # new events appended after the damage

    def test_programmatic_tracing_does_not_change_answers(self, tmp_path):
        from repro.core.session import Session

        plain = Session.from_texts(CONFIGS)
        plain_answer = plain.reachability()
        plain_success = plain_answer.success_set()

        obs.enable(str(tmp_path / "trace.jsonl"))
        traced = Session(load_snapshot_from_texts(CONFIGS))
        traced_answer = traced.reachability()
        # BDD ids are engine-relative; compare via each engine's own
        # model count over the full success set.
        plain_count = plain.encoder.engine.sat_count(plain_success)
        traced_count = traced.encoder.engine.sat_count(
            traced_answer.success_set()
        )
        assert plain_count == traced_count
        obs.disable()
