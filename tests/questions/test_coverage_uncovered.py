"""Uncovered-stanza risk reporting and witness-packet generation: the
blind-spot report surfaces a genuinely unexercised ACL line on a
registry network, and the synthesized witness, when traced, exercises
exactly that line (asserted via the provenance step lines)."""

import pytest

from repro import obs
from repro.core.session import Session
from repro.findings import to_sarif
from repro.hdr.ip import Ip
from repro.hdr.packet import Packet
from repro.provenance import Flow
from repro.questions import coverage as qcov
from repro.synth.networks import NETWORKS

SHADOWED = """
hostname shade
interface Ethernet0
 ip address 10.0.0.1 255.255.255.0
 ip access-group BLOCKY in
!
ip access-list extended BLOCKY
 deny ip any any
 permit tcp any any eq 80
!
"""


@pytest.fixture(autouse=True)
def obs_clean():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def net1_session():
    spec = next(spec for spec in NETWORKS if spec.name == "NET1")
    return Session.from_texts(spec.generate(1))


def packet_from_witness(witness):
    raw = witness["packet"]
    return Packet(
        src_ip=Ip(raw["src_ip"]),
        dst_ip=Ip(raw["dst_ip"]),
        ip_protocol=raw["ip_protocol"],
        src_port=raw["src_port"],
        dst_port=raw["dst_port"],
    )


class TestUncoveredReport:
    def test_reachability_leaves_acl_lines_uncovered(self):
        """The acceptance path: reachability exercises every interface
        on NET1 but no ACL line, so the blind-spot report must surface
        SPUR_FILTER's lines with file:line provenance, risk-ranked
        ahead of interfaces."""
        session = net1_session()
        with session.question_scope("reachability", None):
            session.reachability()
        report = qcov.uncovered_stanzas(session)
        assert report.touched["interface"] == report.totals["interface"] > 0
        assert report.touched["acl_line"] == 0
        acl_stanzas = [s for s in report.stanzas if s.kind == "acl_line"]
        assert {(s.hostname, s.name, s.index) for s in acl_stanzas} == {
            ("net1-core0", "SPUR_FILTER", 0),
            ("net1-core0", "SPUR_FILTER", 1),
        }
        for stanza in acl_stanzas:
            assert stanza.source_file and stanza.source_line > 0
        # Risk order: ACL lines lead the ranked list.
        assert report.stanzas[0].kind == "acl_line"
        doc = report.to_json()
        assert doc["uncovered_total"] == len(report.stanzas)
        assert any(
            s["kind"] == "acl_line" and "source" in s for s in doc["stanzas"]
        )

    def test_lint_covers_the_acl_lines(self):
        session = net1_session()
        with session.question_scope("lint", None):
            session.lint()
        report = qcov.uncovered_stanzas(session)
        assert report.touched["acl_line"] == report.totals["acl_line"] == 2
        assert report.matrix()["lint"]["acl_line"]["ratio"] == 1.0


class TestWitnessGeneration:
    def test_witness_traced_exercises_exact_line(self):
        """Each reachable uncovered ACL line gets a concrete probe;
        tracing the probe from the suggested injection point must walk
        the ACL and match exactly the witnessed line."""
        session = net1_session()
        with session.question_scope("reachability", None):
            session.reachability()
        report = qcov.uncovered_stanzas(session, witnesses=8)
        witnessed = [
            s for s in report.stanzas
            if s.kind == "acl_line" and s.witness is not None
        ]
        assert witnessed, "reachable uncovered ACL lines must get witnesses"
        for stanza in witnessed:
            assert stanza.reachable is True
            inject = stanza.witness["inject"]
            assert inject["node"] == stanza.hostname
            device = session.snapshot.device(stanza.hostname)
            packet = packet_from_witness(stanza.witness)
            if inject["direction"] == "in":
                ingress = inject["interface"]
            else:
                ingress = next(
                    name for name in sorted(device.interfaces)
                    if name != inject["interface"]
                    and device.interfaces[name].prefix is not None
                    and not name.startswith("Loopback")
                )
            explanation = session.explain_flow(Flow(
                packet=packet,
                ingress_node=stanza.hostname,
                ingress_interface=ingress,
            ))
            expected = f"line {stanza.index} ["
            matched = [
                line
                for path in explanation.paths
                for hop in path.hops
                for step in hop.steps
                if step.kind == "acl" and stanza.name in step.detail
                for line in step.lines
                if line.startswith(expected) and "matched" in line
            ]
            assert matched, (
                f"witness for {stanza.label} did not exercise line "
                f"{stanza.index}: {explanation.paths}"
            )

    def test_shadowed_line_yields_no_witness(self):
        session = Session.from_texts({"shade": SHADOWED})
        device = session.snapshot.device("shade")
        assert qcov.witness_for_acl_line(device, "BLOCKY", 1) is None
        witness = qcov.witness_for_acl_line(device, "BLOCKY", 0)
        assert witness is not None
        assert witness["inject"]["direction"] == "in"

    def test_witness_budget_is_respected(self):
        session = net1_session()  # nothing run: everything uncovered
        report = qcov.uncovered_stanzas(session, witnesses=1)
        witnessed = [s for s in report.stanzas if s.witness is not None]
        assert len(witnessed) == 1


class TestCoverageGate:
    def test_gate_battery_measures_net1(self):
        spec = next(spec for spec in NETWORKS if spec.name == "NET1")
        measured = qcov.gate_battery(spec, scale=1)
        assert measured["reachability"]["interface"][0] > 0
        touched, total = measured["lint"]["acl_line"]
        assert touched == total == 2

    def test_gate_diff_exact_match_and_drift(self):
        baseline = {
            "schema": qcov.BASELINE_SCHEMA,
            "networks": {
                "NET1": {"lint": {"acl_line": [2, 2]}},
            },
        }
        assert qcov.gate_diff(baseline, {
            "NET1": {"lint": {"acl_line": [2, 2]}},
        }) == []
        drift = qcov.gate_diff(baseline, {
            "NET1": {"lint": {"acl_line": [1, 2]}},
            "NET9": {"lint": {"acl_line": [0, 0]}},
        })
        messages = [entry.message for entry in drift]
        assert any("baseline [2, 2] != current [1, 2]" in m for m in messages)
        assert any("NET9" in m and "missing from baseline" in m
                   for m in messages)
        assert all(entry.category == "coverage" for entry in drift)
        sarif = to_sarif(qcov.GATE_TOOL, [qcov.GATE_RULE], drift)
        assert sarif["version"] == "2.1.0"
        results = sarif["runs"][0]["results"]
        assert len(results) == len(drift)
        assert all(r["ruleId"] == "coverage-drift" for r in results)
        assert all(r["level"] == "error" for r in results)
        ratio = next(r for r in results if "question" in r["properties"])
        assert ratio["properties"]["baseline"] == [2, 2]
        assert ratio["properties"]["current"] == [1, 2]
