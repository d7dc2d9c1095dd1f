"""ACL line-reachability rules, verified differentially.

The lab ACL is purpose-built: one fully-shadowed line, one
partially-shadowed line, plus healthy lines. The rule output is checked
line-by-line against an independent brute-force computation (per-line
BDD subtraction of the union of all earlier lines), and the witnesses
are checked semantically: the union of the blamed lines must actually
cover the shadowed space.
"""

import pytest

from repro.bdd.engine import FALSE
from repro.config.loader import load_snapshot_from_texts
from repro.dataplane.acl import line_space
from repro.hdr.headerspace import PacketEncoder
from repro.lint import get_rule
from repro.questions.filters import unreachable_filter_lines
from repro.synth.networks import network_by_name

LAB = {
    "lab": """
hostname lab
interface Ethernet0
 ip address 10.0.0.1 255.255.255.0
 ip access-group LAB in
ip access-list extended LAB
 permit tcp 10.1.0.0 0.0.255.255 any eq 80
 deny tcp 10.1.2.0 0.0.0.255 any eq 80
 permit udp 10.2.0.0 0.0.255.255 any
 deny ip 10.2.3.0 0.0.0.255 any
 permit icmp any any
""",
}


@pytest.fixture(scope="module")
def lab_snapshot():
    return load_snapshot_from_texts(LAB)


def brute_force_line_status(snapshot):
    """Independent per-line reachability: effective space is the line's
    space minus the union (or_all) of ALL earlier lines — no sequential
    residual bookkeeping shared with the rule implementation."""
    encoder = PacketEncoder()
    engine = encoder.engine
    unreachable, partial = set(), set()
    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        for acl_name, acl in sorted(device.acls.items()):
            spaces = [line_space(line, encoder) for line in acl.lines]
            for index, space in enumerate(spaces):
                union_earlier = engine.or_all(spaces[:index])
                effective = engine.diff(space, union_earlier)
                if effective == FALSE:
                    unreachable.add((hostname, acl_name, index))
                elif effective != space:
                    partial.add((hostname, acl_name, index))
    return unreachable, partial


def rule_blame(snapshot):
    """``{(hostname, acl, line): [blamed line, ...]}`` from the
    ``acl-line-unreachable`` findings' related locations."""
    index_of = {}
    for hostname in snapshot.hostnames():
        for acl_name, acl in snapshot.device(hostname).acls.items():
            for index, line in enumerate(acl.lines):
                index_of[(hostname, line.source_line)] = (acl_name, index)
    blame = {}
    for finding in get_rule("acl-line-unreachable").run(snapshot):
        acl_name, index = index_of[(finding.hostname, finding.location.line)]
        blame[(finding.hostname, acl_name, index)] = [
            index_of[(finding.hostname, related.location.line)][1]
            for related in finding.related
        ]
    return blame


def question_blame(snapshot):
    """The same map from the ``unreachable_filter_lines`` question."""
    return {
        (row.hostname, row.filter_name, row.line_index): row.blocking_lines
        for row in unreachable_filter_lines(snapshot)
    }


def findings_as_line_keys(snapshot, rule_id):
    """Map rule findings back to (hostname, acl, line_index) through
    their source locations."""
    by_location = {}
    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        for acl_name, acl in device.acls.items():
            for index, line in enumerate(acl.lines):
                key = (hostname, line.source_file, line.source_line)
                by_location[key] = (hostname, acl_name, index)
    keys = set()
    for finding in get_rule(rule_id).run(snapshot):
        key = (finding.hostname, finding.location.file, finding.location.line)
        assert key in by_location, f"finding at unknown location {key}"
        keys.add(by_location[key])
    return keys


class TestLab:
    def test_fully_shadowed_line_reported(self, lab_snapshot):
        keys = findings_as_line_keys(lab_snapshot, "acl-line-unreachable")
        assert ("lab", "LAB", 1) in keys
        # Healthy lines are not flagged.
        assert ("lab", "LAB", 0) not in keys
        assert ("lab", "LAB", 2) not in keys

    def test_partially_shadowed_line_reported(self, lab_snapshot):
        keys = findings_as_line_keys(lab_snapshot, "acl-line-partially-shadowed")
        assert ("lab", "LAB", 3) in keys
        assert ("lab", "LAB", 0) not in keys

    def test_unreachable_witness_names_shadowing_line(self, lab_snapshot):
        findings = get_rule("acl-line-unreachable").run(lab_snapshot)
        device = lab_snapshot.device("lab")
        acl = device.acls["LAB"]
        target = [
            f
            for f in findings
            if f.location.line == acl.lines[1].source_line
        ]
        assert len(target) == 1
        witness_lines = {rel.location.line for rel in target[0].related}
        assert witness_lines == {acl.lines[0].source_line}

    def test_partial_witness_names_overlapping_line(self, lab_snapshot):
        findings = get_rule("acl-line-partially-shadowed").run(lab_snapshot)
        device = lab_snapshot.device("lab")
        acl = device.acls["LAB"]
        target = [
            f
            for f in findings
            if f.location.line == acl.lines[3].source_line
        ]
        assert len(target) == 1
        witness_lines = {rel.location.line for rel in target[0].related}
        assert acl.lines[2].source_line in witness_lines

    def test_question_blames_the_rule_witness_lines(self, lab_snapshot):
        """The question and the rule walk one helper: the question's
        ``blocking_lines`` are the rule's related lines, in order."""
        blame = rule_blame(lab_snapshot)
        assert blame == {("lab", "LAB", 1): [0]}
        assert question_blame(lab_snapshot) == blame

    def test_witnesses_cover_shadowed_space(self, lab_snapshot):
        """Semantic witness check: the union of blamed lines really does
        absorb everything the flagged line lost."""
        encoder = PacketEncoder()
        engine = encoder.engine
        device = lab_snapshot.device("lab")
        acl = device.acls["LAB"]
        spaces = [line_space(line, encoder) for line in acl.lines]
        line_by_source = {
            line.source_line: index for index, line in enumerate(acl.lines)
        }
        for finding in get_rule("acl-line-unreachable").run(lab_snapshot):
            index = line_by_source[finding.location.line]
            if spaces[index] == FALSE:
                continue
            witness_union = engine.or_all(
                [
                    spaces[line_by_source[rel.location.line]]
                    for rel in finding.related
                ]
            )
            assert engine.diff(spaces[index], witness_union) == FALSE


class TestDifferential:
    @pytest.mark.parametrize("source", ["lab", "NET3", "NET8"])
    def test_rule_matches_brute_force(self, source, lab_snapshot):
        if source == "lab":
            snapshot = lab_snapshot
        else:
            snapshot = load_snapshot_from_texts(
                network_by_name(source).generate(1)
            )
        expected_unreachable, expected_partial = brute_force_line_status(
            snapshot
        )
        assert (
            findings_as_line_keys(snapshot, "acl-line-unreachable")
            == expected_unreachable
        )
        assert (
            findings_as_line_keys(snapshot, "acl-line-partially-shadowed")
            == expected_partial
        )
