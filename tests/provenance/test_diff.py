"""First-divergence diffing and the imperative-vs-Datalog fidelity check.

Unit-level coverage of :func:`first_divergence` plus the end-to-end
direction: :func:`validate_imperative_against_datalog` passes on NET1
(where both engines agree) and, on a network deliberately outside the
Datalog model's feature set (a static route whose next hop must be
resolved recursively through OSPF), produces a mismatch whose report
carries both provenance trees and a located first divergence.
"""

import pytest

from repro import obs
from repro.config.loader import load_snapshot_from_texts
from repro.fidelity.differential import validate_imperative_against_datalog
from repro.provenance import record as prov
from repro.provenance.diff import (
    Divergence,
    first_divergence,
    render_divergence_report,
)
from repro.provenance.model import DerivationNode, DerivationTree
from repro.synth.special import net1


@pytest.fixture(autouse=True)
def clean():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def tree(root: DerivationNode) -> DerivationTree:
    return DerivationTree(node="n", prefix="10.0.0.0/24", root=root, events=())


def node(label: str, *children: DerivationNode) -> DerivationNode:
    made = DerivationNode(label=label, kind="test")
    for child in children:
        made.children.append(child)
    return made


class TestFirstDivergence:
    def test_identical_trees_have_no_divergence(self):
        left = tree(node("root", node("a", node("b"))))
        right = tree(node("root", node("a", node("b"))))
        assert first_divergence(left, right) is None

    def test_differing_root_labels_alone_are_not_a_divergence(self):
        # Roots name the engines ("imperative fib: ..." vs "datalog
        # Forward: ...") and always differ textually.
        left = tree(node("imperative engine", node("a")))
        right = tree(node("datalog engine", node("a")))
        assert first_divergence(left, right) is None

    def test_differing_child_is_located(self):
        left = tree(node("root", node("a", node("via r2"))))
        right = tree(node("root", node("a", node("via r3"))))
        divergence = first_divergence(left, right)
        assert divergence is not None
        assert divergence.left == "via r2"
        assert divergence.right == "via r3"
        assert divergence.path[-1] == "a"

    def test_extra_child_reports_absent_side(self):
        left = tree(node("root", node("a"), node("b")))
        right = tree(node("root", node("a")))
        divergence = first_divergence(left, right)
        assert divergence is not None
        assert divergence.left == "b"
        assert divergence.right is None

    def test_missing_child_reports_other_absent_side(self):
        left = tree(node("root", node("a")))
        right = tree(node("root", node("a"), node("b")))
        divergence = first_divergence(left, right)
        assert divergence is not None
        assert divergence.left is None
        assert divergence.right == "b"

    def test_render_report_contains_both_trees_and_location(self):
        left = tree(node("root", node("a", node("via r2"))))
        right = tree(node("root", node("a", node("via r3"))))
        divergence = first_divergence(left, right)
        report = render_divergence_report(left, right, divergence)
        assert "first divergence at" in report
        assert "-- left tree --" in report
        assert "-- right tree --" in report
        assert "via r2" in report and "via r3" in report

    def test_describe_handles_absent_sides(self):
        divergence = Divergence(path=("root",), left="x", right=None)
        assert "(absent)" in divergence.describe()


class TestImperativeVsDatalog:
    def test_net1_engines_agree(self):
        snapshot = load_snapshot_from_texts(net1(num_spurs=3))
        report = validate_imperative_against_datalog(snapshot)
        assert report.passed
        assert report.checks > 0
        assert report.mismatches == []
        assert "agree" in report.describe()

    def test_bgp_route_forces_located_mismatch(self):
        # r1 learns 192.168.50.0/24 from r2 over eBGP. The imperative
        # engine supports BGP and forwards; the original Datalog model
        # predates BGP support entirely, so it derives no Forward tuple
        # for that prefix. The disagreement must surface as a mismatch
        # carrying both derivation trees and a located first divergence.
        configs = {
            "r1.cfg": """
hostname r1
interface eth0
 ip address 10.0.12.1 255.255.255.0
router bgp 65001
 bgp router-id 1.1.1.1
 neighbor 10.0.12.2 remote-as 65002
""",
            "r2.cfg": """
hostname r2
interface eth0
 ip address 10.0.12.2 255.255.255.0
interface eth1
 ip address 192.168.50.1 255.255.255.0
router bgp 65002
 bgp router-id 2.2.2.2
 neighbor 10.0.12.1 remote-as 65001
 network 192.168.50.0 mask 255.255.255.0
""",
        }
        snapshot = load_snapshot_from_texts(configs)
        report = validate_imperative_against_datalog(snapshot)
        assert not report.passed
        targets = [
            m
            for m in report.mismatches
            if m.node == "r1" and m.prefix == "192.168.50.0/24"
        ]
        assert targets, report.describe()
        mismatch = targets[0]
        assert mismatch.imperative_next_hops
        assert not mismatch.datalog_next_hops
        assert not mismatch.imperative_tree.empty
        assert mismatch.divergence is not None
        described = mismatch.describe()
        assert "first divergence" in described
        assert "-- left tree --" in described and "-- right tree --" in described
        assert "first divergence" in report.describe()

    def test_validation_leaves_recording_disabled(self):
        snapshot = load_snapshot_from_texts(net1(num_spurs=2))
        validate_imperative_against_datalog(snapshot)
        assert not prov.enabled()
        assert prov.recorder() is None
