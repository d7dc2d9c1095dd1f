"""Tests for the fidelity frameworks: ground-truth labs (§4.3.1) and
differential engine testing (§4.3.2)."""

import pytest

from repro.config.loader import load_snapshot_from_texts
from repro.fidelity.differential import (
    run_differential_suite,
    validate_concrete_against_symbolic,
    validate_fates_against_concrete,
    validate_symbolic_against_concrete,
)
from repro.fidelity.labs import (
    ExpectedTrace,
    Lab,
    LabRepository,
    RuntimeState,
    collect_runtime_state,
)
from repro.fidelity.reference_labs import (
    OSPF_LAB_CONFIGS,
    build_reference_repository,
)
from repro.reachability.queries import NetworkAnalyzer
from repro.routing.engine import compute_dataplane
from repro.synth.fattree import fattree
from repro.synth.special import net1
from repro.traceroute.engine import TracerouteEngine


class TestReferenceLabs:
    def test_all_reference_labs_pass(self):
        """The daily validation job: every lab's model state must match
        its recorded ground truth."""
        repository = build_reference_repository()
        report = repository.run()
        assert report.labs_run == 6
        assert report.checks > 0
        assert report.passed, [f.detail for f in report.failures]

    def test_single_lab_selection(self):
        repository = build_reference_repository()
        report = repository.run("ospf-basic")
        assert report.labs_run == 1
        assert report.passed

    def test_duplicate_lab_rejected(self):
        repository = build_reference_repository()
        with pytest.raises(ValueError):
            repository.register(repository.labs()[0])

    def test_route_regression_detected(self):
        """Tamper with the recorded state: the framework must flag it."""
        repository = LabRepository()
        broken = RuntimeState(
            routes={"r1": ["connected 10.0.0.0/30 via e0"]}  # incomplete
        )
        repository.register(
            Lab(
                name="broken",
                description="deliberately wrong golden state",
                configs=OSPF_LAB_CONFIGS,
                expected=broken,
            )
        )
        report = repository.run()
        assert not report.passed
        assert report.failures[0].kind == "routes"
        assert "missing" in report.failures[0].detail

    def test_trace_regression_detected(self):
        from repro.hdr.ip import Ip
        from repro.hdr.packet import Packet
        from repro.reachability.graph import Disposition

        repository = LabRepository()
        wrong_trace = RuntimeState(
            routes={},
            traces=[
                ExpectedTrace(
                    packet=Packet(
                        src_ip=Ip("172.16.1.10"), dst_ip=Ip("172.16.2.10"),
                    ),
                    start_node="r1",
                    start_interface="lan",
                    disposition=Disposition.DENIED_IN,  # wrong on purpose
                )
            ],
        )
        repository.register(
            Lab(
                name="wrong-trace",
                description="deliberately wrong trace golden",
                configs=OSPF_LAB_CONFIGS,
                expected=wrong_trace,
            )
        )
        report = repository.run()
        assert not report.passed
        assert report.failures[0].kind == "trace"

    def test_collect_runtime_state_shape(self):
        state = collect_runtime_state(OSPF_LAB_CONFIGS)
        assert set(state.routes) == {"r1", "r2"}
        assert all(routes for routes in state.routes.values())


class TestDifferentialTesting:
    @pytest.fixture(scope="class")
    def analyzer(self):
        dataplane = compute_dataplane(load_snapshot_from_texts(net1(3)))
        return NetworkAnalyzer(dataplane)

    @pytest.fixture(scope="class")
    def tracer(self, analyzer):
        return TracerouteEngine(analyzer.dataplane, analyzer.fibs)

    def test_symbolic_verified_by_concrete(self, analyzer, tracer):
        report = validate_symbolic_against_concrete(analyzer, tracer)
        assert report.checks > 0
        assert report.passed, [m.describe() for m in report.mismatches]

    def test_concrete_verified_by_symbolic(self, analyzer, tracer):
        report = validate_concrete_against_symbolic(analyzer, tracer)
        assert report.checks > 0
        assert report.passed, [m.describe() for m in report.mismatches]

    def test_fates_verified_by_concrete(self, analyzer, tracer):
        report = validate_fates_against_concrete(analyzer, tracer)
        sources = analyzer.graph.source_nodes()
        # One check per (source, fate that some packet can meet from
        # there); NET1's ACL and discard routes make failures part of it.
        assert report.checks == sum(
            1
            for arriving in analyzer.fates().values()
            for source in sources
            if arriving.get(source, 0)
        )
        assert {"denied-out", "null-routed"} <= {
            fate.value for fate in analyzer.fates()
        }
        assert report.passed, [m.describe() for m in report.mismatches]

    def test_wrong_failure_fate_is_caught_by_the_fates_direction_only(self):
        """The concrete engine loses the one ACL after the graph was
        compiled with it: every delivery the symbolic engine claims
        still happens and port-80 probes never met the ACL, so the two
        older directions stay green; only asking about ``denied-out``
        shows the engines disagree."""
        dataplane = compute_dataplane(load_snapshot_from_texts(net1(3)))
        analyzer = NetworkAnalyzer(dataplane)
        tracer = TracerouteEngine(dataplane, analyzer.fibs)
        for iface in dataplane.snapshot.device("net1-core0").interfaces.values():
            iface.outgoing_acl = None
        assert validate_symbolic_against_concrete(analyzer, tracer).passed
        assert validate_concrete_against_symbolic(analyzer, tracer).passed
        report = validate_fates_against_concrete(analyzer, tracer)
        assert report.mismatches
        assert {m.expected for m in report.mismatches} == {"denied-out"}
        assert not run_differential_suite(analyzer, tracer).passed

    def test_full_suite_on_bgp_network(self):
        """Cross-validation over a BGP fat-tree (multipath + ACLs)."""
        dataplane = compute_dataplane(
            load_snapshot_from_texts(fattree(4, with_acls=True))
        )
        analyzer = NetworkAnalyzer(dataplane)
        report = run_differential_suite(
            analyzer, TracerouteEngine(dataplane, analyzer.fibs)
        )
        assert report.checks > 100
        assert report.passed, [m.describe() for m in report.mismatches[:5]]

    def test_injected_bug_is_caught(self):
        """Sabotage the symbolic graph: the cross-validation must notice
        (this is the §4.3.2 value proposition)."""
        from repro.bdd.engine import FALSE
        from repro.reachability.graph import Constraint

        dataplane = compute_dataplane(load_snapshot_from_texts(net1(3)))
        analyzer = NetworkAnalyzer(dataplane)
        # Corrupt one forwarding edge: claim some prefix is unreachable.
        engine = analyzer.encoder.engine
        sabotaged = 0
        for edge in analyzer.graph.edges:
            if isinstance(edge.fn, Constraint) and edge.tail[0] == "egress":
                edge.fn.label = engine.and_(
                    edge.fn.label,
                    engine.not_(
                        analyzer.encoder.ip_in_prefix("dst_ip", "172.19.0.0/24")
                    ),
                )
                sabotaged += 1
        assert sabotaged
        tracer = TracerouteEngine(dataplane, analyzer.fibs)
        report = validate_concrete_against_symbolic(analyzer, tracer)
        assert not report.passed
