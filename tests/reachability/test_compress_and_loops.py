"""Tests for graph compression, loop detection, and propagation units."""

from types import SimpleNamespace

import pytest

from repro.bdd.engine import FALSE, TRUE, BddEngine
from repro.config.loader import load_snapshot_from_texts
from repro.core.session import Session
from repro.delta.edits import relevant_edit
from repro.delta.engine import graph_lines
from repro.hdr.headerspace import PacketEncoder
from repro.reachability.bddreach import propagate
from repro.reachability.compress import CompressionStats, _compose, compress_edges
from repro.reachability.graph import (
    Compose,
    Constraint,
    Edge,
    ForwardingGraph,
    Identity,
    Segment,
)
from repro.reachability.queries import NetworkAnalyzer
from repro.routing.engine import compute_dataplane
from repro.synth.networks import NETWORKS, network_by_name

LOOP_NET = {
    "a": """
hostname a
interface i0
 ip address 10.0.0.1 255.255.255.0
interface host
 ip address 172.16.0.1 255.255.255.0
ip route 192.168.0.0 255.255.0.0 10.0.0.2
""",
    "b": """
hostname b
interface i0
 ip address 10.0.0.2 255.255.255.0
ip route 192.168.0.0 255.255.0.0 10.0.0.1
""",
}


class TestPropagationUnits:
    def _tiny_graph(self):
        encoder = PacketEncoder()
        constraint = encoder.ip_in_prefix("dst_ip", "10.0.0.0/8")
        graph = ForwardingGraph({"a": Segment((
            Edge(("src", "a", "i0"), ("mid", "a"), Identity()),
            Edge(("mid", "a"), ("sink", "b", "i0"), Constraint(constraint, "tens only")),
        ), {})})
        return encoder, graph, constraint

    def test_forward_respects_constraints(self):
        encoder, graph, constraint = self._tiny_graph()
        reach = propagate(graph, encoder, {("src", "a", "i0"): TRUE})
        assert reach[("sink", "b", "i0")] == constraint

    def test_forward_from_empty_source(self):
        encoder, graph, _ = self._tiny_graph()
        reach = propagate(graph, encoder, {("src", "a", "i0"): FALSE})
        assert ("sink", "b", "i0") not in reach

    def test_backward_is_preimage(self):
        encoder, graph, constraint = self._tiny_graph()
        reach = propagate(graph, encoder, {("sink", "b", "i0"): TRUE}, backward=True)
        assert reach[("src", "a", "i0")] == constraint

    def test_cycle_terminates(self):
        encoder = PacketEncoder()
        graph = ForwardingGraph({
            "a": Segment((Edge(("fwd", "a"), ("fwd", "b"), Identity()),), {}),
            "b": Segment((Edge(("fwd", "b"), ("fwd", "a"), Identity()),), {}),
        })
        reach = propagate(graph, encoder, {("fwd", "a"): TRUE})
        assert reach[("fwd", "b")] == TRUE


class TestCompose:
    def test_constraint_fusion(self):
        engine = BddEngine(8)
        a = Constraint(engine.var(0), "a")
        b = Constraint(engine.var(1), "b")
        fused = _compose(engine, a, b)
        assert isinstance(fused, Constraint)
        assert fused.label == engine.and_(engine.var(0), engine.var(1))

    def test_identity_elimination(self):
        engine = BddEngine(8)
        a = Constraint(engine.var(0), "a")
        assert _compose(engine, Identity(), a) is a
        assert _compose(engine, a, Identity()) is a

    def test_compose_forward_backward(self):
        encoder = PacketEncoder()
        engine = encoder.engine
        chain = Compose([Constraint(engine.var(0), ""), Constraint(engine.var(1), "")])
        result = chain.forward(encoder, TRUE)
        assert result == engine.and_(engine.var(0), engine.var(1))
        assert chain.backward(encoder, TRUE) == result
        assert ";" in chain.describe()


class TestCompression:
    def test_stats_and_invariance(self):
        dataplane = compute_dataplane(load_snapshot_from_texts(LOOP_NET))
        raw = NetworkAnalyzer(dataplane, compress=False)
        compressed = NetworkAnalyzer(
            dataplane, compress=True, encoder=raw.encoder, fibs=raw.fibs
        )
        stats = compressed.compression
        assert stats.nodes_before >= stats.nodes_after
        assert stats.edges_before >= stats.edges_after
        # Same answers from both graphs.
        for source in raw.graph.source_nodes():
            a = raw.reachability({source: TRUE})
            b = compressed.reachability({source: TRUE})
            assert a.success_set() == b.success_set()
            assert a.failure_set() == b.failure_set()

    def test_sources_and_sinks_survive(self):
        dataplane = compute_dataplane(load_snapshot_from_texts(LOOP_NET))
        analyzer = NetworkAnalyzer(dataplane, compress=True)
        kinds = {node[0] for node in analyzer.graph.nodes}
        assert "src" in kinds and "disp" in kinds


@pytest.mark.parametrize("name", [spec.name for spec in NETWORKS])
def test_compression_decomposes_by_device(name):
    """Compressing the whole edge list in one call and compressing each
    device's segment on its own give the same edges, in the same order,
    and the same summed stats: what the analyzer does, and what lets a
    delta take the base's compressed segments."""
    configs = network_by_name(name).generate(1)
    session = Session.from_texts(configs)
    raw = NetworkAnalyzer(session.dataplane, fibs=session.fibs, compress=False)
    engine = raw.encoder.engine
    whole, whole_stats = compress_edges(raw.graph.edges, engine)
    parts = [
        compress_edges(segment.edges, engine) for segment in raw.graph.segments.values()
    ]
    joined = [edge for edges, _stats in parts for edge in edges]

    def lines(edges):
        return graph_lines(SimpleNamespace(encoder=raw.encoder, graph=SimpleNamespace(edges=edges)))

    assert lines(joined) == lines(whole)
    assert [(e.tail, e.head) for e in joined] == [(e.tail, e.head) for e in whole]
    assert CompressionStats.total(stats for _edges, stats in parts) == whole_stats
    assert whole_stats.nodes_before == raw.graph.num_nodes()
    assert whole_stats.nodes_after == whole_stats.nodes_before - whole_stats.nodes_removed
    assert session.analyzer.compression == whole_stats
    assert graph_lines(session.analyzer) == lines(whole)
    # A delta takes the base's compressed segments, and its stats.
    target = sorted(configs)[0]
    edited = {target: relevant_edit(configs[target])}
    variant = session.delta(edited)
    scratch = Session.from_texts({**configs, **edited})
    assert variant.analyzer.reused_pipelines
    assert variant.analyzer.compression == scratch.analyzer.compression
    assert graph_lines(variant.analyzer) == graph_lines(scratch.analyzer)


class TestLoopDetection:
    def test_static_loop_found(self):
        dataplane = compute_dataplane(load_snapshot_from_texts(LOOP_NET))
        analyzer = NetworkAnalyzer(dataplane)
        violations = analyzer.detect_loops()
        assert violations
        violation = violations[0]
        assert violation.example is not None
        from repro.hdr.ip import Prefix

        assert Prefix("192.168.0.0/16").contains_ip(violation.example.dst_ip)
        loop_nodes = {n[1] for n in violation.cycle if len(n) > 1}
        assert {"a", "b"} <= loop_nodes

    def test_no_loops_on_clean_network(self):
        from repro.synth.special import net1

        dataplane = compute_dataplane(load_snapshot_from_texts(net1(3)))
        analyzer = NetworkAnalyzer(dataplane)
        assert analyzer.detect_loops() == []

    def test_traceroute_agrees_with_loop(self):
        from repro.hdr.ip import Ip
        from repro.reachability.graph import Disposition
        from repro.traceroute.engine import TracerouteEngine

        dataplane = compute_dataplane(load_snapshot_from_texts(LOOP_NET))
        analyzer = NetworkAnalyzer(dataplane)
        violation = analyzer.detect_loops()[0]
        tracer = TracerouteEngine(dataplane, analyzer.fibs)
        traces = tracer.trace(violation.example, "a", "host")
        assert any(t.disposition is Disposition.LOOP for t in traces)
