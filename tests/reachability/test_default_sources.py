"""The analyzer's scoped default sources (§4.4.2) against the per-call
construction they replaced: each source's prefix scope is now built
once per analyzer and a call is one conjunction per source, so every
call, first or repeated, with or without a header space, must return
the same sources with the same node ids, in the same order."""

from typing import Dict

import pytest

from repro.bdd.engine import FALSE, TRUE
from repro.core.session import Session
from repro.hdr import fields as f
from repro.hdr.headerspace import HeaderSpace
from repro.reachability.graph import GraphNode, src_node
from repro.reachability.queries import NetworkAnalyzer
from repro.routing.topology import InterfaceId
from repro.synth.networks import NETWORKS


def reference_default_sources(
    analyzer: NetworkAnalyzer, headerspace_bdd: int
) -> Dict[GraphNode, int]:
    """Host-facing and network-edge interfaces, each scoped to source
    addresses in its own subnet, built afresh on every call."""
    sources: Dict[GraphNode, int] = {}
    engine, dataplane = analyzer.encoder.engine, analyzer.dataplane
    for hostname in dataplane.snapshot.hostnames():
        for iface in dataplane.snapshot.device(hostname).interfaces.values():
            if not iface.enabled or iface.prefix is None:
                continue
            if dataplane.topology.has_remote_end(InterfaceId(hostname, iface.name)):
                continue
            scope = engine.and_(
                headerspace_bdd, analyzer.encoder.ip_in_prefix(f.SRC_IP, iface.prefix)
            )
            if scope != FALSE:
                sources[src_node(hostname, iface.name)] = scope
    return sources


@pytest.mark.parametrize("network", NETWORKS, ids=lambda n: n.name)
def test_default_sources_equal_the_per_call_construction(network):
    analyzer = Session.from_texts(network.generate(1)).analyzer
    web = HeaderSpace.build(protocols=[f.PROTO_TCP], dst_ports=[(80, 80)])
    for space in (TRUE, web.to_bdd(analyzer.encoder), TRUE):
        ours = analyzer.default_sources(space)
        expected = reference_default_sources(analyzer, space)
        assert list(ours.items()) == list(expected.items())
    assert ours
