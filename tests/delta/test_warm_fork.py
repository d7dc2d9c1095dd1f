"""A delta's engine is a fork of its base's as it stands: every node and
every operation-cache entry the base's questions left. Canonicity makes
the ids of one engine comparable, so a delta's answers after a routing
edit must equal, id for id, those of an analyzer built from scratch on
the delta's own encoder, and the destination answer must be the same
functions as a scratch session's in an engine of its own, which shares
no cache entry with the fork."""

import pytest

from repro.core.session import Session
from repro.delta.edits import relevant_edit
from repro.reachability.queries import NetworkAnalyzer
from repro.synth.networks import NETWORKS


@pytest.mark.parametrize("name", [spec.name for spec in NETWORKS])
def test_a_warm_fork_answers_as_a_scratch_build_in_its_engine(name):
    spec = next(spec for spec in NETWORKS if spec.name == name)
    configs = spec.generate(1)
    base = Session.from_texts(configs)
    base.reachability()
    grown = base.encoder.engine.stats()
    target = sorted(configs)[0]
    delta = base.delta({target: relevant_edit(configs[target])}, validate=False)
    analyzer = delta.analyzer
    assert delta.delta_info.stages["analyzer"].startswith("recomputed (")
    engine = analyzer.encoder.engine
    assert engine is not base.encoder.engine
    # The fork started from the grown engine, caches included.
    assert engine.num_nodes() >= grown["nodes"]
    assert engine.stats()["ops_cached"] >= grown["ops_cached"]
    fates = analyzer.fates()
    sink = next(node for node in analyzer.graph.sink_nodes() if node[0] == "sink")
    reached = analyzer.destination_reachability(sink[1], sink[2])
    scratch = NetworkAnalyzer(delta.dataplane, encoder=analyzer.encoder)
    assert scratch.graph.nodes == analyzer.graph.nodes
    assert scratch.fates() == fates
    assert scratch.destination_reachability(sink[1], sink[2]) == reached
    fresh = Session.from_texts(delta._configs).analyzer
    apart = fresh.destination_reachability(sink[1], sink[2])
    assert apart.keys() == reached.keys()
    assert all(
        fresh.encoder.engine.canonical(apart[node]) == engine.canonical(packets)
        for node, packets in reached.items()
    )
