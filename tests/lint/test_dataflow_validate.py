"""Differential validation of the abstract domain against the concrete
simulator: every prefix the simulated dataplane places in a RIB or
propagates across a BGP session must be contained in the corresponding
abstract fixpoint set (the soundness direction; the abstract side may
over-approximate freely)."""

from repro.config.loader import load_snapshot_from_texts
from repro.lint.dataflow import analyze, build_universe, validate_containment
from repro.synth.special import net1


class TestContainment:
    def test_net1_dataplane_contained(self):
        # NET1 exercises OSPF adjacencies, statics, redistribution and
        # iBGP at once — the registry network the CI differential runs.
        snapshot = load_snapshot_from_texts(net1(3))
        analysis = analyze(snapshot, build_universe(snapshot))
        assert analysis.iterations > 0
        assert validate_containment(snapshot, analysis) == []

    def test_divergence_is_reported_not_swallowed(self):
        # Sabotage the fixpoint after the fact: empty every abstract
        # state and the validator must name the uncovered routes.
        snapshot = load_snapshot_from_texts(net1(3))
        analysis = analyze(snapshot, build_universe(snapshot))
        from repro.lint.dataflow.domain import AbstractRoutes

        analysis.states = {
            node: AbstractRoutes.bottom() for node in analysis.states
        }
        analysis.edge_outputs = [
            AbstractRoutes.bottom() for _ in analysis.edge_outputs
        ]
        divergences = validate_containment(snapshot, analysis)
        assert divergences
        assert any("outside the abstract" in line for line in divergences)
