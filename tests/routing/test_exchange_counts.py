"""Regression tests for the BGP hot path, by count instead of by clock.

What the exchange does per advertisement must stay proportional to what
BGP does with it (ISSUE 17): nothing is built for an advertisement a BGP
rule drops, a session side without a route-map builds no
``PolicyRoute``, and best-route selection compares keys, not ``repr``
strings. The counts are exact properties of the code path, so they hold
on any machine; every assertion here fails on the commit before the
rework (its numbers are quoted beside each bound).
"""

import collections

import pytest

from repro import obs
from repro.config.loader import load_snapshot_from_texts
from repro.routing import bgp, engine, policy, prefix_trie, route
from repro.routing.engine import compute_dataplane
from repro.synth.networks import NETWORKS


def _snapshot(name: str):
    spec = next(spec for spec in NETWORKS if spec.name == name)
    return load_snapshot_from_texts(spec.generate(1))


@pytest.fixture
def counts(monkeypatch):
    """Count constructions, ``repr`` calls on routes, RIB puts, LPM
    lookups and route-map evaluations while the test runs."""
    counter = collections.Counter()

    def counting(cls, method, key):
        original = getattr(cls, method)

        def wrapper(self, *args, **kwargs):
            counter[key] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, wrapper)

    counting(policy.PolicyRoute, "__init__", "PolicyRoute")
    counting(route.BgpRoute, "__init__", "BgpRoute")
    counting(route.BgpAttributes, "__init__", "BgpAttributes")
    counting(bgp.BgpRib, "put", "put")
    counting(prefix_trie.PrefixTrie, "longest_match", "longest_match")
    for cls in route.AnyRoute:
        counting(cls, "__repr__", "repr")

    evaluate = engine.apply_route_map

    def apply_route_map(*args, **kwargs):
        counter["apply_route_map"] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(engine, "apply_route_map", apply_route_map)
    return counter


def test_fat_tree_without_route_maps_builds_no_policy_route(counts):
    """NET3 has no route-map at all (parent: 5 832 evaluations, 11 664
    ``PolicyRoute`` objects, 7 641 ``repr`` calls to sort its routes)."""
    dataplane = compute_dataplane(_snapshot("NET3"))
    assert counts["PolicyRoute"] == 0
    assert counts["apply_route_map"] == 0
    assert counts["repr"] == 0
    assert dataplane.stats.policy_evals == 0
    # Half of what the spines pull is a leaf's own route coming back.
    assert dataplane.stats.suppressed["as_path_loop"] == 1944
    # One bundle and one route per advertisement that reached a RIB.
    assert counts["BgpAttributes"] == counts["BgpRoute"] == counts["put"]
    # The IGP cost of a next hop is resolved once per node and BGP run,
    # not once per candidate per selection (parent: 3 672 LPMs).
    assert counts["longest_match"] <= len(dataplane.sessions)


def test_ibgp_mesh_builds_nothing_for_split_horizon(counts):
    """NET10: 8 379 of 8 886 pulled routes are iBGP-learned routes on
    sessions to non-clients (parent: 9 336 evaluations of which 60 had a
    route-map, 10 294 ``BgpRoute`` and 9 844 ``BgpAttributes``
    constructions for 469 puts)."""
    dataplane = compute_dataplane(_snapshot("NET10"))
    stats = dataplane.stats
    assert stats.suppressed["split_horizon"] == 8379
    assert counts["apply_route_map"] == stats.policy_evals <= 60
    # Nothing is built for an advertisement split horizon suppresses: the
    # routes constructed are bounded by the advertisements it let through.
    survivors = stats.bgp_routes_processed - stats.suppressed["split_horizon"]
    assert counts["BgpRoute"] <= 2 * survivors
    assert counts["BgpAttributes"] <= 3 * counts["put"]
    assert counts["repr"] == 0


@pytest.mark.parametrize("name", ["NET4", "NET5", "NET10"])
def test_every_advertisement_is_installed_or_counted_once(name, monkeypatch):
    """``advertise`` either hands back a route or names one reason, and
    ``DataPlaneStats.suppressed`` counts exactly the reasons named."""
    outcomes = collections.Counter()
    advertise = engine._Exchange.advertise

    def recording_advertise(self, route):
        installed, reason, result = advertise(self, route)
        assert (installed is None) == bool(reason)
        outcomes[reason] += 1
        return installed, reason, result

    monkeypatch.setattr(engine._Exchange, "advertise", recording_advertise)
    stats = compute_dataplane(_snapshot(name)).stats
    installed = outcomes.pop("")
    assert installed > 0 and outcomes
    assert tuple(stats.suppressed) == engine.SUPPRESSION_REASONS
    assert {r: n for r, n in stats.suppressed.items() if n} == dict(outcomes)
    assert installed + sum(outcomes.values()) <= stats.bgp_routes_processed


def test_suppression_counters_reach_metrics():
    """``/metrics`` and a trace answer "where did the advertisements
    go": one flat counter per reason next to ``routes_processed``, in
    the service's metrics-only mode too."""
    snapshot = _snapshot("NET10")
    obs.reset()
    obs.enable_metrics()
    try:
        stats = compute_dataplane(snapshot).stats
        counter = obs.metrics().counter
        assert counter("dataplane.bgp.routes_processed") == stats.bgp_routes_processed
        assert counter("dataplane.bgp.policy_evals") == stats.policy_evals == 60
        for reason in engine.SUPPRESSION_REASONS:
            assert (
                counter(f"dataplane.bgp.suppressed.{reason}")
                == stats.suppressed[reason]
            )
    finally:
        obs.disable()
        obs.reset()
