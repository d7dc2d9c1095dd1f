"""Registry golden for the control plane: RIB contents, convergence
counters and the provenance event stream of every registry network.

``rib_golden.json`` was recorded on the commit *before* the BGP hot-path
rework (ISSUE 17) and must keep passing unchanged: the rework reorders
checks and drops intermediate objects, it may not move a route, a
counter or a recorded derivation event. Each case runs twice — with
:mod:`repro.provenance` recording on and off — and both runs must give
the recorded RIB digest, which is what holds "one code path for
recording and non-recording runs".

Re-recorded once since, in PR 20 and only the ``event_digest`` of the ten
cases with a BGP route-map (NET4, NET5, NET7, NET10): the ``installed``
event's ``export [...]`` label used to render the *import* evaluation.

Re-record (only when routing behaviour is *meant* to change)::

    PYTHONPATH=src python tests/routing/test_rib_golden.py
"""

import hashlib
import json
import os

import pytest

from repro.config.loader import load_snapshot_from_texts
from repro.provenance import record as prov
from repro.routing.engine import ConvergenceSettings, compute_dataplane
from repro.synth.networks import NETWORKS
from repro.synth.special import figure1a, figure1b

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rib_golden.json")

_VARIANTS = {
    "default": {},
    "lockstep": {"schedule": "lockstep"},
    "noclocks": {"use_logical_clocks": False},
    "lockstep-noclocks": {"schedule": "lockstep", "use_logical_clocks": False},
}
_GENERATORS = {spec.name: lambda spec=spec: spec.generate(1) for spec in NETWORKS}
# The registry converges under every schedule; Figure 1's two patterns
# are what exercise oscillation detection and the clock tie-break.
_GENERATORS["FIG1A"] = figure1a
_GENERATORS["FIG1B"] = figure1b
#: The non-default schedules run on one fat-tree, one WAN, one ISP and
#: the two Figure 1 patterns.
_VARIANT_NETWORKS = ("NET2", "NET5", "NET7", "FIG1A", "FIG1B")

CASES = [(name, "default") for name in _GENERATORS] + [
    (name, variant)
    for name in _VARIANT_NETWORKS
    for variant in _VARIANTS
    if variant != "default"
]


def _rib_digest(dataplane) -> str:
    digest = hashlib.sha256()
    for hostname, state in dataplane.nodes.items():
        digest.update(f"node {hostname}\n".encode())
        for route in state.main_rib.routes():
            digest.update(f"main {route.describe()}\n".encode())
        if state.bgp_rib is None:
            continue
        digest.update(f"bgp candidates {state.bgp_rib.candidate_count()}\n".encode())
        for route in state.bgp_rib.all_best():
            # repr covers every attribute of the bundle, not only the
            # ones describe() prints.
            digest.update(f"bgp {route.describe()} {route!r}\n".encode())
    return digest.hexdigest()


def _event_digest(events) -> str:
    digest = hashlib.sha256()
    for event in events:
        fields = (
            event.seq, event.node, event.prefix, event.protocol, event.action,
            event.detail, event.neighbor, event.policy, event.iteration,
        )
        digest.update(f"{fields!r}\n".encode())
    return digest.hexdigest()


def _observe(name: str, variant: str) -> dict:
    snapshot = load_snapshot_from_texts(_GENERATORS[name]())
    settings = ConvergenceSettings(**_VARIANTS[variant])
    plain = compute_dataplane(snapshot, settings)
    with prov.recording() as recorder:
        recorded = compute_dataplane(snapshot, settings)
    stats = plain.stats
    return {
        "ribs": _rib_digest(plain),
        "ribs_while_recording": _rib_digest(recorded),
        "stats": {
            "iterations": stats.iterations,
            "session_rounds": stats.session_rounds,
            "bgp_routes_processed": stats.bgp_routes_processed,
            "best_route_changes": stats.best_route_changes,
            "total_routes": stats.total_routes,
        },
        "converged": plain.converged,
        "oscillating_prefixes": [str(p) for p in plain.oscillating_prefixes],
        "events": len(recorder.events),
        "event_digest": _event_digest(recorder.events),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{name}/{variant}" for name, variant in CASES)


@pytest.mark.parametrize("name,variant", CASES)
def test_control_plane_matches_golden(golden, name, variant):
    assert _observe(name, variant) == golden[f"{name}/{variant}"]


if __name__ == "__main__":
    recorded = {f"{name}/{variant}": _observe(name, variant) for name, variant in CASES}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(recorded)} cases -> {GOLDEN_PATH}")
