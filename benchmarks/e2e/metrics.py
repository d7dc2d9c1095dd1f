"""The names, units and directions of every metric the benchmark
reports. ``BENCHMARK.json`` mirrors these lists (the smoke test checks
that it does); the workloads fill them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better, bound). ``bound`` is the share of the parent's
#: median by which the metric may get worse before a change is rejected.
#: The times are calibrated seconds (harness.MachineProbe); ten runs of
#: one workload spread under 6 % on them here, and the bounds leave room
#: for a box twice as noisy (README, "Noise").
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("verdict_p50_s", "s", "lower", 0.25),
    ("units_per_s", "1/s", "higher", 0.25),
    ("cpu_per_unit_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

SERVICE_CLASSES = ("routes", "config", "reachability", "lint", "get", "patch")

#: (name, unit, better). The part of a name before the first dot is the
#: layer: a module under ``src/repro`` (``trace`` is the benchmark's own).
#: A workload that never calls a layer reports 0 for its metrics.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("config.parse_s", "s", "lower"),
    ("config.lines_per_s", "1/s", "higher"),
    ("config.parse_warnings", "count", "lower"),
    ("routing.dataplane_s", "s", "lower"),
    ("routing.bgp_iterations", "count", "lower"),
    ("routing.session_rounds", "count", "lower"),
    ("routing.bgp_routes_processed", "count", "lower"),
    ("routing.best_route_changes", "count", "lower"),
    ("routing.total_routes", "count", "lower"),
    ("dataplane.fib_s", "s", "lower"),
    ("dataplane.fib_entries", "count", "lower"),
    ("hdr.prefix_encode_s", "s", "lower"),
    ("reachability.graph_build_s", "s", "lower"),
    ("reachability.graph_nodes", "count", "lower"),
    ("reachability.graph_edges", "count", "lower"),
    ("reachability.query_dest_s", "s", "lower"),
    ("reachability.query_default_s", "s", "lower"),
    ("reachability.query_multipath_s", "s", "lower"),
    ("reachability.multipath_violations", "count", "lower"),
    ("bdd.nodes_after_build", "count", "lower"),
    ("bdd.nodes_after_queries", "count", "lower"),
    ("bdd.ops_cached", "count", "lower"),
    ("bdd.nodes_per_s", "1/s", "higher"),
    ("questions.config_s", "s", "lower"),
    ("questions.routes_s", "s", "lower"),
    ("questions.route_diff_s", "s", "lower"),
    ("lint.run_s", "s", "lower"),
    ("lint.findings", "count", "lower"),
    ("lint.dataflow_s", "s", "lower"),
    ("lint.dataflow_iterations", "count", "lower"),
    ("traceroute.trace_s", "s", "lower"),
    ("delta.inert_s", "s", "lower"),
    ("delta.routing_s", "s", "lower"),
    ("delta.regraph_s", "s", "lower"),
    ("delta.fallback_rate", "share", "lower"),
    ("delta.dirty_share", "share", "lower"),
    ("delta.reused_devices_share", "share", "higher"),
    ("core.cache_cold_s", "s", "lower"),
    ("core.cache_warm_s", "s", "lower"),
    ("core.cache_hit_rate", "share", "higher"),
    ("service.snapshot_init_s", "s", "lower"),
    ("service.patch_s", "s", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.run_s", "s", "lower"),
    ("service.http_self_s", "s", "lower"),
    ("service.response_bytes", "bytes", "lower"),
    ("service.verdict_p95_s", "s", "lower"),
    *[(f"service.class_p50_s.{name}", "s", "lower") for name in SERVICE_CLASSES],
    ("trace.overhead_share", "share", "lower"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def with_units(values: Dict[str, float], names) -> Dict[str, Dict]:
    """``{name: {"value", "unit"}}`` for exactly ``names``, in order."""
    return {
        name: {"value": values.get(name, 0.0), "unit": UNITS[name]}
        for name in names
    }
