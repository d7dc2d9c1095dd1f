"""Table 2: performance of current Batfish.

For every Table 1 network, times the paper's four phases: configuration
parsing, data-plane generation ("DP gen"), destination reachability
("Dest reach" — backward propagation to one delivery location), and
multipath consistency (the all-forwarding-rules verification query).
The paper's headline — analysis completes in minutes even on the
largest networks, dominated by DP generation — should hold in shape.

Beyond the printed table, running this module as a script measures each
network in its own worker process (``REPRO_JOBS``-wide fan-out via
``repro.parallel.pmap``), adds cold- vs. warm-cache timings through the
content-addressed snapshot cache, and writes the machine-readable
``BENCH_table2.json`` artifact (wall-clock per phase, peak RSS per
worker, route-object memory saved by ``__slots__``) under
``REPRO_BENCH_DIR``. ``--smoke`` limits the sweep to one small network.
The artifact is an experiment's output, not a regression gate — that is
``benchmarks/e2e``.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from typing import Dict, List, Optional

import pytest

try:
    from benchmarks import benchlib
except ImportError:  # running as `python benchmarks/bench_*.py`
    import os

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from benchmarks import benchlib
from benchmarks.benchlib import cached_pipeline, print_table, timed
from repro import obs
from repro.config.loader import load_snapshot_from_texts
from repro.core.session import Session
from repro.delta.edits import irrelevant_edit, relevant_edit
from repro.lint import lint_snapshot
from repro.lint.dataflow import analyze as dataflow_analyze, build_universe
from repro.routing.engine import ConvergenceSettings, compute_dataplane
from repro.synth.networks import NETWORKS

#: Subset benchmarked under pytest-benchmark (full table via main()).
_BENCH_NETWORKS = ["NET1", "NET2", "NET5", "NET6", "NET7"]

#: The single network used by ``--smoke`` (CI: one small cold+warm run).
_SMOKE_NETWORK = "NET1"

#: Networks that also measure the resilience-sweep phase (pruned sweep
#: vs brute-force enumeration), with per-network universes. NET1 (the
#: smoke network) sweeps its full link+interface space — small enough
#: that brute force is tractable and rich enough that all three pruning
#: classes fire; NET3/NET11 are the paper-scale pair, capped like the
#: CI validator so the brute side stays bounded.
_SWEEP_K = 2
_SWEEP_SPECS = {
    _SMOKE_NETWORK: {"kinds": ("link", "interface"), "max_elements": None},
    "NET3": {"kinds": ("link",), "max_elements": 8},
    "NET11": {"kinds": ("link",), "max_elements": 8},
}


@pytest.mark.parametrize("name", _BENCH_NETWORKS)
def test_parse(benchmark, name):
    pipeline = cached_pipeline(name)
    benchmark.pedantic(
        load_snapshot_from_texts, args=(pipeline.configs,), rounds=3, iterations=1
    )


@pytest.mark.parametrize("name", _BENCH_NETWORKS)
def test_dataplane_generation(benchmark, name):
    pipeline = cached_pipeline(name)
    result = benchmark.pedantic(
        compute_dataplane,
        args=(pipeline.snapshot, ConvergenceSettings()),
        rounds=3,
        iterations=1,
    )
    assert result.converged


@pytest.mark.parametrize("name", _BENCH_NETWORKS)
def test_destination_reachability(benchmark, name):
    pipeline = cached_pipeline(name)
    analyzer = pipeline.analyzer
    target = _first_delivery_location(analyzer)
    result = benchmark.pedantic(
        analyzer.destination_reachability, args=target, rounds=3, iterations=1
    )
    assert isinstance(result, dict)


@pytest.mark.parametrize("name", _BENCH_NETWORKS)
def test_multipath_consistency(benchmark, name):
    pipeline = cached_pipeline(name)
    analyzer = pipeline.analyzer
    benchmark.pedantic(analyzer.multipath_consistency, rounds=1, iterations=1)


def _first_delivery_location(analyzer):
    for node in analyzer.graph.sink_nodes():
        if node[0] == "sink":
            return (node[1], node[2])
    # No host subnets: fall back to accepting at the first device.
    hostname = analyzer.dataplane.snapshot.hostnames()[0]
    return (hostname, None)


def measure_network(name: str) -> Dict[str, object]:
    """All Table 2 measurements for one network, in one process.

    Phase timings come from a direct (uncached) pipeline run; the
    cold/warm pair then exercises the content-addressed cache over the
    stages it covers (parse + data-plane generation) against a fresh
    cache directory, so "cold" is genuinely cold and "warm" is a pure
    disk load of the same snapshot.
    """
    spec = next(s for s in NETWORKS if s.name == name)
    pipeline = benchlib.run_pipeline(spec)
    analyzer = pipeline.analyzer
    dest_seconds, _ = timed(
        lambda: analyzer.destination_reachability(*_first_delivery_location(analyzer))
    )
    multipath_seconds, violations = timed(analyzer.multipath_consistency)
    lint_seconds, lint_report = timed(
        lambda: lint_snapshot(pipeline.snapshot)
    )
    # The dataflow fixpoint in isolation (the lint phase above runs it
    # too, as one rule-scope among many): wall-clock of a cold
    # propagation-graph fixpoint plus its worklist iteration count — a
    # deterministic algorithmic signal.
    dataflow_seconds, dataflow_analysis = timed(
        lambda: dataflow_analyze(
            pipeline.snapshot, build_universe(pipeline.snapshot)
        )
    )

    cache_dir = tempfile.mkdtemp(prefix=f"repro-bench-{name}-")
    try:
        started = time.perf_counter()
        cold_session = Session.from_texts(pipeline.configs, cache=cache_dir)
        cold_session.dataplane
        cold_seconds = time.perf_counter() - started
        started = time.perf_counter()
        warm_session = Session.from_texts(pipeline.configs, cache=cache_dir)
        warm_session.dataplane
        warm_seconds = time.perf_counter() - started
        warm_hits = (warm_session.cache_stats or {}).get("hits", 0)

        # Incremental phase: one-line edit, delta engine vs cold full
        # recompute of the edited snapshot (both timed through to FIBs).
        # The inert edit (NTP) is the paper's review workload — most
        # config review diffs can't move a route; the routing edit
        # (static route) forces a full recompute.
        cold_session.fibs  # base FIBs outside the timed region
        target = sorted(pipeline.configs)[0]
        delta_results = {}
        for label, edit in (
            ("inert", irrelevant_edit), ("routing", relevant_edit)
        ):
            edited = edit(pipeline.configs[target])
            started = time.perf_counter()
            full_session = Session.from_texts(
                {**pipeline.configs, target: edited}
            )
            full_session.fibs
            full_seconds = time.perf_counter() - started
            started = time.perf_counter()
            delta_session = cold_session.delta({target: edited})
            delta_session.fibs
            delta_seconds = time.perf_counter() - started
            delta_results[label] = {
                "full_seconds": round(full_seconds, 4),
                "delta_seconds": round(delta_seconds, 4),
                "speedup": round(full_seconds / max(delta_seconds, 1e-9), 2),
                "dirty_devices": len(delta_session.delta_info.dirty_devices),
                "reused_devices": delta_session.delta_info.reused_devices,
                "fallback": delta_session.delta_info.fallback,
            }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    # Resilience-sweep phase: the pruned sweep (equivalence classes +
    # delta warm-start) against brute-force enumeration of the same
    # capped scenario universe. Runs serially here (this function is
    # already inside a pmap worker), so scenarios/sec is per-core.
    sweep_results = None
    if name in _SWEEP_SPECS:
        from repro.sweep.validate import validate_network

        sweep_spec = _SWEEP_SPECS[name]
        validation, result = validate_network(
            name,
            pipeline.configs,
            k=_SWEEP_K,
            kinds=sweep_spec["kinds"],
            max_elements=sweep_spec["max_elements"],
        )
        sweep_results = {
            "k": _SWEEP_K,
            "kinds": list(sweep_spec["kinds"]),
            "max_elements": sweep_spec["max_elements"],
            "scenarios": result.stats.scenarios,
            "evaluated": result.stats.evaluated,
            "pruned_fraction": round(result.stats.pruned_fraction, 4),
            "scenarios_per_second": round(
                result.stats.scenarios / max(validation.sweep_seconds, 1e-9),
                3,
            ),
            "sweep_seconds": round(validation.sweep_seconds, 4),
            "brute_seconds": round(validation.brute_seconds, 4),
            "speedup": round(validation.speedup, 2),
            "verdicts_match": validation.ok,
            "minimal_failing_sets": len(result.minimal_failing_sets),
        }

    return {
        "network": name,
        "devices": pipeline.num_devices,
        "config_lines": pipeline.config_lines,
        "routes": pipeline.total_routes,
        "violations": len(violations),
        "seconds": {
            "parse": round(pipeline.parse_seconds, 4),
            "dataplane": round(pipeline.dataplane_seconds, 4),
            "graph": round(pipeline.graph_seconds, 4),
            "dest_reach": round(dest_seconds, 4),
            "multipath": round(multipath_seconds, 4),
            "lint": round(lint_seconds, 4),
            "lint_dataflow": round(dataflow_seconds, 4),
            "cache_cold": round(cold_seconds, 4),
            "cache_warm": round(warm_seconds, 4),
            "delta": delta_results["inert"]["delta_seconds"],
            "delta_full": delta_results["inert"]["full_seconds"],
        },
        "delta": delta_results,
        "sweep": sweep_results,
        "lint_dataflow": {
            "iterations": dataflow_analysis.iterations,
            "nodes": len(dataflow_analysis.graph.nodes),
            "edges": len(dataflow_analysis.graph.edges),
        },
        "lint_findings": len(lint_report.active()),
        "cache_warm_hits": warm_hits,
        "peak_rss_kb": benchlib.peak_rss_kb(),
        "route_memory": benchlib.route_memory_stats(pipeline.dataplane),
    }


def collect_measurements(
    names: List[str], jobs: Optional[int] = None
) -> List[Dict[str, object]]:
    """Measure the named networks, one worker process per network."""
    return benchlib.pmap_rows(measure_network, names, jobs=jobs)


def collect_phase_percentiles(
    name: str = _SMOKE_NETWORK, repeats: int = 3
) -> None:
    """Populate the labeled ``phase.seconds`` histograms (every
    ``obs.PHASES`` name) by running the session pipeline with
    metrics-only collection on, so :func:`benchlib.write_bench_json`
    lands p50/p95/p99 in the artifact. Runs after the timed
    measurements — flipping metrics on must not contaminate them."""
    spec = next(s for s in NETWORKS if s.name == name)
    configs = spec.generate(1)
    obs.enable_metrics()
    target = sorted(configs)[0]
    for _ in range(repeats):
        session = Session.from_texts(configs)
        session.analyzer  # parse -> dataplane -> fib -> bdd phases
        session.delta({target: irrelevant_edit(configs[target])}).fibs
        lint_snapshot(session.snapshot)


def table2_rows(measurements: List[Dict[str, object]]) -> List[List[str]]:
    rows = []
    for m in measurements:
        seconds = m["seconds"]
        rows.append(
            [
                m["network"],
                str(m["devices"]),
                f"{seconds['parse']:.2f}s",
                f"{seconds['dataplane']:.2f}s",
                f"{seconds['graph']:.2f}s",
                f"{seconds['dest_reach']:.3f}s",
                f"{seconds['multipath']:.2f}s",
                str(m["violations"]),
                f"{seconds['cache_cold']:.2f}s",
                f"{seconds['cache_warm']:.2f}s",
                f"{seconds['delta']:.2f}s",
                f"{m['peak_rss_kb'] / 1024:.0f}MB",
            ]
        )
    return rows


def main(argv: Optional[List[str]] = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    names = [_SMOKE_NETWORK] if smoke else [spec.name for spec in NETWORKS]
    measurements = collect_measurements(names)
    collect_phase_percentiles()
    print_table(
        "Table 2: performance of the current pipeline",
        [
            "network", "nodes", "parse", "DP gen", "graph", "dest reach",
            "multipath", "violations", "cold", "warm", "delta", "peak RSS",
        ],
        table2_rows(measurements),
    )
    path = benchlib.write_bench_json(
        "table2",
        {
            "smoke": smoke,
            "networks": measurements,
        },
    )
    print(f"wrote {path}")
    slowest = max(measurements, key=lambda m: m["seconds"]["cache_cold"])
    ratio = slowest["seconds"]["cache_cold"] / max(
        slowest["seconds"]["cache_warm"], 1e-9
    )
    print(
        f"cache speedup ({slowest['network']}): cold "
        f"{slowest['seconds']['cache_cold']:.2f}s -> warm "
        f"{slowest['seconds']['cache_warm']:.2f}s ({ratio:.1f}x)"
    )
    largest = max(measurements, key=lambda m: m["devices"])
    for label in ("inert", "routing"):
        d = largest["delta"][label]
        print(
            f"delta speedup ({largest['network']}, {label} 1-line edit): "
            f"full {d['full_seconds']:.2f}s -> delta "
            f"{d['delta_seconds']:.2f}s ({d['speedup']:.1f}x, "
            f"{d['dirty_devices']} dirty / {d['reused_devices']} reused)"
        )
    dataflow = largest["lint_dataflow"]
    print(
        f"dataflow fixpoint ({largest['network']}): "
        f"{dataflow['nodes']} nodes / {dataflow['edges']} edges, "
        f"{dataflow['iterations']} iterations in "
        f"{largest['seconds']['lint_dataflow']:.2f}s"
    )
    for m in measurements:
        sweep = m.get("sweep")
        if not sweep:
            continue
        print(
            f"sweep ({m['network']}, k={sweep['k']}, "
            f"{sweep['scenarios']} scenarios): brute "
            f"{sweep['brute_seconds']:.2f}s -> pruned "
            f"{sweep['sweep_seconds']:.2f}s ({sweep['speedup']:.1f}x, "
            f"{sweep['pruned_fraction']:.0%} pruned, "
            f"{sweep['scenarios_per_second']:.1f}/s, "
            f"verdicts match: {sweep['verdicts_match']})"
        )


if __name__ == "__main__":
    main()
