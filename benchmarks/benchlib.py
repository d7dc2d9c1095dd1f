"""Shared helpers for the benchmark harness.

Every table and figure of the paper's §6 has a module here that (a)
exposes pytest-benchmark tests runnable via
``pytest benchmarks/ --benchmark-only`` and (b) prints the paper-style
table when executed directly (``python benchmarks/bench_*.py``). The
recorded outputs live in EXPERIMENTS.md.

Performance-tracking additions on top of the original harness:

* :func:`pmap_rows` fans independent per-network measurements out over
  the process pool (``REPRO_JOBS``), keeping row order;
* :func:`write_bench_json` persists machine-readable ``BENCH_*.json``
  artifacts (wall-clock, peak RSS, cold/warm cache timings) so the
  perf trajectory is comparable across PRs;
* :func:`peak_rss_kb` and :func:`route_memory_stats` record the memory
  side (the §4.1.3 interning + ``__slots__`` work).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from dataclasses import dataclass, fields as dataclass_fields, make_dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.config.loader import load_snapshot_from_texts
from repro.config.model import Snapshot
from repro.dataplane.fib import compute_fibs
from repro.parallel import default_jobs, pmap
from repro.reachability.queries import NetworkAnalyzer
from repro.routing.engine import ConvergenceSettings, DataPlane, compute_dataplane
from repro.synth.networks import NETWORKS, NetworkSpec


@dataclass
class TimedPipeline:
    """All pipeline artifacts for one network with phase timings."""

    spec_name: str
    configs: Dict[str, str]
    snapshot: Snapshot
    dataplane: DataPlane
    analyzer: NetworkAnalyzer
    parse_seconds: float
    dataplane_seconds: float
    graph_seconds: float

    @property
    def num_devices(self) -> int:
        return len(self.snapshot.devices)

    @property
    def config_lines(self) -> int:
        return sum(d.config_lines for d in self.snapshot.devices.values())

    @property
    def total_routes(self) -> int:
        return self.dataplane.stats.total_routes


def run_pipeline(spec: NetworkSpec, scale: int = 1) -> TimedPipeline:
    configs = spec.generate(scale)
    # Phase timings come from obs spans: an `obs.Span` measures wall/CPU
    # whether or not tracing is on, and additionally lands in the trace
    # (REPRO_TRACE) so bench runs and traces report identical numbers.
    with obs.Span(f"bench.pipeline.{spec.name}", scale=scale):
        with obs.Span("bench.parse") as parse_span:
            snapshot = load_snapshot_from_texts(configs)
        with obs.Span("bench.dataplane") as dataplane_span:
            dataplane = compute_dataplane(snapshot, ConvergenceSettings())
        with obs.Span("bench.graph") as graph_span:
            fibs = compute_fibs(dataplane)
            analyzer = NetworkAnalyzer(dataplane, fibs=fibs)
    parse_seconds = parse_span.wall_s
    dataplane_seconds = dataplane_span.wall_s
    graph_seconds = graph_span.wall_s
    return TimedPipeline(
        spec_name=spec.name,
        configs=configs,
        snapshot=snapshot,
        dataplane=dataplane,
        analyzer=analyzer,
        parse_seconds=parse_seconds,
        dataplane_seconds=dataplane_seconds,
        graph_seconds=graph_seconds,
    )


_pipeline_cache: Dict[Tuple[str, int], TimedPipeline] = {}


def cached_pipeline(name: str, scale: int = 1) -> TimedPipeline:
    """Pipeline artifacts for a registry network, cached per process so
    multiple benchmarks share the expensive build."""
    key = (name, scale)
    if key not in _pipeline_cache:
        spec = next(s for s in NETWORKS if s.name == name)
        _pipeline_cache[key] = run_pipeline(spec, scale)
    return _pipeline_cache[key]


def timed(fn: Callable[[], object]) -> Tuple[float, object]:
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def print_table(title: str, header: List[str], rows: List[List[str]]) -> None:
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    print(f"\n== {title} ==")
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    print()


# ----------------------------------------------------------------------
# Parallel per-network measurement


def pmap_rows(worker: Callable, items: Sequence, jobs: Optional[int] = None) -> List:
    """Fan per-network measurements out over the process pool.

    Each item is measured in its own worker process (so per-row peak-RSS
    numbers are honest); results come back in input order. ``jobs``
    defaults to ``REPRO_JOBS`` / the CPU count; ``REPRO_JOBS=1`` runs
    the classic serial sweep.
    """
    return pmap(worker, list(items), jobs=jobs, min_items=2)


# ----------------------------------------------------------------------
# Memory accounting


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB (Linux units)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _unslotted_twin(route) -> object:
    """An instance of a ``__dict__``-based clone of a route class,
    carrying the same field values — the honest baseline for measuring
    what ``__slots__`` saves per route object."""
    cls = type(route)
    twin_cls = _UNSLOTTED_TWINS.get(cls)
    if twin_cls is None:
        twin_cls = make_dataclass(
            f"Unslotted{cls.__name__}",
            [f.name for f in dataclass_fields(cls)],
        )
        _UNSLOTTED_TWINS[cls] = twin_cls
    return twin_cls(**{f.name: getattr(route, f.name) for f in dataclass_fields(cls)})


_UNSLOTTED_TWINS: Dict[type, type] = {}


def route_memory_stats(dataplane: DataPlane) -> Dict[str, object]:
    """Per-route object memory with slots vs. an unslotted twin class.

    Counts only the route objects themselves (shared interned attribute
    bundles are already accounted by the §4.1.3 interning ablation).
    """
    slotted_bytes = 0
    unslotted_bytes = 0
    num_routes = 0
    by_class: Dict[str, int] = {}
    for _hostname, state in sorted(dataplane.nodes.items()):
        for route in state.main_rib.routes():
            num_routes += 1
            by_class[type(route).__name__] = by_class.get(type(route).__name__, 0) + 1
            slotted_bytes += sys.getsizeof(route)
            twin = _unslotted_twin(route)
            unslotted_bytes += sys.getsizeof(twin) + sys.getsizeof(twin.__dict__)
    saved = unslotted_bytes - slotted_bytes
    return {
        "routes": num_routes,
        "routes_by_class": by_class,
        "slotted_bytes": slotted_bytes,
        "unslotted_bytes": unslotted_bytes,
        "saved_bytes": saved,
        "saved_pct": round(100.0 * saved / unslotted_bytes, 1) if unslotted_bytes else 0.0,
    }


# ----------------------------------------------------------------------
# Machine-readable artifacts


def bench_output_dir() -> str:
    """Where ``BENCH_*.json`` artifacts land: ``REPRO_BENCH_DIR`` or the
    repository root (the directory holding ``benchmarks/``)."""
    configured = os.environ.get("REPRO_BENCH_DIR", "").strip()
    if configured:
        return configured
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_bench_json(name: str, payload: Dict) -> str:
    """Persist a benchmark artifact as ``BENCH_<name>.json``.

    The payload is augmented with the environment facts needed to
    compare runs across PRs (job count, CPU count, Python version) and,
    when the obs subsystem is enabled, with the run's metrics snapshot —
    the same counters/gauges/histograms a ``REPRO_TRACE`` trace carries.
    """
    payload = dict(payload)
    payload.setdefault("schema", f"repro-bench-{name}/v1")
    payload.setdefault(
        "environment",
        {
            "jobs": default_jobs(),
            "cpus": os.cpu_count() or 1,
            "python": sys.version.split()[0],
        },
    )
    if obs.active():
        payload.setdefault("obs_metrics", obs.metrics_dump())
        # p50/p95/p99 per labeled bucket histogram (phase.seconds,
        # service.request.seconds, ...).
        percentiles = obs.metrics().percentiles()
        if percentiles:
            payload.setdefault("obs_percentiles", percentiles)
    out_dir = bench_output_dir()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
