"""`repro.obs` — dependency-free tracing, metrics, and config coverage.

The observability subsystem the pipeline reports through:

* **Spans** (:func:`span` / :class:`Span`) — nested wall/CPU timing
  scopes streamed as JSON lines (``REPRO_TRACE=/path/trace.jsonl`` or
  :func:`enable`).
* **Metrics** (:func:`add`, :func:`gauge`, :func:`observe`) — named
  counters, gauges and labeled bucket histograms emitted from the hot
  paths: parser line and warning counts, per-iteration BGP RIB deltas,
  BDD node/unique-table sizes, snapshot-cache hits/misses, and ``pmap``
  fan-out stats merged back from pool workers.
* **Phases** (:func:`phase`, :data:`PHASES`) — the pipeline phases
  (parse, dataplane, fib, bdd, delta, lint), each timed once: one span
  and one ``phase.seconds{phase}`` sample under the same name.
* **Config coverage** (:func:`touch`, :func:`coverage_scope`) — which
  VI-model structures (interfaces, ACL lines, route-map clauses) one
  question run exercised, in the spirit of Xu et al.'s *Test Coverage
  for Network Configurations*; the runs' records live on their session
  (``Session.coverage_report()``).
* **Report** — ``python -m repro report trace.jsonl`` renders the
  per-phase time tree, top counters, and the coverage summary added up
  from the runs' ``coverage`` events
  (:class:`repro.obs.report.TraceReport`); ``--strict`` fails on
  unclosed spans (the CI gate).
* **Request context** (:mod:`repro.obs.context`) — the request id that
  spans carry, across the service's thread hop and into ``pmap``'s
  forked workers, which inherit it.

All instrumentation is zero-cost when disabled: one module-level flag
guard per call site, no formatting or allocation off the hot path.
"""

from repro.obs import context
from repro.obs.context import RequestContext, current_request_id, request_context
from repro.obs.coverage import coverage_scope, coverage_scoped, touch
from repro.obs.metrics import COUNT_BUCKETS, BucketHistogram, Metrics
from repro.obs.trace import (
    PHASES,
    Span,
    active,
    add,
    coverage_event,
    disable,
    enable,
    enable_metrics,
    enabled,
    events,
    flush,
    gauge,
    merge_worker_dump,
    metrics,
    metrics_dump,
    metrics_enabled,
    observe,
    phase,
    reset,
    span,
    trace_path,
    unclosed_spans,
    worker_dump,
)

__all__ = [
    "BucketHistogram",
    "COUNT_BUCKETS",
    "Metrics",
    "PHASES",
    "RequestContext",
    "Span",
    "active",
    "add",
    "context",
    "coverage_event",
    "coverage_scope",
    "coverage_scoped",
    "current_request_id",
    "disable",
    "enable",
    "enable_metrics",
    "enabled",
    "events",
    "flush",
    "gauge",
    "merge_worker_dump",
    "metrics",
    "metrics_dump",
    "metrics_enabled",
    "observe",
    "phase",
    "request_context",
    "reset",
    "span",
    "touch",
    "trace_path",
    "unclosed_spans",
    "worker_dump",
]
