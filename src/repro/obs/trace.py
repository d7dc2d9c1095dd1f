"""Tracing core: spans, the trace buffer, and the module-level switch.

Everything in :mod:`repro.obs` hangs off one process-global
:class:`_ObsState`. Tracing is **off by default** and the instrumented
hot paths all guard through :func:`enabled` / the early-returning
helpers below, so a disabled run pays one attribute read and a falsy
branch per instrumentation point — no string formatting, no allocation
(the < 2% overhead budget of the benchmarks).

Enabling:

* ``REPRO_TRACE=/path/trace.jsonl`` in the environment enables tracing
  at import time and streams events to that file as JSON lines;
* :func:`enable` does the same programmatically; with no path, events
  only fill the bounded in-memory buffer.

Span events are written twice — a ``start`` line when the span opens and
a ``span`` line (with wall/CPU durations) when it closes — so a trace
whose process died mid-span still shows *what was running*, and the
report CLI can flag unclosed spans (the CI gate). Every line carries the
emitting ``pid``: process-pool workers inherit the open sink across
``fork`` and append their own lines (single-``write`` appends to an
``O_APPEND`` stream), while their metrics and coverage-scope vectors
are merged back explicitly by :func:`repro.parallel.pmap`.

Event content is deterministic modulo timestamps: names, attributes,
nesting, and per-process sequence ids repeat exactly across runs of the
same analysis.
"""

from __future__ import annotations

import atexit
import io
import json
import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from repro.obs import coverage as _coverage
from repro.obs.context import current_request_id
from repro.obs.metrics import Metrics

#: In-memory event cap; file sinks are unbounded (append-only).
_BUFFER_LIMIT = 200_000


class _ObsState:
    def __init__(self):
        self.enabled = False
        #: Metrics-only switch: the service flips this at boot so
        #: counters/histograms populate without span tracing (spans stay
        #: zero-cost; metric updates are one dict op behind a lock).
        self.metrics_enabled = False
        self.trace_path: Optional[str] = None
        self.sink: Optional[io.TextIOBase] = None
        self.lock = threading.Lock()
        self.buffer = deque(maxlen=_BUFFER_LIMIT)
        self.metrics = Metrics()
        self.next_span_id = 0
        self.open_spans: Dict[int, str] = {}
        self.tls = threading.local()

    def stack(self) -> List["Span"]:
        stack = getattr(self.tls, "stack", None)
        if stack is None:
            stack = self.tls.stack = []
        return stack


_STATE = _ObsState()


def _reinit_locks_after_fork() -> None:
    """Replace every obs lock with a fresh one in fork children.

    A ``pmap`` fork from the main thread can happen while other threads
    hold the metrics/trace locks; the child
    inherits those locks *in their held state* with no thread left to
    release them, so its first instrumented call would deadlock. The
    child is single-threaded at this point, so swapping in new locks is
    safe — and mandatory before :func:`repro.parallel._invoke_chunk`
    resets the registry.
    """
    _STATE.lock = threading.Lock()
    _STATE.metrics._lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # posix only; fork implies posix
    os.register_at_fork(after_in_child=_reinit_locks_after_fork)


def enabled() -> bool:
    """The module-level switch every instrumentation point guards on."""
    return _STATE.enabled


def metrics_enabled() -> bool:
    """Whether the metrics-only switch is on (the service mode)."""
    return _STATE.metrics_enabled


def active() -> bool:
    """True when any metric-collecting mode is on (tracing or
    metrics-only) — the guard for the metric helpers."""
    return _STATE.enabled or _STATE.metrics_enabled


def enable_metrics() -> None:
    """Turn on metric collection without span tracing.

    The long-lived service calls this at boot: ``/metrics`` must be
    populated for every deployment, while full span tracing stays an
    explicit opt-in (``REPRO_TRACE`` / ``--trace``)."""
    _STATE.metrics_enabled = True


def trace_path() -> Optional[str]:
    return _STATE.trace_path


def enable(trace: Optional[str] = None) -> None:
    """Turn instrumentation on, optionally streaming to a JSONL file."""
    with _STATE.lock:
        if trace and trace != _STATE.trace_path:
            if _STATE.sink is not None:
                try:
                    _STATE.sink.close()
                except OSError:
                    pass
            # Line-buffered append: one write per event line, safe to
            # share with forked workers.
            _STATE.sink = open(trace, "a", buffering=1)
            _STATE.trace_path = trace
        _STATE.enabled = True


def disable() -> None:
    """Turn instrumentation off and detach any file sink."""
    with _STATE.lock:
        _STATE.enabled = False
        _STATE.metrics_enabled = False
        if _STATE.sink is not None:
            try:
                _STATE.sink.close()
            except OSError:
                pass
        _STATE.sink = None
        _STATE.trace_path = None


def reset() -> None:
    """Drop all collected events and metrics (not the switches)."""
    with _STATE.lock:
        _STATE.buffer.clear()
        _STATE.open_spans.clear()
        _STATE.next_span_id = 0
    _STATE.metrics.reset()


def _emit(event: Dict) -> None:
    """Record one event in the buffer and, when streaming, the file."""
    line = None
    sink = _STATE.sink
    if sink is not None:
        line = json.dumps(event, sort_keys=True, default=str)
    with _STATE.lock:
        _STATE.buffer.append(event)
        if sink is not None and line is not None:
            try:
                sink.write(line + "\n")
            except (OSError, ValueError):
                # A broken sink must never take down analysis; fall back
                # to buffer-only operation.
                _STATE.sink = None


# ----------------------------------------------------------------------
# Spans


class Span:
    """A named, nestable timing scope.

    Always measures wall and CPU time; records trace events only while
    the subsystem is enabled. Use via :func:`span` on hot paths (which
    returns a shared no-op object when disabled) or directly when the
    timing itself is the product (the benchmark harness does this).
    """

    __slots__ = (
        "name", "attrs", "span_id", "parent_id", "depth",
        "_wall_start", "_cpu_start", "wall_s", "cpu_s", "_recording",
    )

    def __init__(self, name: str, **attrs):
        self.name = name
        self.attrs = attrs
        self.span_id = -1
        self.parent_id = -1
        self.depth = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._wall_start = 0.0
        self._cpu_start = 0.0
        self._recording = False

    def set(self, key: str, value) -> None:
        """Attach an attribute (must be JSON-serializable or str()-able)."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self._recording = _STATE.enabled
        if self._recording:
            stack = _STATE.stack()
            with _STATE.lock:
                _STATE.next_span_id += 1
                self.span_id = _STATE.next_span_id
                _STATE.open_spans[self.span_id] = self.name
            self.parent_id = stack[-1].span_id if stack else 0
            self.depth = len(stack)
            stack.append(self)
            event = {
                "type": "start",
                "name": self.name,
                "id": self.span_id,
                "parent": self.parent_id,
                "pid": os.getpid(),
                "ts": round(time.time(), 6),
            }
            rid = current_request_id()
            if rid is not None:
                event["rid"] = rid
            _emit(event)
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_s = time.perf_counter() - self._wall_start
        self.cpu_s = time.process_time() - self._cpu_start
        if self._recording:
            stack = _STATE.stack()
            if stack and stack[-1] is self:
                stack.pop()
            elif self in stack:  # tolerate out-of-order exits
                stack.remove(self)
            with _STATE.lock:
                _STATE.open_spans.pop(self.span_id, None)
            event = {
                "type": "span",
                "name": self.name,
                "id": self.span_id,
                "parent": self.parent_id,
                "depth": self.depth,
                "pid": os.getpid(),
                "ts": round(time.time(), 6),
                "wall_s": round(self.wall_s, 6),
                "cpu_s": round(self.cpu_s, 6),
            }
            rid = current_request_id()
            if rid is not None:
                event["rid"] = rid
            if exc_type is not None:
                event["error"] = exc_type.__name__
            if self.attrs:
                event["attrs"] = {
                    key: self.attrs[key] for key in sorted(self.attrs)
                }
            _emit(event)


class _NullSpan:
    """Shared do-nothing span for disabled runs (no per-call allocation)."""

    __slots__ = ()
    wall_s = 0.0
    cpu_s = 0.0

    def set(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """A recording :class:`Span` when enabled, a shared no-op otherwise."""
    if not _STATE.enabled:
        return _NULL_SPAN
    return Span(name, **attrs)


def unclosed_spans() -> List[str]:
    """Names of spans opened but not yet closed (ideally always empty)."""
    with _STATE.lock:
        return sorted(_STATE.open_spans.values())


# ----------------------------------------------------------------------
# Metric helpers (the hot-path entry points)


def add(name: str, value: int = 1) -> None:
    """Increment a counter (no-op while disabled)."""
    if _STATE.enabled or _STATE.metrics_enabled:
        _STATE.metrics.inc(name, value)


def gauge(name: str, value: float) -> None:
    """Set a gauge (no-op while disabled)."""
    if _STATE.enabled or _STATE.metrics_enabled:
        _STATE.metrics.gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram sample (no-op while disabled)."""
    if _STATE.enabled or _STATE.metrics_enabled:
        _STATE.metrics.observe(name, value)


def observe_bucket(name: str, value: float, **labels: str) -> None:
    """Record a labeled fixed-bucket histogram sample (no-op while
    disabled) — the series Prometheus exposition derives p50/p95/p99
    from."""
    if _STATE.enabled or _STATE.metrics_enabled:
        _STATE.metrics.observe_bucket(name, value, **labels)


def observe_phase(phase: str, seconds: float) -> None:
    """Record one pipeline-phase latency sample (parse / dataplane /
    bdd / delta / lint) into the labeled ``phase.seconds`` histogram."""
    if _STATE.enabled or _STATE.metrics_enabled:
        _STATE.metrics.observe_bucket("phase.seconds", seconds, phase=phase)


def coverage_event(question: str, vector: Dict) -> None:
    """Append one question run's coverage vector (rendered keys) to the
    trace as a ``coverage`` event (no-op unless tracing)."""
    if _STATE.enabled:
        event = {
            "type": "coverage",
            "question": question,
            "pid": os.getpid(),
            "vector": vector,
        }
        rid = current_request_id()
        if rid is not None:
            event["rid"] = rid
        _emit(event)


def metrics() -> Metrics:
    return _STATE.metrics


def metrics_dump() -> Dict:
    return _STATE.metrics.dump()


def merge_worker_dump(dump: Dict) -> None:
    """Fold a pmap worker's ``{"metrics": ..., "coverage": ...}`` delta
    in: its metrics into the registry, its scope vector into the scope
    the map was called from. Gauges merge with their declared modes
    (default ``max`` — chunk completion order is nondeterministic, so
    last-write-wins would be too)."""
    if not dump:
        return
    _STATE.metrics.merge(dump.get("metrics", {}), worker=True)
    _coverage.merge(dump.get("coverage", {}))


def worker_dump(vector: Dict) -> Dict:
    """A worker's outbound delta: its metrics (the registry is reset per
    chunk) and the vector of the chunk's coverage scope."""
    return {"metrics": _STATE.metrics.dump(), "coverage": vector}


def events() -> List[Dict]:
    """The in-memory event buffer (mostly for tests and the report API)."""
    with _STATE.lock:
        return list(_STATE.buffer)


def flush() -> None:
    """Append the metrics snapshot (and unclosed-span list) to the
    trace. Safe to call repeatedly; also runs at interpreter exit
    when tracing was enabled from the environment."""
    if not (_STATE.enabled or _STATE.sink is not None):
        return
    _emit({"type": "metrics", **_STATE.metrics.dump()})
    _emit({"type": "flush", "pid": os.getpid(), "unclosed": unclosed_spans()})


def _configure_from_env() -> None:
    path = os.environ.get("REPRO_TRACE", "").strip()
    if path:
        enable(trace=path)
        atexit.register(flush)


_configure_from_env()
