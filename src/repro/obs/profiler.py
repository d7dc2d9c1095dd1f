"""Opt-in sampling profiler: periodic thread-stack snapshots.

When a job is slow in production the question is never "was it slow"
(the histograms say so) but "*where* was it slow" — and attaching a
deterministic profiler to a live service is exactly the 2x-overhead
bargain nobody takes. This sampler takes the aircraft-style trade
instead: a daemon thread wakes ``REPRO_PROFILE_HZ`` times a second,
walks every Python thread's current stack via
``sys._current_frames()``, and aggregates two views:

* **self** — the leaf frame (where the CPU actually is);
* **cumulative** — every frame on the stack (who is responsible).

Sampling cost is a few microseconds per thread per tick, independent of
how hot the profiled code is, so even 100 Hz stays far inside the
obs-overhead budget. The aggregated top-frames report is attached to
slow-job postmortem bundles (see :mod:`repro.service.jobs`) and
rendered by ``python -m repro profile``.

Off by default; enable with ``REPRO_PROFILE_HZ=50`` in the service
environment or programmatically via :func:`start`.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Dict, List, Optional


def hz_from_env() -> float:
    raw = os.environ.get("REPRO_PROFILE_HZ", "").strip()
    if not raw:
        return 0.0
    try:
        value = float(raw)
    except ValueError:
        return 0.0
    return value if value > 0 else 0.0


class SamplingProfiler:
    """A daemon thread sampling all Python stacks at a fixed rate."""

    def __init__(self, hz: float = 50.0, max_depth: int = 64):
        if hz <= 0:
            raise ValueError("sampling rate must be positive")
        self.hz = hz
        self.interval = 1.0 / hz
        self.max_depth = max_depth
        self.samples = 0
        self.started_ts: Optional[float] = None
        self._self_counts: Dict[str, int] = {}
        self._cumulative_counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        self.started_ts = time.time()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- sampling -------------------------------------------------------

    def _run(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.wait(self.interval):
            self._sample(own_id)

    def _sample(self, skip_thread_id: int) -> None:
        frames = sys._current_frames()
        with self._lock:
            self.samples += 1
            for thread_id, frame in frames.items():
                if thread_id == skip_thread_id:
                    continue
                depth = 0
                leaf = True
                seen = set()
                while frame is not None and depth < self.max_depth:
                    code = frame.f_code
                    key = (
                        f"{code.co_name} "
                        f"({os.path.basename(code.co_filename)}:{code.co_firstlineno})"
                    )
                    if leaf:
                        self._self_counts[key] = self._self_counts.get(key, 0) + 1
                        leaf = False
                    if key not in seen:  # recursion: count a frame once
                        seen.add(key)
                        self._cumulative_counts[key] = (
                            self._cumulative_counts.get(key, 0) + 1
                        )
                    frame = frame.f_back
                    depth += 1

    # -- reporting ------------------------------------------------------

    def report(self, top: int = 25) -> Dict:
        """JSON-ready top-frames report (attached to postmortems)."""
        with self._lock:
            samples = self.samples
            self_counts = dict(self._self_counts)
            cumulative = dict(self._cumulative_counts)

        def ranked(counts: Dict[str, int]) -> List[Dict]:
            rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
            return [
                {
                    "frame": frame,
                    "count": count,
                    "fraction": round(count / samples, 4) if samples else 0.0,
                }
                for frame, count in rows
            ]

        return {
            "schema": "repro-profile/v1",
            "hz": self.hz,
            "samples": samples,
            "duration_s": (
                round(time.time() - self.started_ts, 3) if self.started_ts else 0.0
            ),
            "self": ranked(self_counts),
            "cumulative": ranked(cumulative),
        }


def render_report(report: Dict) -> str:
    """Human rendering of a :meth:`SamplingProfiler.report` dict."""
    lines = [
        f"== sampling profile ({report.get('hz', '?')} Hz, "
        f"{report.get('samples', 0)} samples over "
        f"{report.get('duration_s', 0.0)}s) =="
    ]
    for section, title in (("self", "self (leaf frames)"),
                           ("cumulative", "cumulative (on-stack)")):
        lines.append(f"-- {title} --")
        rows = report.get(section, [])
        if not rows:
            lines.append("  (no samples)")
        for row in rows:
            lines.append(
                f"  {row.get('fraction', 0.0) * 100:5.1f}%  "
                f"{row.get('count', 0):>6}  {row.get('frame', '?')}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Process-global instance (the service wires this up)

_PROFILER: Optional[SamplingProfiler] = None


def start(hz: float) -> SamplingProfiler:
    """Start (or return) the process-global profiler."""
    global _PROFILER
    if _PROFILER is None or not _PROFILER.running:
        _PROFILER = SamplingProfiler(hz=hz).start()
    return _PROFILER


def maybe_start_from_env() -> Optional[SamplingProfiler]:
    """Start the global profiler iff ``REPRO_PROFILE_HZ`` is set."""
    hz = hz_from_env()
    if hz > 0:
        return start(hz)
    return None


def active() -> Optional[SamplingProfiler]:
    """The running global profiler, or None."""
    if _PROFILER is not None and _PROFILER.running:
        return _PROFILER
    return None


def stop() -> None:
    global _PROFILER
    if _PROFILER is not None:
        _PROFILER.stop()
        _PROFILER = None
