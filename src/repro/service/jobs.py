"""The service's execution core: a bounded job queue over a thread
worker pool, with request coalescing and graceful degradation.

Analysis questions are I/O-light but CPU-heavy, and many of them hit
the same lazily-computed session state (data plane, FIBs, BDD engine),
so the execution model is:

* **Bounded queue + fixed workers.** Submissions beyond ``max_queue``
  fail fast with :class:`QueueFullError` (HTTP 429) instead of letting
  latency grow without bound — load shedding, not buffering.
* **Coalescing.** An in-flight (queued *or* running) job with the same
  coalesce key — snapshot content key + question + canonical params —
  absorbs duplicate submissions: the caller gets the *same* job, and
  the expensive computation runs once. Continuous-validation clients
  that re-ask on every commit make this hit constantly.
* **Timeouts and cancellation.** A job carries a deadline from
  submission; if no worker reaches it in time it fails with
  :class:`JobTimeoutError` without ever running. Queued jobs can be
  cancelled; running jobs cannot be preempted (Python threads), which
  the API documents — their results are simply discarded if nobody
  waits.
* **Worker survival.** Whatever the analysis raises is mapped by
  :func:`to_service_error` into the job's structured error; the worker
  thread itself never dies.
* **Drain.** :meth:`JobQueue.drain` stops intake and waits for every
  queued and running job to finish — the SIGTERM path.

Queue depth, job latency, and coalesce hits are mirrored to
:mod:`repro.obs` metrics (when enabled) on top of the queue's own
always-on counters.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro import obs
from repro.obs.context import RequestContext
from repro.service.errors import (
    JobNotFoundError,
    JobTimeoutError,
    QueueFullError,
    ServiceError,
    ShuttingDownError,
    to_service_error,
)

#: Terminal jobs retained for GET /jobs/{id} after completion.
DEFAULT_MAX_HISTORY = 1024


def _recomputed_stages() -> int:
    """Routing stages delta sessions have recomputed so far."""
    counter = obs.metrics().counter
    return counter("delta.stage.igp.recomputed") + counter("delta.stage.bgp.recomputed")


class JobStatus(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


_TERMINAL = (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)


@dataclass
class Job:
    """One question execution request and its lifecycle state."""

    id: str
    snapshot: str
    question: str
    params: Dict
    coalesce_key: str
    timeout_s: Optional[float] = None
    status: JobStatus = JobStatus.QUEUED
    result: Optional[Dict] = None
    #: Structured error payload (ServiceError.payload()) plus its HTTP
    #: status, set when status is FAILED.
    error: Optional[Dict] = None
    error_status: int = 0
    created_ts: float = field(default_factory=time.time)
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    #: How many extra submissions were absorbed by this job.
    coalesced: int = 0
    #: Request attribution carried from the HTTP handler into the worker
    #: thread.
    ctx: Optional[RequestContext] = None
    #: The running question's latest progress report (a sweep's
    #: done/total/pruned), shown while the job runs.
    progress: Optional[Dict] = None
    _done: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    @property
    def deadline(self) -> Optional[float]:
        if self.timeout_s is None:
            return None
        return self.created_ts + self.timeout_s

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state (True) or the
        wait times out (False — the job keeps going)."""
        return self._done.wait(timeout)

    def to_json(self) -> Dict:
        body: Dict = {
            "id": self.id,
            "snapshot": self.snapshot,
            "question": self.question,
            "status": self.status.value,
            "coalesced": self.coalesced,
            "created_ts": round(self.created_ts, 3),
        }
        if self.ctx is not None:
            body["request_id"] = self.ctx.request_id
        if self.status is JobStatus.RUNNING and self.progress is not None:
            body["progress"] = self.progress
        if self.started_ts is not None:
            body["queue_s"] = round(self.started_ts - self.created_ts, 6)
        if self.finished_ts is not None and self.started_ts is not None:
            body["run_s"] = round(self.finished_ts - self.started_ts, 6)
        if self.result is not None:
            body["result"] = self.result
        if self.error is not None:
            body.update(self.error)  # {"error": {...}}
        return body


class JobQueue:
    """Bounded queue + worker pool executing jobs via one callable."""

    def __init__(
        self,
        executor: Callable[[Job], Dict],
        workers: int = 2,
        max_queue: int = 64,
        default_timeout_s: Optional[float] = None,
        max_history: int = DEFAULT_MAX_HISTORY,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self._executor = executor
        self.max_queue = max_queue
        self.default_timeout_s = default_timeout_s
        self._max_history = max_history
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._pending: deque = deque()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._inflight: Dict[str, Job] = {}
        self._active = 0
        self._accepting = True
        self._stopped = False
        self._next_id = 0
        self._stats = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "coalesced": 0,
            "rejected": 0,
            "timeouts": 0,
        }
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission --------------------------------------------------------

    def submit(
        self,
        snapshot: str,
        question: str,
        params: Dict,
        coalesce_key: str,
        timeout_s: Optional[float] = None,
        ctx: Optional[RequestContext] = None,
    ) -> Tuple[Job, bool]:
        """Enqueue a job, or attach to an identical in-flight one.

        Returns ``(job, coalesced)``. Raises :class:`QueueFullError`
        when the bounded queue is at capacity and
        :class:`ShuttingDownError` after drain started.
        """
        if timeout_s is None:
            timeout_s = self.default_timeout_s
        with self._lock:
            if not self._accepting:
                raise ShuttingDownError("service is draining; not accepting jobs")
            existing = self._inflight.get(coalesce_key)
            if existing is not None and not existing.terminal:
                existing.coalesced += 1
                self._stats["coalesced"] += 1
                obs.add("service.jobs.coalesced")
                # The absorbed submission costs ~0s of its own; the
                # per-disposition count is the signal, not the latency.
                obs.observe_bucket(
                    "service.request.seconds", 0.0,
                    question=question, disposition="coalesced",
                )
                return existing, True
            if len(self._pending) >= self.max_queue:
                self._stats["rejected"] += 1
                obs.add("service.jobs.rejected")
                raise QueueFullError(
                    f"job queue is full ({self.max_queue} pending)",
                    max_queue=self.max_queue,
                )
            self._next_id += 1
            job = Job(
                id=f"job-{self._next_id:06d}",
                snapshot=snapshot,
                question=question,
                params=params,
                coalesce_key=coalesce_key,
                timeout_s=timeout_s,
                ctx=ctx,
            )
            self._jobs[job.id] = job
            self._trim_history_locked()
            self._inflight[coalesce_key] = job
            self._pending.append(job)
            self._stats["submitted"] += 1
            depth = len(self._pending)
            self._not_empty.notify()
        obs.add("service.jobs.submitted")
        obs.gauge("service.queue.depth", depth)
        return job, False

    # -- inspection --------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None and job.status is JobStatus.QUEUED:
                self._expire_locked(job)
        if job is None:
            raise JobNotFoundError(f"no job {job_id!r}", id=job_id)
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job (True). Running/terminal jobs are not
        cancellable — Python threads cannot be preempted — and return
        False."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobNotFoundError(f"no job {job_id!r}", id=job_id)
            if job.status is not JobStatus.QUEUED:
                return False
            self._finish_locked(job, JobStatus.CANCELLED)
            self._stats["cancelled"] += 1
        obs.add("service.jobs.cancelled")
        return True

    def depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def oldest_age(self) -> float:
        """Age in seconds of the oldest still-queued job (0.0 when the
        queue is empty) — the readiness signal that catches a wedged
        worker pool even when depth looks acceptable."""
        with self._lock:
            if not self._pending:
                return 0.0
            return max(0.0, time.time() - self._pending[0].created_ts)

    @property
    def accepting(self) -> bool:
        with self._lock:
            return self._accepting

    def stats(self) -> Dict[str, float]:
        with self._lock:
            snapshot = dict(self._stats)
            snapshot["depth"] = len(self._pending)
            snapshot["running"] = self._active
            snapshot["workers"] = len(self._threads)
            oldest = 0.0
            if self._pending:
                oldest = max(0.0, time.time() - self._pending[0].created_ts)
            snapshot["oldest_age_seconds"] = round(oldest, 3)
        return snapshot

    # -- lifecycle ---------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop intake and wait for queued + running jobs to finish.

        Returns True when everything completed within ``timeout``
        (None = wait forever).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self._accepting = False
            while self._pending or self._active:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> bool:
        """Shut the pool down. ``drain=True`` completes outstanding
        work first; ``drain=False`` cancels everything still queued."""
        completed = True
        if drain:
            completed = self.drain(timeout)
        with self._lock:
            self._accepting = False
            while self._pending:
                job = self._pending.popleft()
                if job.status is JobStatus.QUEUED:
                    self._finish_locked(job, JobStatus.CANCELLED)
                    self._stats["cancelled"] += 1
            self._stopped = True
            self._not_empty.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)
        return completed

    # -- internals ---------------------------------------------------------

    def _trim_history_locked(self) -> None:
        while len(self._jobs) > self._max_history:
            for job_id, job in self._jobs.items():
                if job.terminal:
                    del self._jobs[job_id]
                    break
            else:
                return  # everything live; let history run long

    def _expire_locked(self, job: Job) -> bool:
        """Fail a queued job whose deadline passed (lazy check from
        get(); the worker makes the same check before running). Returns
        True when the job expired."""
        deadline = job.deadline
        if deadline is not None and time.time() > deadline:
            error = JobTimeoutError(
                f"job {job.id} timed out after {job.timeout_s}s in queue",
                timeout_s=job.timeout_s,
            )
            job.error = error.payload()
            job.error_status = error.status
            self._finish_locked(job, JobStatus.FAILED)
            self._stats["failed"] += 1
            self._stats["timeouts"] += 1
            obs.add("service.jobs.timeouts")
            return True
        return False

    def _finish_locked(self, job: Job, status: JobStatus) -> None:
        job.status = status
        job.finished_ts = time.time()
        inflight = self._inflight.get(job.coalesce_key)
        if inflight is job:
            del self._inflight[job.coalesce_key]
        job._done.set()
        self._idle.notify_all()

    def _worker(self) -> None:
        while True:
            with self._not_empty:
                while not self._pending and not self._stopped:
                    self._not_empty.wait()
                if not self._pending and self._stopped:
                    return
                job = self._pending.popleft()
                if job.terminal:  # cancelled (or expired) while queued
                    self._idle.notify_all()
                    continue
                if self._expire_locked(job):
                    continue
                job.status = JobStatus.RUNNING
                job.started_ts = time.time()
                self._active += 1
                obs.gauge("service.queue.depth", len(self._pending))
            # The job's request context rides from the handler thread to
            # this worker, so all telemetry below carries the
            # originating request_id.
            token = (
                obs.context.activate(job.ctx) if job.ctx is not None else None
            )
            try:
                self._run_job(job)
            finally:
                if token is not None:
                    obs.context.deactivate(token)

    def _run_job(self, job: Job) -> None:
        """Execute one claimed job and record its telemetry (runs on a
        worker thread with the job's request context active)."""
        error: Optional[ServiceError] = None
        result: Optional[Dict] = None
        # Disposition probe: a delta session bumps these counters when
        # its data plane recomputes a routing stage — on the first job
        # that needs it. Sampling them around the run is approximate
        # under concurrency (another worker's recompute can land in the
        # window) but costs nothing and needs no plumbing through the
        # executor.
        fallback_before = _recomputed_stages()
        with obs.span("service.job", question=job.question):
            try:
                result = self._executor(job)
            except BaseException as exc:  # worker must survive anything
                error = to_service_error(exc)
        with self._lock:
            self._active -= 1
            if error is None:
                job.result = result
                self._finish_locked(job, JobStatus.DONE)
                self._stats["completed"] += 1
            else:
                job.error = error.payload()
                job.error_status = error.status
                self._finish_locked(job, JobStatus.FAILED)
                self._stats["failed"] += 1
            started, finished = job.started_ts, job.finished_ts
        run_s = finished - started
        fell_back = _recomputed_stages() > fallback_before
        if error is not None:
            disposition = "error"
        elif fell_back:
            disposition = "fallback_full"
        else:
            disposition = "ok"
        obs.add("service.jobs.completed" if error is None else "service.jobs.failed")
        obs.observe("service.job.seconds", run_s)
        obs.observe("service.job.queue_seconds", started - job.created_ts)
        obs.observe_bucket(
            "service.request.seconds", run_s,
            question=job.question, disposition=disposition,
        )
