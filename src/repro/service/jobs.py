"""The service's execution core: ``workers`` analysis slots, a bounded
job queue in front of them, request coalescing and graceful
degradation.

Analysis questions are I/O-light but CPU-heavy, and many of them hit
the same lazily-computed session state (data plane, FIBs, BDD engine),
so the execution model is:

* **Slots, not threads.** At most ``workers`` jobs run at once, each on
  the thread that claimed its slot. A caller that will wait
  (``submit(..., run_here=True)``) takes a free slot when nothing is
  queued and runs the job before ``submit`` returns. Else the job
  queues, and the oldest queued job gets a thread of its own
  (``repro-worker-<job id>``) when a slot frees; the queue keeps none.
* **Bounded queue.** Submissions beyond ``max_queue`` queued jobs
  fail fast with :class:`QueueFullError` (HTTP 429) instead of letting
  latency grow without bound — load shedding, not buffering.
* **Coalescing.** An in-flight (queued *or* running) job with the same
  coalesce key — snapshot content key + question + canonical params —
  absorbs duplicate submissions: the caller gets the *same* job, and
  the expensive computation runs once. Continuous-validation clients
  that re-ask on every commit make this hit constantly.
* **Timeouts and cancellation.** A job carries a deadline from
  submission; a queued job past it fails with :class:`JobTimeoutError`
  without running. A cancelled job leaves the queue at once, an overdue
  one at the next queue read (submit, poll, stats or dispatch), so the
  queue holds only jobs that can still run. Running jobs cannot be
  preempted (Python threads) — their results are discarded if nobody
  waits.
* **Thread survival.** Whatever the analysis raises is mapped by
  :func:`to_service_error` into the job's structured error; the thread
  that ran it, the caller or the job's own, never dies of it.
* **Drain.** :meth:`JobQueue.drain` stops intake and waits for every
  queued and running job to finish — the SIGTERM path.

The queue's own always-on counters (:meth:`JobQueue.stats`) are the one
record of job counts and depth; :mod:`repro.obs` gets only what they do
not hold, the latency histograms (when metrics are on).
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
    #: Request attribution carried from the HTTP handler to the thread
    #: that runs a queued job (a job run by its caller runs under the
    #: caller's own context).
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
    """``workers`` analysis slots fed by a bounded queue, executing jobs
    via one callable on the submitting thread or the job's own."""

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
        self._workers = workers
        self.max_queue = max_queue
        self.default_timeout_s = default_timeout_s
        self._max_history = max_history
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._pending: deque = deque()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._inflight: Dict[str, Job] = {}
        self._active = 0
        self._accepting = True
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

    # -- submission --------------------------------------------------------

    def submit(
        self,
        snapshot: str,
        question: str,
        params: Dict,
        coalesce_key: str,
        timeout_s: Optional[float] = None,
        ctx: Optional[RequestContext] = None,
        run_here: bool = False,
    ) -> Tuple[Job, bool]:
        """Enqueue a job, or attach to an identical in-flight one.

        With ``run_here``, a new job that finds nothing queued and a
        slot free runs on the calling thread and is terminal when this
        returns; otherwise it queues as without it.

        Returns ``(job, coalesced)``. Raises :class:`QueueFullError`
        when the bounded queue is at capacity and
        :class:`ShuttingDownError` after drain started.
        """
        if timeout_s is None:
            timeout_s = self.default_timeout_s
        with self._lock:
            if not self._accepting:
                raise ShuttingDownError("service is draining; not accepting jobs")
            self._expire_overdue_locked()
            existing = self._inflight.get(coalesce_key)
            if existing is not None and not existing.terminal:
                existing.coalesced += 1
                self._stats["coalesced"] += 1
                # The absorbed submission costs ~0s of its own; the
                # per-disposition count is the signal, not the latency.
                obs.observe(
                    "service.request.seconds", 0.0,
                    question=question, disposition="coalesced",
                )
                return existing, True
            if len(self._pending) >= self.max_queue:
                self._stats["rejected"] += 1
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
            self._stats["submitted"] += 1
            run_here = (
                run_here and not self._pending and self._active < self._workers
            )
            if run_here:
                self._claim_locked(job)
            else:
                self._pending.append(job)
                self._dispatch_locked()
        if run_here:
            self._run_job(job)
        return job, False

    # -- inspection --------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            self._expire_overdue_locked()
            job = self._jobs.get(job_id)
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
            self._pending.remove(job)
            self._finish_locked(job, JobStatus.CANCELLED)
            self._stats["cancelled"] += 1
        return True

    @property
    def accepting(self) -> bool:
        with self._lock:
            return self._accepting

    def stats(self) -> Dict[str, float]:
        with self._lock:
            self._expire_overdue_locked()
            snapshot = dict(self._stats)
            snapshot["depth"] = len(self._pending)
            snapshot["running"] = self._active
            snapshot["workers"] = self._workers
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
        """Shut the queue down. ``drain=True`` completes outstanding
        work first; ``drain=False`` cancels everything still queued and
        leaves running jobs to finish on their own threads."""
        completed = True
        if drain:
            completed = self.drain(timeout)
        with self._lock:
            self._accepting = False
            while self._pending:
                self._finish_locked(self._pending.popleft(), JobStatus.CANCELLED)
                self._stats["cancelled"] += 1
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

    def _expire_overdue_locked(self) -> None:
        """Fail, and drop from the queue, every queued job past its
        deadline."""
        now = time.time()
        live: deque = deque()
        for job in self._pending:
            deadline = job.deadline
            if deadline is None or now <= deadline:
                live.append(job)
                continue
            error = JobTimeoutError(
                f"job {job.id} timed out after {job.timeout_s}s in queue",
                timeout_s=job.timeout_s,
            )
            job.error = error.payload()
            job.error_status = error.status
            self._finish_locked(job, JobStatus.FAILED)
            self._stats["failed"] += 1
            self._stats["timeouts"] += 1
        self._pending = live

    def _dispatch_locked(self) -> None:
        """Start the oldest queued jobs in the free slots, each on a
        thread of its own that ends with its job."""
        self._expire_overdue_locked()
        while self._pending and self._active < self._workers:
            job = self._pending.popleft()
            self._claim_locked(job)
            threading.Thread(
                target=self._run_queued,
                args=(job,),
                name=f"repro-worker-{job.id}",
                daemon=True,
            ).start()

    def _claim_locked(self, job: Job) -> None:
        job.status = JobStatus.RUNNING
        job.started_ts = time.time()
        self._active += 1

    def _finish_locked(self, job: Job, status: JobStatus) -> None:
        job.status = status
        job.finished_ts = time.time()
        inflight = self._inflight.get(job.coalesce_key)
        if inflight is job:
            del self._inflight[job.coalesce_key]
        job._done.set()
        self._idle.notify_all()

    def _run_queued(self, job: Job) -> None:
        # A new thread starts with no context: the job's own rides from
        # the handler, so its telemetry carries the originating request_id.
        if job.ctx is not None:
            obs.context.activate(job.ctx)
        self._run_job(job)

    def _run_job(self, job: Job) -> None:
        """Execute one claimed job and record its telemetry (on its
        caller's thread, or on its own with the job's request context
        active), then hand its slot to the oldest queued job."""
        error: Optional[ServiceError] = None
        result: Optional[Dict] = None
        # Disposition probe: a delta session bumps these counters when
        # its data plane recomputes a routing stage — on the first job
        # that needs it. Sampling them around the run is approximate
        # under concurrency (another job's recompute can land in the
        # window) but costs nothing and needs no plumbing through the
        # executor.
        fallback_before = _recomputed_stages()
        with obs.span("service.job", question=job.question):
            try:
                result = self._executor(job)
            except BaseException as exc:  # the thread must survive anything
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
            self._dispatch_locked()
            started, finished = job.started_ts, job.finished_ts
        run_s = finished - started
        fell_back = _recomputed_stages() > fallback_before
        if error is not None:
            disposition = "error"
        elif fell_back:
            disposition = "fallback_full"
        else:
            disposition = "ok"
        obs.observe("service.job.queue_seconds", started - job.created_ts)
        obs.observe(
            "service.request.seconds", run_s,
            question=job.question, disposition=disposition,
        )
