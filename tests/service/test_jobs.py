"""Unit tests for the job queue: coalescing, backpressure, timeouts,
cancellation, worker survival, and drain — all against a stub executor
so they run in milliseconds."""

import threading
import time

import pytest

from repro.core.session import NotConvergedError
from repro.obs import context
from repro.service.errors import QueueFullError, ShuttingDownError
from repro.service.jobs import JobQueue, JobStatus


class Blocker:
    """Executor whose 'block' jobs hold a worker until released."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = []

    def __call__(self, job):
        self.calls.append(job.id)
        if job.params.get("block"):
            self.started.set()
            assert self.release.wait(10)
        if job.params.get("raise"):
            raise RuntimeError("executor exploded")
        if job.params.get("diverge"):
            raise NotConvergedError("oscillating prefixes: 10.0.0.0/8")
        return {"question": job.question}


@pytest.fixture
def blocker():
    b = Blocker()
    yield b
    b.release.set()  # never leave a worker stuck past the test


def submit(queue, question="routes", params=None, key=None, **kwargs):
    params = params or {}
    return queue.submit(
        snapshot="snap",
        question=question,
        params=params,
        coalesce_key=key or f"{question}|{sorted(params.items())}",
        **kwargs,
    )


class TestBasics:
    def test_submit_runs_and_completes(self, blocker):
        queue = JobQueue(blocker, workers=2, max_queue=8)
        job, coalesced = submit(queue, "routes")
        assert not coalesced
        assert job.wait(5)
        assert job.status is JobStatus.DONE
        assert job.result == {"question": "routes"}
        assert job.to_json()["run_s"] >= 0
        queue.stop()

    def test_stats_and_depth(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=8)
        job, _ = submit(queue)
        job.wait(5)
        stats = queue.stats()
        assert stats["submitted"] == 1
        assert stats["completed"] == 1
        assert stats["workers"] == 1
        queue.stop()

    def test_get_unknown_job_raises(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=2)
        from repro.service.errors import JobNotFoundError

        with pytest.raises(JobNotFoundError):
            queue.get("job-999999")
        queue.stop()


class TestCoalescing:
    def test_identical_inflight_requests_share_one_job(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=8)
        hold, _ = submit(queue, params={"block": True}, key="hold")
        assert blocker.started.wait(5)  # worker busy
        first, coalesced_first = submit(queue, "routes", key="same")
        second, coalesced_second = submit(queue, "routes", key="same")
        assert not coalesced_first
        assert coalesced_second
        assert second is first
        assert first.coalesced == 1
        assert queue.stats()["coalesced"] == 1
        blocker.release.set()
        assert first.wait(5)
        # Exactly one underlying computation for the two requests.
        assert blocker.calls.count(first.id) == 1
        queue.stop()

    def test_different_keys_do_not_coalesce(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=8)
        hold, _ = submit(queue, params={"block": True}, key="hold")
        assert blocker.started.wait(5)
        a, _ = submit(queue, key="a")
        b, _ = submit(queue, key="b")
        assert a is not b
        blocker.release.set()
        assert a.wait(5) and b.wait(5)
        queue.stop()

    def test_terminal_job_does_not_absorb(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=8)
        first, _ = submit(queue, key="k")
        assert first.wait(5)
        second, coalesced = submit(queue, key="k")
        assert not coalesced
        assert second is not first
        assert second.wait(5)
        queue.stop()


class TestBackpressure:
    def test_queue_full_raises_429_error(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=1)
        submit(queue, params={"block": True}, key="hold")
        assert blocker.started.wait(5)
        submit(queue, key="queued")  # fills the single slot
        with pytest.raises(QueueFullError) as excinfo:
            submit(queue, key="overflow")
        assert excinfo.value.status == 429
        assert queue.stats()["rejected"] == 1
        blocker.release.set()
        queue.stop()

    def test_coalesced_request_bypasses_full_queue(self, blocker):
        # A duplicate of an in-flight job costs no queue slot.
        queue = JobQueue(blocker, workers=1, max_queue=1)
        submit(queue, params={"block": True}, key="hold")
        assert blocker.started.wait(5)
        queued, _ = submit(queue, key="queued")
        dup, coalesced = submit(queue, key="queued")
        assert coalesced and dup is queued
        blocker.release.set()
        queue.stop()


class TestCancellationAndTimeouts:
    def test_cancel_queued_job(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=8)
        submit(queue, params={"block": True}, key="hold")
        assert blocker.started.wait(5)
        job, _ = submit(queue, key="victim")
        assert queue.cancel(job.id)
        assert job.status is JobStatus.CANCELLED
        assert job.wait(1)
        blocker.release.set()
        queue.stop()

    def test_cannot_cancel_running_job(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=8)
        job, _ = submit(queue, params={"block": True}, key="hold")
        assert blocker.started.wait(5)
        assert not queue.cancel(job.id)
        blocker.release.set()
        queue.stop()

    def test_queued_job_times_out(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=8)
        submit(queue, params={"block": True}, key="hold")
        assert blocker.started.wait(5)
        job, _ = submit(queue, key="late", timeout_s=0.01)
        time.sleep(0.05)
        fetched = queue.get(job.id)  # lazy expiry on read
        assert fetched.status is JobStatus.FAILED
        assert fetched.error["error"]["code"] == "job_timeout"
        assert fetched.error_status == 504
        assert queue.stats()["timeouts"] == 1
        blocker.release.set()
        # The worker must skip the expired job, not run it.
        time.sleep(0.1)
        assert job.id not in blocker.calls
        queue.stop()


class TestGracefulDegradation:
    def test_executor_exception_becomes_structured_error(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=8)
        job, _ = submit(queue, params={"raise": True}, key="boom")
        assert job.wait(5)
        assert job.status is JobStatus.FAILED
        assert job.error["error"]["code"] == "internal_error"
        # The worker survived: a follow-up job still runs.
        ok, _ = submit(queue, key="after")
        assert ok.wait(5)
        assert ok.status is JobStatus.DONE
        queue.stop()

    def test_not_converged_maps_to_422(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=8)
        job, _ = submit(queue, params={"diverge": True}, key="osc")
        assert job.wait(5)
        assert job.status is JobStatus.FAILED
        assert job.error_status == 422
        assert job.error["error"]["code"] == "analysis_failed"
        queue.stop()


class TestDrain:
    def test_drain_completes_outstanding_work(self, blocker):
        queue = JobQueue(blocker, workers=2, max_queue=16)
        jobs = [submit(queue, key=f"k{i}")[0] for i in range(6)]
        assert queue.drain(timeout=10)
        assert all(job.status is JobStatus.DONE for job in jobs)

    def test_drain_rejects_new_submissions(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=8)
        assert queue.drain(timeout=5)
        with pytest.raises(ShuttingDownError):
            submit(queue, key="late")
        assert not queue.accepting
        queue.stop()

    def test_drain_waits_for_running_job(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=8)
        job, _ = submit(queue, params={"block": True}, key="hold")
        assert blocker.started.wait(5)
        done = threading.Event()
        result = {}

        def drainer():
            result["clean"] = queue.drain(timeout=10)
            done.set()

        threading.Thread(target=drainer, daemon=True).start()
        time.sleep(0.05)
        assert not done.is_set()  # still waiting on the running job
        blocker.release.set()
        assert done.wait(5)
        assert result["clean"]
        assert job.status is JobStatus.DONE
        queue.stop()

    def test_stop_without_drain_cancels_queued(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=8)
        submit(queue, params={"block": True}, key="hold")
        assert blocker.started.wait(5)
        queued, _ = submit(queue, key="pending")
        blocker.release.set()
        queue.stop(drain=False)
        assert queued.status in (JobStatus.CANCELLED, JobStatus.DONE)


class Gauge:
    """Executor that sleeps a little and records how many jobs it ran at
    once, and on which thread each ran."""

    def __init__(self, seconds=0.05):
        self.seconds = seconds
        self.lock = threading.Lock()
        self.running = 0
        self.peak = 0
        self.threads = {}

    def __call__(self, job):
        with self.lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
            self.threads[job.id] = threading.current_thread().name
        time.sleep(self.seconds)
        with self.lock:
            self.running -= 1
        return {"question": job.question}


class TestSlots:
    """``workers`` is the bound on concurrent jobs, whether a job runs on
    its caller's thread (``run_here``) or on a worker."""

    def test_a_free_slot_runs_the_job_on_its_caller(self):
        gauge = Gauge(seconds=0)
        queue = JobQueue(gauge, workers=1, max_queue=8)
        job, coalesced = submit(queue, key="here", run_here=True)
        assert not coalesced
        # Terminal before submit returned, run on this thread, no wait.
        assert job.status is JobStatus.DONE
        assert gauge.threads[job.id] == threading.current_thread().name
        assert queue.stats()["running"] == 0
        queue.stop()

    def test_waited_and_queued_jobs_never_exceed_the_slots(self):
        gauge = Gauge()
        queue = JobQueue(gauge, workers=1, max_queue=16)
        barrier = threading.Barrier(7)
        jobs = []

        def ask(i, run_here):
            barrier.wait()
            job, _ = submit(queue, key=f"k{i}", run_here=run_here)
            jobs.append(job)
            assert job.wait(10)

        threads = [
            threading.Thread(target=ask, args=(i, i < 6)) for i in range(7)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(15)
        assert len(jobs) == 7
        assert all(job.status is JobStatus.DONE for job in jobs)
        assert gauge.peak == 1
        assert queue.stats()["completed"] == 7
        queue.stop()

    def test_a_twin_attaches_to_the_running_inline_job(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=8)
        answers = []
        caller = threading.Thread(
            target=lambda: answers.append(
                submit(queue, params={"block": True}, key="same", run_here=True)
            )
        )
        caller.start()
        assert blocker.started.wait(5)
        twin, coalesced = submit(queue, params={"block": True}, key="same", run_here=True)
        assert coalesced and twin.status is JobStatus.RUNNING
        blocker.release.set()
        caller.join(5)
        (job, _), = answers
        assert twin is job and job.status is JobStatus.DONE
        assert blocker.calls == [job.id]
        queue.stop()

    def test_a_waited_job_that_finds_the_slot_busy_queues_for_a_worker(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=8)
        caller = threading.Thread(
            target=submit, args=(queue,),
            kwargs=dict(params={"block": True}, key="hold", run_here=True),
        )
        caller.start()
        assert blocker.started.wait(5)
        queued, _ = submit(queue, key="next", run_here=True)
        assert queued.status is JobStatus.QUEUED  # submit did not run it
        time.sleep(0.05)
        assert queued.status is JobStatus.QUEUED  # the worker waits for the slot
        blocker.release.set()
        assert queued.wait(5) and queued.status is JobStatus.DONE
        assert queued.to_json()["queue_s"] > 0
        caller.join(5)
        queue.stop()

    def test_an_inline_job_that_fails_leaves_its_caller_standing(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=8)
        job, _ = submit(queue, params={"raise": True}, key="boom", run_here=True)
        assert job.status is JobStatus.FAILED
        assert job.error_status == 500
        after, _ = submit(queue, key="after", run_here=True)
        assert after.status is JobStatus.DONE
        queue.stop()


class Recorder:
    """Executor wrapper that records the thread each job ran on."""

    def __init__(self, inner):
        self.inner = inner
        self.threads = {}

    def __call__(self, job):
        self.threads[job.id] = threading.current_thread()
        return self.inner(job)


def worker_threads():
    return {t for t in threading.enumerate() if t.name.startswith("repro-worker-")}


class TestQueueHoldsOnlyLiveJobs:
    """A cancelled or overdue job leaves the queue at once: it takes no
    queue place, counts in no depth and blocks no free slot."""

    def test_a_cancelled_job_frees_its_queue_place(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=1)
        submit(queue, params={"block": True}, key="hold")
        assert blocker.started.wait(5)
        victim, _ = submit(queue, key="victim")
        assert queue.cancel(victim.id)
        stats = queue.stats()
        assert stats["depth"] == 0 and stats["oldest_age_seconds"] == 0
        after, _ = submit(queue, key="after")  # not a 429
        assert after.status is JobStatus.QUEUED
        blocker.release.set()
        assert after.wait(5) and after.status is JobStatus.DONE
        queue.stop()

    def test_a_waited_job_takes_the_slot_a_cancelled_job_left(self, blocker):
        recorder = Recorder(blocker)
        queue = JobQueue(recorder, workers=1, max_queue=8)
        answers = []

        def caller():
            submit(queue, params={"block": True}, key="hold", run_here=True)
            job, _ = submit(queue, key="next", run_here=True)
            answers.append((job, job.status))

        thread = threading.Thread(target=caller)
        thread.start()
        assert blocker.started.wait(5)
        victim, _ = submit(queue, key="victim")
        assert queue.cancel(victim.id)
        blocker.release.set()
        thread.join(5)
        (job, status_on_return), = answers
        assert status_on_return is JobStatus.DONE
        assert recorder.threads[job.id] is thread
        assert victim.id not in recorder.threads
        queue.stop()

    def test_an_overdue_job_leaves_the_queue_unpolled(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=1)
        submit(queue, params={"block": True}, key="hold")
        assert blocker.started.wait(5)
        late, _ = submit(queue, key="late", timeout_s=0.01)
        time.sleep(0.05)
        stats = queue.stats()
        assert stats["depth"] == 0 and stats["timeouts"] == 1
        assert late.status is JobStatus.FAILED and late.error_status == 504
        after, _ = submit(queue, key="after")  # not a 429
        blocker.release.set()
        assert after.wait(5) and after.status is JobStatus.DONE
        assert late.id not in blocker.calls
        queue.stop()


class TestThreadLifecycle:
    """The queue keeps no thread: a queued job runs on a thread of its
    own, started when a slot frees and gone when the job ends."""

    def test_a_fresh_queue_starts_no_thread(self, blocker):
        before = worker_threads()
        queue = JobQueue(blocker, workers=2, max_queue=8)
        assert worker_threads() - before == set()
        queue.stop()

    def test_a_queued_job_runs_on_its_own_thread_and_it_ends(self, blocker):
        recorder = Recorder(blocker)
        queue = JobQueue(recorder, workers=1, max_queue=8)
        job, _ = submit(queue, key="queued")
        assert job.wait(5) and job.status is JobStatus.DONE
        thread = recorder.threads[job.id]
        assert thread.name == f"repro-worker-{job.id}"
        thread.join(2)
        assert not thread.is_alive()
        queue.stop()

    def test_stop_without_drain_beside_a_blocked_job_is_prompt(self, blocker):
        queue = JobQueue(blocker, workers=1, max_queue=8)
        running, _ = submit(queue, params={"block": True}, key="hold")
        assert blocker.started.wait(5)
        queued, _ = submit(queue, key="pending")
        started = time.monotonic()
        assert queue.stop(drain=False)
        assert time.monotonic() - started < 1.0
        assert queued.status is JobStatus.CANCELLED
        assert running.status is JobStatus.RUNNING
        blocker.release.set()
        assert running.wait(5) and running.status is JobStatus.DONE

    def test_a_queued_job_runs_under_its_own_context_only(self, blocker):
        seen = {}

        def executor(job):
            seen[job.id] = (threading.current_thread().name, context.current())
            return blocker(job)

        queue = JobQueue(executor, workers=1, max_queue=8)
        other = context.RequestContext(request_id="req-other")
        mine = context.RequestContext(request_id="req-mine")

        def in_other_request(call):
            token = context.activate(other)
            try:
                return call()
            finally:
                context.deactivate(token)

        # Dispatched by a submit on a thread serving another request...
        first, _ = in_other_request(lambda: submit(queue, key="first"))
        assert first.wait(5)
        # ...and by the end of another request's inline job.
        def hold():
            return submit(queue, params={"block": True}, key="hold", run_here=True)

        caller = threading.Thread(target=in_other_request, args=(hold,))
        caller.start()
        assert blocker.started.wait(5)
        bare, _ = submit(queue, key="bare")
        carried, _ = submit(queue, key="carried", ctx=mine)
        blocker.release.set()
        caller.join(5)
        assert bare.wait(5) and carried.wait(5)
        assert seen[first.id] == (f"repro-worker-{first.id}", None)
        assert seen[bare.id] == (f"repro-worker-{bare.id}", None)
        assert seen[carried.id] == (f"repro-worker-{carried.id}", mine)
        (inline_name, inline_ctx), = [
            value for key, value in seen.items()
            if key not in (first.id, bare.id, carried.id)
        ]
        assert inline_name == caller.name and inline_ctx is other
        queue.stop()
