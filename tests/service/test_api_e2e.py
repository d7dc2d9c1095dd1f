"""End-to-end tests: a real server on an ephemeral localhost port,
driven over HTTP — the acceptance surface of the service subsystem.

Covers the full acceptance checklist: snapshot init + questions,
coalescing of concurrent identical requests (one underlying
computation), 429 under a full queue, structured 422 for a snapshot
that fails to converge (without killing a worker), and clean drain on
shutdown with in-flight jobs completing.
"""

import json
import threading
import time

import pytest

from repro.service.jobs import JobStatus
from repro.synth.special import figure1b, net1


class TestSnapshots:
    def test_init_list_get_delete(self, make_service):
        _, client = make_service()
        status, record = client.post(
            "/snapshots", {"name": "lab", "configs": net1(2)}
        )
        assert status == 201
        assert record["devices"] == 4
        status, listing = client.get("/snapshots")
        assert status == 200
        assert [r["name"] for r in listing["snapshots"]] == ["lab"]
        status, one = client.get("/snapshots/lab")
        assert status == 200 and one["key"] == record["key"]
        status, body = client.delete("/snapshots/lab")
        assert status == 200
        status, body = client.get("/snapshots/lab")
        assert status == 404
        assert body["error"]["code"] == "snapshot_not_found"

    def test_conflict_and_bad_requests(self, make_service):
        _, client = make_service()
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        status, body = client.post(
            "/snapshots", {"name": "lab", "configs": net1(2)}
        )
        assert status == 409
        assert body["error"]["code"] == "snapshot_conflict"
        status, body = client.post("/snapshots", {"name": "lab"})
        assert status == 400
        status, body = client.post("/snapshots", {"name": "no/slash",
                                                  "configs": net1(2)})
        assert status == 400

    def test_unknown_path_is_404(self, make_service):
        _, client = make_service()
        status, body = client.get("/nonsense")
        assert status == 404
        assert body["error"]["code"] == "not_found"


class TestQuestions:
    def test_routes_and_reachability_sync(self, make_service):
        _, client = make_service()
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        status, body = client.post("/snapshots/lab/questions/routes")
        assert status == 200
        assert body["status"] == "done"
        assert body["result"]["count"] > 0
        status, body = client.post("/snapshots/lab/questions/reachability")
        assert status == 200
        assert body["result"]["success"]
        assert body["result"]["dispositions"]

    def test_lint_question(self, make_service):
        _, client = make_service()
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        status, body = client.post("/snapshots/lab/questions/lint")
        assert status == 200
        result = body["result"]
        assert set(result) >= {"findings", "summary", "rule_seconds"}
        assert result["summary"]["total"] == len(
            [f for f in result["findings"] if not f.get("suppressed")]
        )
        # Rule filtering through lintconfig params.
        status, body = client.post(
            "/snapshots/lab/questions/lint",
            {"params": {"lintconfig": {"rules": ["duplicate-ip"]}}},
        )
        assert status == 200
        assert set(body["result"]["rule_seconds"]) == {"duplicate-ip"}
        # Malformed lintconfig becomes a structured 400.
        status, body = client.post(
            "/snapshots/lab/questions/lint",
            {"params": {"lintconfig": {"bogus": 1}}},
        )
        assert status == 400
        # Lint runs register per-rule counters on /metrics.
        status, metrics = client.get("/metrics")
        assert status == 200
        counters = metrics["obs"]["counters"]
        assert counters.get("lint.runs", 0) >= 2
        assert "lint.findings.duplicate-ip" in counters

    def test_unknown_question_and_snapshot(self, make_service):
        _, client = make_service()
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        status, body = client.post("/snapshots/lab/questions/divination")
        assert status == 400
        assert body["error"]["code"] == "unknown_question"
        status, body = client.post("/snapshots/ghost/questions/routes")
        assert status == 404

    def test_async_submit_then_poll(self, make_service):
        _, client = make_service()
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        status, body = client.post(
            "/snapshots/lab/questions/routes", {"wait": False}
        )
        assert status in (200, 202)  # may even finish that fast
        job_id = body["id"]
        deadline = time.time() + 30
        while time.time() < deadline:
            status, body = client.get(f"/jobs/{job_id}")
            if body["status"] == "done":
                break
            time.sleep(0.05)
        assert body["status"] == "done"
        assert body["result"]["count"] > 0

    def test_non_convergent_snapshot_returns_422(self, make_service):
        service, client = make_service()
        status, _ = client.post(
            "/snapshots",
            {"name": "osc", "configs": figure1b(),
             "settings": {"schedule": "lockstep", "max_iterations": 40}},
        )
        assert status == 201  # parsing works; divergence shows at question time
        status, body = client.post("/snapshots/osc/questions/routes")
        assert status == 422
        assert body["error"]["code"] == "analysis_failed"
        assert body["error"]["details"]["kind"] == "not_converged"
        assert "10.0.0.0/8" in body["error"]["message"]
        # The worker survived: the service still answers.
        status, health = client.get("/healthz")
        assert status == 200 and health["status"] == "ok"
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        status, body = client.post("/snapshots/lab/questions/routes")
        assert status == 200 and body["status"] == "done"


class TestConcurrency:
    def test_coalescing_and_queue_full(self, make_service):
        # One worker + tiny queue makes scheduling deterministic: hold
        # the worker with a debug sleep, then drive the queue precisely.
        service, client = make_service(workers=1, max_queue=2, debug=True)
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})

        status, blocker = client.post(
            "/snapshots/lab/questions/sleep",
            {"params": {"seconds": 1.5}, "wait": False},
        )
        assert status == 202

        # Two concurrent identical requests -> one job, one computation.
        s1, j1 = client.post("/snapshots/lab/questions/routes", {"wait": False})
        s2, j2 = client.post("/snapshots/lab/questions/routes", {"wait": False})
        assert s1 == 202 and s2 == 202
        assert j1["id"] == j2["id"]
        assert j2["coalesced_request"] is True
        assert service.queue.stats()["coalesced"] >= 1

        # Queue capacity 2: the routes job holds one slot; one more
        # distinct question fits, the next bounces with 429.
        s3, _ = client.post(
            "/snapshots/lab/questions/parse_warnings", {"wait": False}
        )
        assert s3 == 202
        s4, body = client.post(
            "/snapshots/lab/questions/duplicate_ips", {"wait": False}
        )
        assert s4 == 429
        assert body["error"]["code"] == "queue_full"

        status, metrics = client.get("/metrics")
        assert metrics["queue"]["coalesced"] >= 1
        assert metrics["queue"]["rejected"] >= 1

        # Once the blocker finishes, the coalesced job completes once.
        status, body = client.get(f"/jobs/{j1['id']}")
        deadline = time.time() + 30
        while body["status"] not in ("done", "failed") and time.time() < deadline:
            time.sleep(0.1)
            status, body = client.get(f"/jobs/{j1['id']}")
        assert body["status"] == "done"
        assert body["coalesced"] == 1

    def test_cancel_queued_job(self, make_service):
        service, client = make_service(workers=1, max_queue=4, debug=True)
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        client.post(
            "/snapshots/lab/questions/sleep",
            {"params": {"seconds": 1.0}, "wait": False},
        )
        status, job = client.post(
            "/snapshots/lab/questions/routes", {"wait": False}
        )
        status, body = client.delete(f"/jobs/{job['id']}")
        assert status == 200 and body["cancelled"] is True
        status, body = client.get(f"/jobs/{job['id']}")
        assert body["status"] == "cancelled"

    def test_cancelling_the_only_queued_job_empties_the_queue(self, make_service):
        service, client = make_service(workers=1, max_queue=1, debug=True)
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        status, sleeper = client.post(
            "/snapshots/lab/questions/sleep",
            {"params": {"seconds": 1.5}, "wait": False},
        )
        assert status == 202
        deadline = time.time() + 10
        while client.get(f"/jobs/{sleeper['id']}")[1]["status"] == "queued":
            assert time.time() < deadline
            time.sleep(0.01)
        status, job = client.post(
            "/snapshots/lab/questions/routes", {"wait": False}
        )
        assert status == 202 and job["status"] == "queued"
        status, body = client.delete(f"/jobs/{job['id']}")
        assert status == 200 and body["cancelled"] is True
        status, health = client.get("/healthz")
        assert status == 200 and health["queue_depth"] == 0
        assert health["queue_oldest_age_seconds"] == 0
        status, ready = client.get("/readyz")
        assert status == 200 and ready["ready"] is True
        assert ready["queue_depth"] == 0 and "reason" not in ready


class TestObservability:
    def test_healthz_and_metrics_shapes(self, make_service):
        _, client = make_service(cache=None)
        status, health = client.get("/healthz")
        assert status == 200
        assert set(health) == {"status", "snapshots", "queue_depth",
                               "queue_oldest_age_seconds"}
        status, metrics = client.get("/metrics")
        assert status == 200
        assert {"queue", "snapshots", "obs"} <= set(metrics)
        assert {"submitted", "completed", "coalesced", "rejected",
                "depth"} <= set(metrics["queue"])

    def test_cache_stats_surface_when_cached(self, make_service, tmp_path):
        _, client = make_service(cache=str(tmp_path))
        client.post("/snapshots", {"name": "a", "configs": net1(2)})
        client.post("/snapshots", {"name": "b", "configs": net1(2)})
        status, metrics = client.get("/metrics")
        assert metrics["cache"]["hits"] >= 1

    def test_questions_endpoint(self, make_service):
        _, client = make_service()
        status, body = client.get("/questions")
        assert status == 200
        assert "routes" in body["questions"]
        assert "sleep" not in body["questions"]  # debug off by default


class TestShutdown:
    def test_stop_drains_inflight_jobs(self, make_service):
        service, client = make_service(workers=1, max_queue=8, debug=True)
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        status, running = client.post(
            "/snapshots/lab/questions/sleep",
            {"params": {"seconds": 0.8}, "wait": False},
        )
        status, queued = client.post(
            "/snapshots/lab/questions/routes", {"wait": False}
        )
        assert service.stop(drain=True, timeout=30)
        # Both the running and the queued job completed before stop
        # returned — nothing was dropped.
        assert service.queue.get(running["id"]).status is JobStatus.DONE
        assert service.queue.get(queued["id"]).status is JobStatus.DONE
        assert not service.queue.accepting


def _counters(client):
    return client.get("/metrics")[1]["obs"]["counters"]


def _dispositions(client):
    """(question, disposition) -> requests answered so far."""
    buckets = client.get("/metrics")[1]["obs"]["bucket_histograms"]
    return {
        (entry["labels"]["question"], entry["labels"]["disposition"]): entry["count"]
        for entry in buckets.get("service.request.seconds", [])
    }


class TestPatchSnapshot:
    def test_patch_applies_incremental_update(self, make_service, tmp_path):
        # Cache-backed; the PATCH takes unchanged files from the base in
        # memory whether or not a cache is there.
        service, client = make_service(cache=str(tmp_path))
        configs = net1(2)
        status, record = client.post(
            "/snapshots", {"name": "lab", "configs": configs}
        )
        assert status == 201
        client.post("/snapshots/lab/questions/routes", {})  # routing runs
        client.post("/snapshots/lab/questions/reachability", {})  # and the analyzer
        target = sorted(configs)[0]
        inert = configs[target] + "ntp server 203.0.113.250\n"
        status, patched = client.request(
            "PATCH", "/snapshots/lab", {"configs": {target: inert}}
        )
        assert status == 200
        assert patched["key"] != record["key"]
        assert patched["devices"] == record["devices"]
        delta = patched["delta"]
        assert delta["changed_files"] == [target]
        assert delta["seeds"] == []
        assert delta["parse_memo_hits"] == record["devices"] - 1
        # The base's routing had run, so the PATCH ran the new session's:
        # an inert edit takes every stage and keeps every RIB. FIBs and
        # pipelines are counted when a question builds them.
        assert delta["stages"] == {"igp": "reused", "bgp": "reused"}
        assert delta["fallback"] is False and delta["dirty_devices"] == []
        assert delta["reused_devices"] == delta["reused_ribs"] == record["devices"]
        assert delta["reused_fibs"] == 0
        # The replaced session answers questions and GET reflects it.
        status, one = client.get("/snapshots/lab")
        assert status == 200 and one["key"] == patched["key"]
        status, job = client.post("/snapshots/lab/questions/routes", {})
        assert status == 200 and job["result"]["count"] > 0
        assert service.store.get("lab").delta_info.stages == delta["stages"]
        # Delta counters surface in /metrics.
        status, metrics = client.get("/metrics")
        assert status == 200
        assert metrics["obs"]["counters"].get("delta.runs", 0) >= 1
        counters = metrics["obs"]["counters"]
        assert counters["delta.reuse.devices"] >= record["devices"]
        assert counters["delta.reuse.rib"] >= record["devices"]
        assert counters["delta.stage.igp.reused"] >= 1
        # The new session's graph: a fork of the base's engine, one
        # segment compressed and every other taken from the base.
        status, _job = client.post("/snapshots/lab/questions/reachability", {})
        assert status == 200
        after = client.get("/metrics")[1]["obs"]["counters"]

        def grew(name):
            return after.get(name, 0) - counters.get(name, 0)

        assert grew("bdd.fork.trimmed") + grew("bdd.fork.rebuilt") == 1
        assert grew("delta.reuse.pipeline") == record["devices"] - 1
        assert grew("bdd.segments.compressed") == 1

    def test_a_patch_reports_a_recomputed_stage(self, make_service):
        _, client = make_service()
        configs = net1(2)
        client.post("/snapshots", {"name": "lab", "configs": configs})
        client.post("/snapshots/lab/questions/routes", {})
        target = sorted(configs)[0]
        cost = configs[target] + "interface Ethernet0\n ip ospf cost 77\n!\n"
        status, patched = client.request(
            "PATCH", "/snapshots/lab", {"configs": {target: cost}}
        )
        assert status == 200
        delta = patched["delta"]
        hostname = delta["seeds"][0]
        assert delta["stages"]["igp"] == (
            f"recomputed (OSPF inputs of {hostname} changed)"
        )
        assert delta["fallback"] is True
        assert delta["dirty_devices"] == sorted(delta["dirty_devices"])
        assert len(delta["dirty_devices"]) == patched["devices"]

    def test_a_job_that_recomputes_a_stage_is_marked_fallback_full(
        self, make_service
    ):
        """A PATCH on a snapshot whose routing never ran leaves the
        delta's routing to the first question, which recomputes it: that
        request is counted under the ``fallback_full`` disposition, the
        next one under ``ok``."""
        _, client = make_service()
        configs = net1(2)
        client.post("/snapshots", {"name": "lab", "configs": configs})
        target = sorted(configs)[0]
        cost = configs[target] + "interface Ethernet0\n ip ospf cost 77\n!\n"
        status, patched = client.request(
            "PATCH", "/snapshots/lab", {"configs": {target: cost}}
        )
        assert status == 200
        # Not computed yet: unknown, not "nothing recomputed".
        delta = patched["delta"]
        assert delta["stages"] is delta["fallback"] is delta["dirty_devices"] is None
        recomputed = _counters(client).get("delta.stage.igp.recomputed", 0)
        before = _dispositions(client)
        status, _job = client.post("/snapshots/lab/questions/routes", {})
        assert status == 200
        client.post("/snapshots/lab/questions/undefined_references", {})
        assert _counters(client)["delta.stage.igp.recomputed"] == recomputed + 1
        after = _dispositions(client)
        grown = {key for key in after if after[key] > before.get(key, 0)}
        assert grown == {
            ("routes", "fallback_full"), ("undefined_references", "ok"),
        }

    def test_patch_error_shapes(self, make_service):
        _, client = make_service()
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        status, body = client.request(
            "PATCH", "/snapshots/nope", {"configs": {"x": "hostname x\n"}}
        )
        assert status == 404
        assert body["error"]["code"] == "snapshot_not_found"
        status, body = client.request(
            "PATCH", "/snapshots/lab", {"configs": {}}
        )
        assert status == 400
        status, body = client.request("PATCH", "/snapshots/lab", {})
        assert status == 400


class TestKeepAlive:
    def test_replies_on_one_connection_do_not_wait_out_nagle(self, make_service):
        """Each reply leaves in one write. Headers and body written
        separately made every reply after the first on a keep-alive
        connection wait ~40 ms for the client's delayed ACK (20 requests
        took ~0.85 s); one segment per reply needs no ACK to proceed."""
        import http.client

        service, _ = make_service(cache=None)
        connection = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
        try:
            started = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                body = response.read()
                assert response.status == 200
                assert int(response.getheader("Content-Length")) == len(body)
                assert json.loads(body)["status"] == "ok"
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.3, f"20 keep-alive GETs took {elapsed:.3f}s"

    def test_http_09_request_gets_a_bare_body(self, make_service):
        """A version-less request line has no header block to join the
        body to; it must still be answered, not kill the handler."""
        import socket

        service, _ = make_service(cache=None)
        with socket.create_connection(("127.0.0.1", service.port), timeout=10) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            received = b""
            while chunk := sock.recv(4096):
                received += chunk
        assert json.loads(received)["status"] == "ok"


class _PeakExecutor:
    """Wraps a service's job executor: counts the jobs it runs, the most
    it ran at once, and the threads it ran them on; ``started`` is set
    when a job begins."""

    def __init__(self, service):
        self.inner = service.queue._executor
        service.queue._executor = self
        self.lock = threading.Lock()
        self.started = threading.Event()
        self.running = self.peak = self.calls = 0
        self.threads = []

    def __call__(self, job):
        with self.lock:
            self.calls += 1
            self.threads.append(threading.current_thread().name)
            self.running += 1
            self.peak = max(self.peak, self.running)
        self.started.set()
        try:
            return self.inner(job)
        finally:
            with self.lock:
                self.running -= 1


def _in_thread(call, *args):
    """Start ``call(*args)`` on a thread; returns (thread, answers)."""
    answers = []
    thread = threading.Thread(target=lambda: answers.append(call(*args)))
    thread.start()
    return thread, answers


class TestAnalysisSlots:
    """``workers`` bounds the questions running at once, whether a
    question runs on the connection thread that accepted it (a waited
    POST that finds a slot free) or on a worker."""

    def test_waited_and_queued_questions_share_one_slot(self, make_service):
        service, client = make_service(workers=1, max_queue=16, debug=True)
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        executor = _PeakExecutor(service)
        barrier = threading.Barrier(7)
        answers = []

        def ask(i):
            body = {"params": {"seconds": 0.05 + i / 1000}}
            if i == 6:
                body["wait"] = False
            barrier.wait()
            answers.append((i, *client.post("/snapshots/lab/questions/sleep", body)))

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(7)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        statuses = {i: status for i, status, _ in answers}
        assert statuses == {**dict.fromkeys(range(6), 200), 6: 202}
        (later,) = [job for i, _, job in answers if i == 6]
        assert service.queue.get(later["id"]).wait(10)
        assert executor.calls == 7
        assert executor.peak == 1

    def test_a_waited_question_with_a_free_slot_runs_on_its_connection_thread(
        self, make_service
    ):
        service, client = make_service(workers=1)
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        executor = _PeakExecutor(service)
        status, job = client.post("/snapshots/lab/questions/routes", {})
        assert status == 200 and job["status"] == "done"
        assert executor.threads == ["repro-service-http"]

    def test_a_twin_of_an_inline_run_is_coalesced(self, make_service):
        service, client = make_service(workers=1, debug=True)
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        executor = _PeakExecutor(service)
        body = {"params": {"seconds": 0.6}}
        thread, first = _in_thread(client.post, "/snapshots/lab/questions/sleep", body)
        assert executor.started.wait(10)
        status, twin = client.post("/snapshots/lab/questions/sleep", body)
        thread.join(10)
        assert status == 200 and twin["coalesced_request"] is True
        assert first[0][0] == 200 and first[0][1]["id"] == twin["id"]
        assert executor.calls == 1

    def test_wait_false_with_a_free_slot_still_answers_202(self, make_service):
        service, client = make_service(workers=1, debug=True)
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        status, job = client.post(
            "/snapshots/lab/questions/sleep",
            {"params": {"seconds": 0.2}, "wait": False},
        )
        assert status == 202 and job["status"] in ("queued", "running")
        assert service.queue.get(job["id"]).wait(10)

    def test_a_waited_question_that_finds_the_slot_busy_queues(self, make_service):
        service, client = make_service(workers=1, debug=True)
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        executor = _PeakExecutor(service)
        thread, _ = _in_thread(
            client.post, "/snapshots/lab/questions/sleep", {"params": {"seconds": 0.5}}
        )
        assert executor.started.wait(10)
        status, job = client.post("/snapshots/lab/questions/routes", {})
        thread.join(10)
        assert status == 200 and job["status"] == "done"
        assert job["queue_s"] > 0
        assert executor.peak == 1
        assert executor.threads[1].startswith("repro-worker-")


class TestConnectionThreads:
    def test_a_fresh_service_starts_no_worker_thread(self, make_service):
        def workers():
            return {
                t for t in threading.enumerate()
                if t.name.startswith("repro-worker-")
            }

        before = workers()
        make_service(workers=2)
        assert workers() - before == set()

    def test_idle_keep_alive_connections_do_not_hold_up_a_new_client(
        self, make_service
    ):
        import http.client

        service, client = make_service(workers=2, cache=None)
        idle = []
        try:
            for _ in range(2 + 2):
                connection = http.client.HTTPConnection(
                    "127.0.0.1", service.port, timeout=10
                )
                connection.request("GET", "/healthz")
                assert connection.getresponse().read()
                idle.append(connection)  # open, and idle from here on
            started = time.perf_counter()
            status, _ = client.get("/healthz")
            elapsed = time.perf_counter() - started
        finally:
            for connection in idle:
                connection.close()
        assert status == 200
        assert elapsed < 1.0, f"a new client waited {elapsed:.3f}s"

    def test_a_sequential_client_starts_no_thread_per_request(
        self, make_service, monkeypatch
    ):
        service, client = make_service(workers=2, cache=None)
        assert client.get("/healthz")[0] == 200
        after_first = _settled_thread_count()
        starts = []
        start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start",
            lambda thread: (starts.append(thread.name), start(thread))[1],
        )
        for _ in range(500):
            assert client.get("/healthz")[0] == 200
        monkeypatch.undo()
        assert _settled_thread_count(after_first) == after_first
        # A spare starts only when a request arrives before the thread
        # that served the previous one is back in accept().
        assert len(starts) < 100, starts[:5]

    def test_stop_returns_promptly_with_idle_keep_alive_connections(
        self, make_service
    ):
        import http.client

        service, _ = make_service(workers=2, cache=None)
        idle = []
        try:
            for _ in range(3):
                connection = http.client.HTTPConnection(
                    "127.0.0.1", service.port, timeout=10
                )
                connection.request("GET", "/healthz")
                assert connection.getresponse().read()
                idle.append(connection)
            started = time.perf_counter()
            assert service.stop(drain=True, timeout=10)
            elapsed = time.perf_counter() - started
        finally:
            for connection in idle:
                connection.close()
        assert elapsed < 1.0, f"stop took {elapsed:.3f}s"

    def test_a_service_started_again_after_stop_keeps_serving(self, make_service):
        import http.client

        service, _ = make_service(workers=1, cache=None)
        service.stop(drain=False, timeout=10)
        service.start()
        for _ in range(5):
            connection = http.client.HTTPConnection(
                "127.0.0.1", service.port, timeout=5
            )
            try:
                connection.request("GET", "/healthz")
                assert connection.getresponse().status == 200
            finally:
                connection.close()


def _settled_thread_count(expected=None, seconds=5.0):
    """``threading.active_count()`` once it stops moving (or reaches
    ``expected``): a connection thread that finished its connection
    needs a moment to go back to accept() or exit."""
    deadline = time.monotonic() + seconds
    count = threading.active_count()
    while time.monotonic() < deadline:
        time.sleep(0.05)
        now = threading.active_count()
        if now == expected or (expected is None and now == count):
            return now
        count = now
    return threading.active_count()


class TestPatchedSnapshotRace:
    def test_concurrent_questions_on_a_just_patched_snapshot(self, make_service):
        """Four clients ask routes and reachability on a snapshot just
        PATCHed, at once: the first question on each new session builds
        its data plane and forwarding graph, under the session's stage
        locks, on whichever connection thread runs it. Every answer is a
        scratch session's."""
        from repro.core.session import Session
        from repro.service.serialize import run_question

        class Store:
            def __init__(self, session):
                self.session = session

            def get(self, name):
                return self.session

        _, client = make_service(workers=4, max_queue=16)
        configs = net1(2)
        client.post("/snapshots", {"name": "lab", "configs": configs})
        target = sorted(configs)[0]
        node = sorted(configs)[-1]
        asks = (
            ("routes", {}),
            ("routes", {"node": node}),
            ("reachability", {}),
            ("reachability", {"headerspace": {"dst": "172.19.0.0/16"}}),
        )
        for round_ in range(5):
            texts = dict(configs)
            texts[target] = (
                configs[target]
                + f"ip route 203.0.113.{16 * round_} 255.255.255.240 Null0\n"
            )
            status, _ = client.request(
                "PATCH", "/snapshots/lab", {"configs": {target: texts[target]}}
            )
            assert status == 200
            barrier = threading.Barrier(len(asks))
            answers = {}

            def ask(question, params):
                barrier.wait()
                answers[question, json.dumps(params)] = client.post(
                    f"/snapshots/lab/questions/{question}", {"params": params}
                )

            threads = [threading.Thread(target=ask, args=pair) for pair in asks]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            scratch = Store(Session.from_texts(texts))
            for question, params in asks:
                status, job = answers[question, json.dumps(params)]
                assert status == 200, (round_, question, job)
                expected = run_question(scratch, "lab", question, params)
                assert job["result"] == json.loads(json.dumps(expected)), (
                    round_, question, params,
                )
