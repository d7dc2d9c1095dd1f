"""End-to-end observability tests: request-id propagation from the
HTTP edge through the job queue, and across a ``pmap`` fork; Prometheus
exposition served (and strictly validated) over the wire, and readiness
semantics."""

import json
import os
import urllib.error
import urllib.request
from collections import Counter

import pytest

from repro import obs
from repro.obs.prom import parse_exposition
from repro.parallel import fork_available, pmap
from repro.synth.networks import network_by_name
from repro.synth.special import net1


@pytest.fixture(autouse=True)
def obs_clean():
    """The obs registries are process-global; every test in this module
    starts from a blank slate (services re-enable metrics at boot)."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class RawClient:
    """JSON client that can also set headers and read raw bodies."""

    def __init__(self, port: int):
        self.base = f"http://127.0.0.1:{port}"

    def raw(self, method, path, body=None, headers=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()

    def request(self, method, path, body=None, headers=None):
        status, resp_headers, raw = self.raw(method, path, body, headers)
        return status, resp_headers, json.loads(raw)

    def get(self, path, headers=None):
        return self.request("GET", path, headers=headers)

    def post(self, path, body=None, headers=None):
        return self.request("POST", path, body or {}, headers=headers)


@pytest.fixture
def make_raw(make_service):
    def make(**kwargs):
        service, _ = make_service(**kwargs)
        return service, RawClient(service.port)

    return make


class TestRequestIdPropagation:
    def test_header_rid_reaches_job_reply_and_response_header(self, make_raw):
        _, client = make_raw()
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        rid = "req-e2e-propagation"
        status, headers, body = client.post(
            "/snapshots/lab/questions/routes", headers={"X-Request-Id": rid}
        )
        assert status == 200
        assert headers.get("X-Request-Id") == rid
        assert body["request_id"] == rid
        _, _, job = client.get(f"/jobs/{body['id']}")
        assert job["request_id"] == rid
        assert job["queue_s"] >= 0 and job["run_s"] >= 0

    def test_server_mints_rid_when_client_sends_none(self, make_raw):
        _, client = make_raw()
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        status, headers, body = client.post(
            "/snapshots/lab/questions/routes"
        )
        assert status == 200
        rid = headers.get("X-Request-Id")
        assert rid and rid.startswith("req-")
        assert body["request_id"] == rid

    def test_job_span_on_the_worker_thread_carries_rid(self, make_raw):
        """HTTP handler -> queue -> worker thread: the job's spans carry
        the request id the handler adopted."""
        _, client = make_raw()
        obs.enable()  # in-memory spans on top of the service's metrics
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        rid = "req-e2e-lint-worker"
        status, _, body = client.post(
            "/snapshots/lab/questions/lint", headers={"X-Request-Id": rid}
        )
        assert status == 200 and body["status"] == "done"
        jobs = [
            e for e in obs.events()
            if e["type"] == "span" and e["name"] == "service.job"
            and e["attrs"]["question"] == "lint"
        ]
        assert [e.get("rid") for e in jobs] == [rid]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_spans_and_metrics_share_one_rid_across_pmap(self, tmp_path):
        """Spans opened on both sides of the fork boundary carry the same
        request id, and the workers' counters merge back exactly."""
        trace = tmp_path / "trace.jsonl"
        obs.enable(str(trace))

        def work(item):
            obs.add("e2e.items")
            with obs.span("e2e.item", index=item):
                return item

        with obs.context.request_context(request_id="req-e2e-shared") as ctx:
            with obs.span("e2e.request"):
                results = pmap(work, list(range(8)), jobs=2, min_items=2)
        obs.disable()
        assert results == list(range(8))
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        spans = [e for e in events if e["type"] == "span"]
        items = [e for e in spans if e["name"] == "e2e.item"]
        assert len(items) == 8
        assert {e["pid"] for e in items} - {os.getpid()}, "no worker span"
        assert {e["name"] for e in spans} == {"e2e.request", "pmap", "e2e.item"}
        assert {e.get("rid") for e in spans} == {ctx.request_id}
        assert obs.metrics().counter("e2e.items") == 8


class TestPrometheusExposition:
    def test_scrape_is_strictly_valid_and_content_negotiated(self, make_raw):
        _, client = make_raw()
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        client.post("/snapshots/lab/questions/routes")
        status, headers, raw = client.raw(
            "GET", "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert "version=0.0.4" in headers.get("Content-Type", "")
        families = parse_exposition(raw.decode())
        assert "repro_service_request_seconds" in families
        assert "repro_service_queue_depth" in families
        request_family = families["repro_service_request_seconds"]
        assert request_family["type"] == "histogram"
        labels = [
            labels for name, labels, _ in request_family["samples"]
            if name.endswith("_bucket")
        ]
        assert any(
            l.get("question") == "routes" and l.get("disposition") == "ok"
            for l in labels
        )

    @staticmethod
    def _repeated_series(families):
        seen = Counter(
            (name, tuple(sorted(labels.items())))
            for family in families.values()
            for name, labels, _ in family["samples"]
        )
        return sorted(key for key, count in seen.items() if count > 1)

    def test_no_series_repeats_after_one_job(self, make_raw):
        service, client = make_raw()
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        client.post("/snapshots/lab/questions/routes")
        families = parse_exposition(service.prometheus_payload())
        assert self._repeated_series(families) == []
        (depth,) = families["repro_service_queue_depth"]["samples"]
        assert depth == ("repro_service_queue_depth", {}, 0.0)
        (completed,) = families["repro_service_queue_completed_total"]["samples"]
        assert completed[2] == 1.0
        assert not [name for name in families if "service_jobs" in name]

    def test_engine_gauges_label_the_snapshots_that_built_one(self, make_raw):
        """``bdd.nodes`` and ``bdd.ops_cached`` carry one sample per
        snapshot whose analyzer a question built; a snapshot that only
        answered ``routes`` has none (the scrape builds nothing)."""
        service, client = make_raw()
        for name in ("reached", "routed"):
            client.post("/snapshots", {"name": name, "configs": net1(2)})
        status, _, body = client.post("/snapshots/reached/questions/reachability")
        assert status == 200 and body["status"] == "done", body
        status, _, body = client.post("/snapshots/routed/questions/routes")
        assert status == 200 and body["status"] == "done", body
        status, _, raw = client.raw(
            "GET", "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        families = parse_exposition(raw.decode())
        engine = service.store.get("reached").computed("analyzer").encoder.engine
        stats = engine.stats()
        for family, key in (
            ("repro_bdd_nodes", "nodes"), ("repro_bdd_ops_cached", "ops_cached")
        ):
            assert families[family]["type"] == "gauge"
            labelled = [
                (labels, value)
                for _, labels, value in families[family]["samples"]
                if "snapshot" in labels
            ]
            assert labelled == [({"snapshot": "reached"}, float(stats[key]))]
        assert service.store.get("routed").computed("analyzer") is None

    def test_engine_gauges_have_one_sample_per_snapshot(self, make_raw):
        """Two engines of different sizes: ``repro_bdd_nodes`` has one
        labelled sample for each, and no unlabelled one left by whichever
        engine answered last."""
        service, client = make_raw()
        for name, network in (("big", "NET3"), ("small", "NET1")):
            configs = network_by_name(network).generate(1)
            client.post("/snapshots", {"name": name, "configs": configs})
            status, _, body = client.post(f"/snapshots/{name}/questions/reachability")
            assert status == 200 and body["status"] == "done", body
        status, _, raw = client.raw(
            "GET", "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        samples = parse_exposition(raw.decode())["repro_bdd_nodes"]["samples"]
        assert sorted(
            ((labels, value) for _, labels, value in samples),
            key=lambda sample: sorted(sample[0].items()),
        ) == [
            ({"snapshot": name}, float(
                service.store.get(name).computed("analyzer").encoder.engine.num_nodes()
            ))
            for name in ("big", "small")
        ]

    def test_a_mixed_run_scrapes_every_phase_once(self, make_raw):
        service, client = make_raw()
        configs = net1(2)
        client.post("/snapshots", {"name": "lab", "configs": configs})
        for question in ("routes", "reachability", "lint"):
            status, _, body = client.post(f"/snapshots/lab/questions/{question}")
            assert status == 200 and body["status"] == "done", body
        target = sorted(configs)[0]
        status, _, _ = client.request(
            "PATCH", "/snapshots/lab",
            {"configs": {target: configs[target] + "ntp server 10.0.0.9\n"}},
        )
        assert status == 200
        status, _, raw = client.raw(
            "GET", "/metrics", headers={"Accept": "text/plain"}
        )
        families = parse_exposition(raw.decode())
        assert self._repeated_series(families) == []
        phases = {
            labels["phase"]
            for name, labels, _ in families["repro_phase_seconds"]["samples"]
        }
        assert phases == set(obs.PHASES)
        _, _, body = client.get("/metrics")
        assert set(body["queue"]) == {
            "submitted", "completed", "failed", "cancelled", "coalesced",
            "rejected", "timeouts", "depth", "running", "workers",
            "oldest_age_seconds",
        }
        assert body["queue"]["completed"] == 3

    def test_json_mode_remains_default(self, make_raw):
        _, client = make_raw()
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        client.post("/snapshots/lab/questions/routes")
        status, headers, body = client.get("/metrics")
        assert status == 200
        assert "application/json" in headers.get("Content-Type", "")
        assert set(body) == {"queue", "snapshots", "obs"}
        assert body["queue"]["completed"] >= 1
        # Job counts live in the queue block alone.
        counters = body["obs"]["counters"]
        assert not [name for name in counters if name.startswith("service.jobs.")]


class TestReadiness:
    def test_ready_when_idle(self, make_raw):
        _, client = make_raw()
        status, _, body = client.get("/readyz")
        assert status == 200 and body["ready"] is True

    def test_saturated_queue_fails_readiness_but_not_liveness(self, make_raw):
        service, client = make_raw(workers=1, max_queue=1, debug=True)
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        # Occupy the only worker, then fill the queue to capacity.
        client.post(
            "/snapshots/lab/questions/sleep",
            {"params": {"seconds": 1.5}, "wait": False},
        )
        client.post(
            "/snapshots/lab/questions/routes", {"wait": False}
        )
        status, _, body = client.get("/readyz")
        assert status == 503
        assert body["ready"] is False and body["reason"] == "saturated"
        status, _, health = client.get("/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["queue_oldest_age_seconds"] >= 0.0
        service.queue.drain(timeout=10.0)

    def test_draining_fails_readiness(self, make_raw):
        service, client = make_raw(workers=1, debug=True)
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        client.post(
            "/snapshots/lab/questions/sleep",
            {"params": {"seconds": 1.0}, "wait": False},
        )
        # Start the drain without closing the HTTP listener: readiness
        # must flip while in-flight work is still being served.
        service.queue.drain(timeout=0.05)
        status, _, body = client.get("/readyz")
        assert status == 503
        assert body["ready"] is False and body["reason"] == "draining"
        service.queue.drain(timeout=10.0)
