"""End-to-end tests for the sweep question: async-202 by default,
poll-to-done with streamed progress, strict parameter validation."""

import sys
import threading
import time

import pytest

from repro.sweep import engine as sweep_engine
from repro.synth.special import net1

sys.path.insert(0, "tests")
from sweep.conftest import LAB_CONFIGS  # noqa: E402


def _poll_done(client, job_id, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, body = client.get(f"/jobs/{job_id}")
        assert status == 200
        if body["status"] in ("done", "failed"):
            return body
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished: {body}")


CHAIN_PARAMS = {
    "k": 1,
    "kinds": ["link"],
    "property": {
        "src_node": "r1",
        "src_interface": "Ethernet0",
        "dst_ip": "10.99.0.1",
    },
}


class TestSweepQuestion:
    def test_async_by_default(self, make_service):
        _, client = make_service()
        client.post("/snapshots", {"name": "lab", "configs": dict(LAB_CONFIGS)})
        status, body = client.post(
            "/snapshots/lab/questions/sweep", {"params": CHAIN_PARAMS}
        )
        # sweep defaults to submit-then-poll, unlike every sync question
        assert status in (200, 202)
        assert "id" in body
        result = _poll_done(client, body["id"])
        assert result["status"] == "done", result
        answer = result["result"]
        assert answer["schema"] == "repro-sweep/v1"
        assert answer["base_verdict"]["holds"] is True
        assert answer["stats"]["scenarios"] == 3
        spofs = [f for f in answer["findings"]
                 if f["rule"] == "single-point-of-failure"]
        assert len(spofs) == 2
        # the common Finding.to_json() row: elements ride under properties
        for row in spofs:
            assert row["severity"] == "error"
            assert row["category"] == "resilience"
            assert row["location"]["file"] in LAB_CONFIGS
            assert row["node"] == row["location"]["file"][: -len(".cfg")]
            (element,) = row["properties"]["elements"]
            assert element.startswith("link:") and element in row["message"]
            assert "elements" not in row and "level" not in row

    def test_wait_true_overrides_async_default(self, make_service):
        _, client = make_service()
        client.post("/snapshots", {"name": "lab", "configs": dict(LAB_CONFIGS)})
        status, body = client.post(
            "/snapshots/lab/questions/sweep",
            {"params": CHAIN_PARAMS, "wait": True},
        )
        assert status == 200
        assert body["status"] == "done"
        assert body["result"]["schema"] == "repro-sweep/v1"

    def test_a_waited_sweep_still_runs_on_a_worker(self, make_service):
        """``"wait": true`` waits on an async question but does not run
        it on the connection thread: it queues like any other sweep."""
        service, client = make_service()
        client.post("/snapshots", {"name": "lab", "configs": dict(LAB_CONFIGS)})
        execute, threads = service.queue._executor, []

        def recording(job):
            threads.append(threading.current_thread().name)
            return execute(job)

        service.queue._executor = recording
        status, body = client.post(
            "/snapshots/lab/questions/sweep",
            {"params": CHAIN_PARAMS, "wait": True},
        )
        assert status == 200 and body["status"] == "done"
        assert len(threads) == 1 and threads[0].startswith("repro-worker-")

    def test_invalid_params_are_400(self, make_service):
        _, client = make_service()
        client.post("/snapshots", {"name": "lab", "configs": dict(LAB_CONFIGS)})
        for params in (
            {"k": 0},
            {"k": True},
            {"kinds": ["link", "gremlin"]},
            {"unknown_knob": 1},
            {"property": {"src_node": "r1"}},  # incomplete property
        ):
            status, body = client.post(
                "/snapshots/lab/questions/sweep",
                {"params": params, "wait": True},
            )
            assert status == 400, (params, body)
            assert body["error"]["code"] == "invalid_request"

    def test_unknown_snapshot_is_404(self, make_service):
        _, client = make_service()
        status, body = client.post(
            "/snapshots/ghost/questions/sweep",
            {"params": CHAIN_PARAMS, "wait": True},
        )
        assert status == 404

    def test_default_property_when_omitted(self, make_service):
        _, client = make_service()
        client.post("/snapshots", {"name": "lab", "configs": dict(LAB_CONFIGS)})
        status, body = client.post(
            "/snapshots/lab/questions/sweep",
            {"params": {"k": 1, "kinds": ["link"]}, "wait": True},
        )
        assert status == 200
        assert "property" in body["result"]


def test_running_sweep_shows_progress(make_service, monkeypatch):
    """``GET /jobs/{id}`` of a running sweep shows done/total/pruned from
    ``Session.sweep``'s progress callback; the last report is done ==
    total. The first simulated scenario is held until the poll is in."""
    evaluate = sweep_engine.evaluate_property
    calls, reached, release = [], threading.Event(), threading.Event()

    def held(session, prop):
        calls.append(session)
        if len(calls) == 2:  # the base verdict, then the first scenario
            reached.set()
            release.wait(30)
        return evaluate(session, prop)

    monkeypatch.setattr(sweep_engine, "evaluate_property", held)
    service, client = make_service()
    client.post("/snapshots", {"name": "lab", "configs": net1(2)})
    status, body = client.post(
        "/snapshots/lab/questions/sweep",
        {"params": {"k": 1, "kinds": ["link", "interface"]}},
    )
    assert status == 202
    try:
        assert reached.wait(30), "no scenario was simulated"
        status, running = client.get(f"/jobs/{body['id']}")
    finally:
        release.set()
    assert status == 200 and running["status"] == "running", running
    progress = running["progress"]
    assert progress["pruned"] > 0
    assert progress["done"] == progress["pruned"] < progress["total"]
    result = _poll_done(client, body["id"])
    stats = result["result"]["stats"]
    assert "progress" not in result
    assert service.queue.get(body["id"]).progress == {
        "done": stats["scenarios"],
        "total": stats["scenarios"],
        "pruned": stats["pruned"],
    }
