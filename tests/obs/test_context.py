"""Request-context propagation: scoping, wire transfer, and the
thread/process handoff contracts (:mod:`repro.obs.context`)."""

import threading

import pytest

from repro import obs
from repro.obs import context
from repro.obs.context import RequestContext


@pytest.fixture(autouse=True)
def obs_clean():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestScoping:
    def test_no_context_by_default(self):
        assert context.current() is None
        assert context.current_request_id() is None

    def test_request_context_scopes_and_restores(self):
        with context.request_context() as ctx:
            assert context.current() is ctx
            assert context.current_request_id() == ctx.request_id
            assert ctx.request_id.startswith("req-")
        assert context.current() is None

    def test_nested_contexts_restore_outer(self):
        with context.request_context(request_id="req-outer") as outer:
            with context.request_context(request_id="req-inner"):
                assert context.current_request_id() == "req-inner"
            assert context.current() is outer

    def test_explicit_activate_deactivate(self):
        ctx = RequestContext(request_id="req-explicit")
        token = context.activate(ctx)
        try:
            assert context.current_request_id() == "req-explicit"
        finally:
            context.deactivate(token)
        assert context.current() is None

    def test_generated_request_ids_are_unique_and_prefixed(self):
        ids = {context.new_request_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(rid.startswith("req-") for rid in ids)

    def test_context_does_not_leak_across_threads(self):
        """contextvars are per-thread: a worker thread must be handed
        the context explicitly (the Job.ctx handoff), never inherit it
        ambiently."""
        seen = {}

        def worker():
            seen["ambient"] = context.current()
            token = context.activate(RequestContext(request_id="req-handed"))
            try:
                seen["activated"] = context.current_request_id()
            finally:
                context.deactivate(token)

        with context.request_context(request_id="req-parent"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["ambient"] is None
        assert seen["activated"] == "req-handed"


class TestWire:
    def test_roundtrip_full(self):
        ctx = RequestContext(request_id="req-abc")
        assert context.from_wire(context.to_wire(ctx)) == ctx
        # The wire carries the request id only: a pmap chunk's coverage
        # travels through its scope (repro.parallel), not the context.
        assert context.from_wire({"question": "routes"}) is None

    def test_roundtrip_minimal(self):
        ctx = RequestContext(request_id="req-min")
        wire = context.to_wire(ctx)
        assert wire == {"request_id": "req-min"}
        assert context.from_wire(wire) == ctx

    def test_none_stays_none(self):
        assert context.to_wire(None) is None
        assert context.from_wire(None) is None

    def test_malformed_wire_is_tolerated(self):
        # Version-skewed parents must not kill a worker.
        assert context.from_wire({}) is None
        assert context.from_wire({"unknown_key": "x"}) is None
        assert context.from_wire("req-raw") is None
        rebuilt = context.from_wire(
            {"request_id": "req-x", "unknown_key": 1, "question": None}
        )
        assert rebuilt == RequestContext(request_id="req-x")


class TestTelemetryAttribution:
    def test_spans_pick_up_ambient_request_id(self):
        obs.enable()
        with context.request_context(request_id="req-span"):
            with obs.span("inside"):
                pass
        with obs.span("outside"):
            pass
        spans = {e["name"]: e for e in obs.events() if e["type"] == "span"}
        assert spans["inside"]["rid"] == "req-span"
        assert "rid" not in spans["outside"]
