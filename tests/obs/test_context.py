"""Request-context propagation: scoping, and the thread and process
handoff contracts (:mod:`repro.obs.context`; a whole forked sweep's is
tests/obs/test_coverage_attribution.py ``TestForkedSweepTelemetry``)."""

import os
import threading

import pytest

from repro import obs
from repro.obs import context
from repro.obs.context import RequestContext
from repro.parallel import fork_available, pmap


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


def _seen_in_worker(_item):
    return os.getpid(), context.current()


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestWire:
    """The request context's trip across the ``pmap`` fork: there is no
    wire format, each worker inherits the calling thread's context."""

    def test_roundtrip_full(self):
        ctx = RequestContext(request_id="req-abc")
        token = context.activate(ctx)
        try:
            seen = pmap(_seen_in_worker, range(4), jobs=2, min_items=2)
        finally:
            context.deactivate(token)
        assert {pid for pid, _ in seen} - {os.getpid()}, "map ran inline"
        assert [current for _, current in seen] == [ctx] * 4
        # A map with no request around it hands its workers none.
        seen = pmap(_seen_in_worker, range(4), jobs=2, min_items=2)
        assert [current for _, current in seen] == [None] * 4


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
