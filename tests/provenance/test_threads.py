"""Provenance recording belongs to the context that opened it.

The service answers questions from several worker threads at once, so
a recording opened on one thread must neither leak into another one's
derivation nor outlive its ``with`` block, whatever order the blocks
close in. The interleavings are forced with events and barriers, never
with sleeps.
"""

import threading

import pytest

from repro import obs
from repro.core import session as session_module
from repro.core.session import Session
from repro.delta.edits import relevant_edit
from repro.provenance import record as prov
from repro.synth.networks import network_by_name
from repro.synth.special import net1

#: A safety net for a wait that the forced order always satisfies.
TIMEOUT = 30

NODE, PREFIX = "provider0", "192.168.0.200/32"


@pytest.fixture(autouse=True)
def clean():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def run_threads(*targets):
    """Run each target on its own thread, named after it; re-raise the
    first failure."""
    errors = []

    def guarded(target):
        def run():
            try:
                target()
            except BaseException as exc:  # surfaced below
                errors.append(exc)
        return run

    threads = [
        threading.Thread(target=guarded(t), name=t.__name__) for t in targets
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT)
        assert not thread.is_alive(), "thread did not finish"
    if errors:
        raise errors[0]


def net10_session():
    return Session.from_texts(network_by_name("NET10").generate(1))


def test_recordings_closed_out_of_order_leave_recording_off():
    a_open, b_open, a_closed = threading.Event(), threading.Event(), threading.Event()
    after = {}

    def a():
        with prov.recording():
            a_open.set()
            assert b_open.wait(TIMEOUT)
        a_closed.set()
        after["a"] = prov.enabled()

    def b():
        assert a_open.wait(TIMEOUT)
        with prov.recording():
            b_open.set()
            assert a_closed.wait(TIMEOUT)
        after["b"] = prov.enabled()

    def probe():
        after["probe"] = prov.enabled()

    run_threads(a, b)
    run_threads(probe)
    assert after == {"a": False, "b": False, "probe": False}
    assert not prov.enabled() and prov.recorder() is None

    # Routing stages are taken only while nothing records, so a later
    # delta shows whether a recording outlived its block.
    configs = net1(num_spurs=2)
    base = Session.from_texts(configs)
    base.dataplane
    target = sorted(configs)[0]
    variant = base.delta({target: relevant_edit(configs[target])})
    variant.dataplane
    assert variant.delta_info.stages == {"igp": "reused", "bgp": "reused"}


def test_overlapping_explains_each_equal_their_solo_render(monkeypatch):
    solo = net10_session().explain_route(NODE, PREFIX).render()
    assert "[fib] resolved" in solo
    # Both derivations start simulating only once both recordings are open.
    both_open = threading.Barrier(2, timeout=TIMEOUT)
    real = session_module.compute_dataplane

    def gated(*args, **kwargs):
        both_open.wait()
        return real(*args, **kwargs)

    monkeypatch.setattr(session_module, "compute_dataplane", gated)
    renders = {}

    def a():
        renders["a"] = net10_session().explain_route(NODE, PREFIX).render()

    def b():
        renders["b"] = net10_session().explain_route(NODE, PREFIX).render()

    run_threads(a, b)
    assert renders == {"a": solo, "b": solo}
    assert not prov.enabled()


class _SignallingLock:
    """A lock that sets ``arrived`` when the thread named ``name`` asks
    for it."""

    def __init__(self, inner, arrived, name):
        self.inner, self.arrived, self.name = inner, arrived, name

    def __enter__(self):
        if threading.current_thread().name == self.name:
            self.arrived.set()
        return self.inner.__enter__()

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)


def test_two_explains_on_one_session_share_one_recording(monkeypatch):
    obs.enable()
    session = net10_session()
    first_inside, second_arrived = threading.Event(), threading.Event()
    real = session_module.compute_dataplane

    def gated(*args, **kwargs):
        # The first derivation waits until the second explain has asked
        # for the derivation too: by the stage lock, or by simulating.
        if threading.current_thread().name == "first":
            first_inside.set()
            assert second_arrived.wait(TIMEOUT)
        else:
            second_arrived.set()
        return real(*args, **kwargs)

    def first():
        session.explain_route(NODE, PREFIX)

    def second():
        assert first_inside.wait(TIMEOUT)
        session.explain_route(NODE, PREFIX)

    monkeypatch.setattr(session_module, "compute_dataplane", gated)
    session._stage_lock = _SignallingLock(
        session._stage_lock, second_arrived, "second"
    )
    before = obs.metrics().counter("provenance.recordings")
    run_threads(first, second)
    assert obs.metrics().counter("provenance.recordings") - before == 1
