"""Tests for the fork-safe process-pool map (repro.parallel)."""

import multiprocessing
import os
import threading

import pytest

from repro.core.session import Session
from repro.parallel import chunked, default_jobs, fork_available, pmap
from repro.synth.networks import network_by_name


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


def _pid_of(_x):
    return os.getpid()


def test_pmap_preserves_input_order():
    items = list(range(40))
    assert pmap(_square, items, jobs=4) == [x * x for x in items]


def test_pmap_serial_fallback_small_input():
    # Below min_items the pool is skipped entirely; results identical.
    assert pmap(_square, [1, 2], jobs=4, min_items=8) == [1, 4]


def test_pmap_jobs_one_is_serial():
    # jobs=1 must not fork: every "worker" is this process.
    pids = set(pmap(_pid_of, list(range(10)), jobs=1, min_items=1))
    assert pids == {os.getpid()}


def test_pmap_supports_closures_serially():
    # Serial paths accept closures (the pool path requires module-level
    # callables, which every production call site uses).
    offset = 7
    assert pmap(lambda x: x + offset, [1, 2, 3], jobs=1) == [8, 9, 10]


def test_pmap_propagates_exceptions():
    with pytest.raises(ValueError, match="boom"):
        pmap(_fail_on_three, [1, 2, 3, 4, 5, 6, 7, 8], jobs=2, min_items=1)


def test_pmap_empty_input():
    assert pmap(_square, [], jobs=4) == []


@pytest.mark.skipif(not fork_available(), reason="requires fork start method")
def test_pmap_matches_serial_results():
    items = list(range(100))
    assert pmap(_square, items, jobs=4, min_items=1) == pmap(
        _square, items, jobs=1
    )


def test_default_jobs_env_knob(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()
    monkeypatch.delenv("REPRO_JOBS")
    assert default_jobs() == (os.cpu_count() or 1)


def test_default_jobs_zero_means_cpu_count(monkeypatch):
    # REPRO_JOBS=0 (or any non-positive value) explicitly requests the
    # CPU count, overriding a pinned value without unsetting the var.
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert default_jobs() == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_JOBS", "-2")
    assert default_jobs() == (os.cpu_count() or 1)


def test_pmap_merges_worker_metrics(tmp_path):
    # With obs enabled, pool workers ship their metric deltas back and
    # the parent merges them: counters must reflect every item exactly
    # once, and pmap emits fan-out telemetry.
    if not fork_available():
        pytest.skip("requires fork start method")
    from repro import obs

    obs.disable()
    obs.reset()
    obs.enable()
    try:
        assert pmap(_count_item, list(range(20)), jobs=4, min_items=1) == [
            x * x for x in range(20)
        ]
        metrics = obs.metrics()
        assert metrics.counter("worker.items") == 20
        assert metrics.counter("pmap.pool_calls") == 1
        assert metrics.counter("pmap.items") == 20
        assert metrics.gauge_value("pmap.jobs") == 4
        assert metrics.bucket_histogram("pmap.chunk_seconds").count >= 1
    finally:
        obs.disable()
        obs.reset()


def _count_item(x):
    from repro import obs

    obs.add("worker.items")
    return x * x


def test_chunked_covers_all_items_in_order():
    items = list(range(10))
    chunks = chunked(items, 3)
    assert [len(c) for c in chunks] == [3, 3, 3, 1]
    assert [x for chunk in chunks for x in chunk] == items


def test_pmap_inside_daemon_worker_falls_back_to_serial():
    # A pool worker is daemonic and cannot fork grandchildren; pmap
    # must detect that and run serially instead of crashing.
    if not fork_available():
        pytest.skip("requires fork start method")
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(1) as pool:
        assert pool.map(_nested_pmap, [0]) == [[0, 1, 4, 9]]


def _nested_pmap(_x):
    return pmap(_square, [0, 1, 2, 3], jobs=4, min_items=1)


def test_pmap_off_the_main_thread_runs_in_this_process():
    # A fork from a thread of a multi-threaded process (a service worker)
    # is not safe; such calls map inline, whatever ``jobs`` says.
    pids = []

    def run():
        pids.extend(pmap(_pid_of, list(range(10)), jobs=4, min_items=1))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert pids == [os.getpid()] * 10


@pytest.mark.skipif(not fork_available(), reason="requires fork start method")
def test_only_a_sweep_opens_a_pool(monkeypatch):
    """With the default width above 1 on the main thread, parsing eight
    files and linting them open no pool; a sweep's scenarios still go to
    one, with the serial sweep's verdicts."""
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    pools = []
    real_get_context = multiprocessing.get_context

    def counted(method=None):
        pools.append(method)
        return real_get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", counted)
    texts = network_by_name("NET1").generate(1)
    assert len(texts) >= 8
    session = Session.from_texts(texts)
    session.lint()
    assert pools == []

    def verdicts(result):
        return [
            (o.scenario_id, o.status, o.verdict.to_json()) for o in result.outcomes
        ], result.minimal_failing_sets

    serial = session.sweep(k=1, kinds=("link",), jobs=1)
    assert pools == []
    pooled = session.sweep(k=1, kinds=("link",), jobs=2)
    assert pools == ["fork"]
    assert verdicts(pooled) == verdicts(serial)
