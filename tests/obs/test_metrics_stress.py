"""Concurrency-correctness tests for the metrics registry: exact
totals under thread contention, defined gauge merge semantics, and
exact totals across the ``pmap`` fork boundary (including the coverage
touches shipped back from workers into the scope the map ran in)."""

import threading

import pytest

from repro import obs
from repro.obs.metrics import Metrics
from repro.parallel import fork_available, pmap


@pytest.fixture(autouse=True)
def obs_clean():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestThreadStress:
    THREADS = 8
    ITERATIONS = 500

    def test_counters_and_histograms_exact_under_contention(self):
        obs.enable_metrics()
        barrier = threading.Barrier(self.THREADS)

        def hammer(thread_index):
            barrier.wait()
            for i in range(self.ITERATIONS):
                obs.add("stress.incs")
                obs.observe("stress.values", float(i))
                obs.observe(
                    "stress.seconds", i / 1000.0,
                    worker=str(thread_index % 2),
                )

        threads = [
            threading.Thread(target=hammer, args=(t,))
            for t in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        expected = self.THREADS * self.ITERATIONS
        metrics = obs.metrics()
        assert metrics.counter("stress.incs") == expected
        assert metrics.bucket_histogram("stress.values").count == expected
        families = metrics.bucket_families()["stress.seconds"]
        assert sum(h.count for h in families.values()) == expected
        # Each label set saw exactly half the threads' observations.
        for histogram in families.values():
            assert histogram.count == expected // 2


class TestGaugeMergeModes:
    def test_worker_merge_defaults_undeclared_gauges_to_max(self):
        """Worker dumps arrive in nondeterministic completion order, so
        the worker merge must be order-independent."""
        metrics = Metrics()
        dumps = [{"gauges": {"pmap.jobs": v}} for v in (3, 7, 5)]
        metrics_reversed = Metrics()
        for dump in dumps:
            metrics.merge(dump, worker=True)
        for dump in reversed(dumps):
            metrics_reversed.merge(dump, worker=True)
        assert metrics.gauge_value("pmap.jobs") == 7
        assert metrics.gauge_value("pmap.jobs") == metrics_reversed.gauge_value(
            "pmap.jobs"
        )

    def test_replay_merge_defaults_undeclared_gauges_to_last(self):
        # Trace replays are ordered streams; byte-compatibility keeps
        # last-write-wins there.
        metrics = Metrics()
        for value in (3, 7, 5):
            metrics.merge({"gauges": {"pmap.jobs": value}}, worker=False)
        assert metrics.gauge_value("pmap.jobs") == 5

    def test_counters_and_buckets_merge_additively(self):
        metrics = Metrics()
        metrics.observe("phase.seconds", 0.1, phase="parse")
        dump = metrics.dump()
        merged = Metrics()
        merged.merge(dump, worker=True)
        merged.merge(dump, worker=True)
        histogram = merged.bucket_histogram("phase.seconds", phase="parse")
        assert histogram.count == 2
        assert histogram.total == pytest.approx(0.2)


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestPmapStress:
    ITEMS = 24

    def _run_pmap(self):
        def work(item):
            obs.add("stress.pmap_items")
            obs.observe("stress.pmap_seconds", item / 1000.0)
            obs.gauge("stress.pmap_max_item", item)
            obs.touch("interface", "stress", f"item{item}")
            return item * 2

        return pmap(work, list(range(self.ITEMS)), jobs=2, min_items=2)

    def test_pmap_totals_exact_and_attributed(self):
        obs.enable_metrics()
        with obs.context.request_context(request_id="req-pmap-stress"):
            with obs.coverage_scope() as vector:
                results = self._run_pmap()
        assert results == [i * 2 for i in range(self.ITEMS)]
        metrics = obs.metrics()
        assert metrics.counter("stress.pmap_items") == self.ITEMS
        histogram = metrics.bucket_histogram("stress.pmap_seconds")
        assert histogram is not None and histogram.count == self.ITEMS
        # A gauge ships back with max semantics: the overall
        # max item survives regardless of chunk completion order.
        assert metrics.gauge_value("stress.pmap_max_item") == self.ITEMS - 1
        # Worker touches came back into the scope the map ran in.
        assert sorted(vector) == sorted(
            ("interface", "stress", f"item{i}", None) for i in range(self.ITEMS)
        )

    def test_threads_hammering_while_pmap_runs_stay_exact(self):
        obs.enable_metrics()
        stop = threading.Event()
        counts = []

        def hammer():
            local = 0
            while not stop.is_set():
                obs.add("stress.thread_incs")
                local += 1
            counts.append(local)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            results = self._run_pmap()
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert len(results) == self.ITEMS
        metrics = obs.metrics()
        assert metrics.counter("stress.pmap_items") == self.ITEMS
        assert metrics.counter("stress.thread_incs") == sum(counts)
        assert sum(counts) > 0
