"""Coverage attribution correctness: per-question vectors, the
``attribution`` context (including its wire round-trip), the
invalidation aggregate-recompute fix, and exact attribution under
thread contention and across the ``pmap`` fork boundary."""

import threading

import pytest

from repro import obs
from repro.obs.context import RequestContext, attribution, current_question
from repro.obs.coverage import CoverageTracker
from repro.parallel import fork_available, pmap


@pytest.fixture(autouse=True)
def obs_clean():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestTrackerVectors:
    def test_touch_with_query_lands_in_vector(self):
        tracker = CoverageTracker()
        tracker.touch("interface", "r1", "Ethernet0", query="routes")
        tracker.touch("interface", "r1", "Ethernet0", query="routes")
        tracker.touch("acl_line", "r1", "ACL", 0, query="routes")
        vector = tracker.question_vector("routes")
        assert vector[("interface", "r1", "Ethernet0", None)] == 2
        assert vector[("acl_line", "r1", "ACL", 0)] == 1
        # Unattributed touches still count globally but never in vectors.
        tracker.touch("interface", "r2", "Ethernet0")
        assert ("interface", "r2", "Ethernet0", None) not in (
            tracker.question_vector("routes")
        )
        assert ("interface", "r2", "Ethernet0", None) in tracker.touched_keys()

    def test_lint_rule_labels_roll_up_under_lint(self):
        tracker = CoverageTracker()
        tracker.touch("acl_line", "r1", "ACL", 0, query="lint/rule-a")
        tracker.touch("acl_line", "r1", "ACL", 1, query="lint/rule-b")
        tracker.touch("acl_line", "r1", "ACL", 0, query="lint/rule-b")
        rollup = tracker.question_vector("lint")
        assert rollup[("acl_line", "r1", "ACL", 0)] == 2
        assert rollup[("acl_line", "r1", "ACL", 1)] == 1
        # Prefix match is on path segments: "linting" must not fold in.
        tracker.touch("acl_line", "r9", "ACL", 5, query="linting")
        assert ("acl_line", "r9", "ACL", 5) not in tracker.question_vector(
            "lint"
        )
        assert sorted(tracker.vector_labels()) == [
            "lint/rule-a", "lint/rule-b", "linting",
        ]

    def test_dump_and_merge_round_trip_vectors(self):
        tracker = CoverageTracker()
        tracker.touch("interface", "r1", "Ethernet0", query="reachability")
        tracker.touch("acl_line", "r1", "ACL", 3, query="lint/rule-a")
        merged = CoverageTracker()
        merged.merge(tracker.dump())
        merged.merge(tracker.dump())
        vector = merged.question_vector("reachability")
        assert vector[("interface", "r1", "Ethernet0", None)] == 2
        assert merged.question_vector("lint")[("acl_line", "r1", "ACL", 3)] == 2


class TestInvalidationRecomputesAggregates:
    def test_invalidate_hosts_recomputes_by_query(self):
        tracker = CoverageTracker()
        tracker.touch("interface", "r1", "Ethernet0", query="routes")
        tracker.touch("interface", "r2", "Ethernet0", query="routes")
        tracker.touch("acl_line", "r2", "ACL", 0, query="lint/rule-a")
        assert tracker.invalidate_hosts({"r2"}) == 2
        # Key-level data and kind aggregates must agree after the drop:
        # the stale-aggregate bug left by_query counting dead touches.
        assert tracker.dump()["by_query"] == {"routes": {"interface": 1}}
        assert tracker.question_vector("routes") == {
            ("interface", "r1", "Ethernet0", None): 1
        }
        assert tracker.question_vector("lint") == {}
        assert "lint/rule-a" not in tracker.vector_labels()

    def test_two_chained_invalidations_stay_consistent(self):
        """Regression: two deltas in sequence. After each invalidation
        the aggregates must describe exactly the surviving touches."""
        tracker = CoverageTracker()
        for host in ("r1", "r2", "r3"):
            tracker.touch("interface", host, "Ethernet0", query="reachability")
            tracker.touch("acl_line", host, "ACL", 0, query="reachability")
        tracker.invalidate_hosts({"r1"})
        assert tracker.dump()["by_query"]["reachability"] == {
            "interface": 2, "acl_line": 2,
        }
        tracker.invalidate_hosts({"r2"})
        assert tracker.dump()["by_query"]["reachability"] == {
            "interface": 1, "acl_line": 1,
        }
        tracker.invalidate_hosts({"r3"})
        assert tracker.dump()["by_query"] == {}
        assert tracker.touched_keys() == []

    def test_run_registry_survives_host_invalidation(self):
        tracker = CoverageTracker()
        tracker.touch("interface", "r1", "Ethernet0", query="routes")
        tracker.record_run("snap", "routes", "{}", {"question": "routes"})
        tracker.invalidate_hosts({"r1"})
        assert tracker.recorded_runs("snap") == {
            ("routes", "{}"): {"question": "routes"}
        }


class TestAttributionContext:
    def test_attribution_sets_and_restores_question(self):
        assert current_question() is None
        with attribution("routes") as ctx:
            assert current_question() == "routes"
            assert ctx.question == "routes"
            with attribution("lint/rule-a"):
                assert current_question() == "lint/rule-a"
            assert current_question() == "routes"
        assert current_question() is None

    def test_attribution_preserves_enclosing_request_context(self):
        with obs.context.request_context(request_id="req-attr") as outer:
            with attribution("reachability") as ctx:
                assert ctx.request_id == outer.request_id == "req-attr"
                assert obs.context.current_request_id() == "req-attr"

    def test_wire_round_trip_carries_question(self):
        with obs.context.request_context(request_id="req-wire"):
            with attribution("traceroute"):
                wire = obs.context.to_wire(obs.context.current())
        restored = obs.context.from_wire(wire)
        assert restored is not None
        assert restored.request_id == "req-wire"
        assert restored.question == "traceroute"

    def test_question_only_wire_round_trips_without_request_id(self):
        with attribution("lint/rule-b"):
            wire = obs.context.to_wire(obs.context.current())
        restored = obs.context.from_wire(wire)
        assert restored is not None
        assert restored.request_id == ""
        assert restored.question == "lint/rule-b"
        assert obs.context.from_wire({}) is None

    def test_touch_uses_question_over_span_name(self):
        obs.enable_metrics()
        with obs.span("phase.simulate"):
            obs.touch("interface", "r1", "Ethernet0")
            with attribution("reachability"):
                obs.touch("interface", "r1", "Ethernet1")
        tracker = obs.coverage()
        vector = tracker.question_vector("reachability")
        assert vector == {("interface", "r1", "Ethernet1", None): 1}
        assert ("interface", "r1", "Ethernet0", None) not in vector


class TestThreadAttributionStress:
    THREADS = 8
    ITERATIONS = 400

    def test_two_questions_do_not_bleed_across_threads(self):
        obs.enable_metrics()
        barrier = threading.Barrier(self.THREADS)

        def hammer(thread_index):
            question = "qa" if thread_index % 2 == 0 else "qb"
            with attribution(question):
                barrier.wait()
                for i in range(self.ITERATIONS):
                    # Same structures from every thread: attribution,
                    # not key-space, is what must keep them apart.
                    obs.touch("interface", "r1", f"Ethernet{i % 4}")

        threads = [
            threading.Thread(target=hammer, args=(t,))
            for t in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        expected = (self.THREADS // 2) * self.ITERATIONS
        tracker = obs.coverage()
        assert sum(tracker.question_vector("qa").values()) == expected
        assert sum(tracker.question_vector("qb").values()) == expected
        assert sorted(tracker.vector_labels()) == ["qa", "qb"]
        # Global totals agree with the per-question split.
        dump = tracker.dump()
        assert sum(dump["touched"].values()) == 2 * expected


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestPmapAttributionStress:
    ITEMS = 24

    @staticmethod
    def _work(item):
        obs.touch("interface", f"host{item}", "Ethernet0")
        obs.touch("acl_line", f"host{item}", "ACL", item)
        return item

    def test_worker_touches_come_back_attributed(self):
        obs.enable_metrics()
        with attribution("reachability"):
            results = pmap(self._work, list(range(self.ITEMS)), jobs=2,
                           min_items=2)
        assert results == list(range(self.ITEMS))
        vector = obs.coverage().question_vector("reachability")
        assert sum(vector.values()) == 2 * self.ITEMS
        assert {key[1] for key in vector} == {
            f"host{i}" for i in range(self.ITEMS)
        }

    def test_sequential_pmap_questions_stay_separate(self):
        obs.enable_metrics()
        with attribution("qa"):
            pmap(self._work, list(range(self.ITEMS)), jobs=2, min_items=2)
        with attribution("qb"):
            pmap(self._work, list(range(self.ITEMS)), jobs=2, min_items=2)
        tracker = obs.coverage()
        qa = tracker.question_vector("qa")
        qb = tracker.question_vector("qb")
        assert sum(qa.values()) == 2 * self.ITEMS
        assert qa == qb  # same work, so identical footprints...
        assert sorted(tracker.vector_labels()) == ["qa", "qb"]  # ...apart
