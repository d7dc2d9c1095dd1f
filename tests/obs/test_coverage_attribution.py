"""Coverage attribution correctness: a touch lands in the innermost open
scope and nowhere else, scopes stay apart under thread contention and
across the ``pmap`` fork boundary, and each session keeps the records
of its own runs — a twin snapshot or a replaced session never shows
through (the HTTP view of the same is tests/service/test_coverage_api.py
``TestSnapshotsApart``)."""

import gc
import json
import os
import threading
import weakref

import pytest

from repro import obs
from repro.core.session import Session
from repro.hdr.ip import Ip
from repro.hdr.packet import Packet
from repro.parallel import fork_available, pmap
from repro.questions import coverage as qcov
from repro.service.serialize import run_question
from repro.service.store import SnapshotStore
from repro.synth.networks import network_by_name
from repro.synth.special import net1


#: A probe through net1-core0's SPUR_FILTER (deny tcp any any eq 23).
TELNET = {
    "src_ip": "10.99.0.1", "dst_ip": "10.99.0.2",
    "ip_protocol": "tcp", "src_port": 1024, "dst_port": 23,
}
TELNET_PACKET = Packet(
    src_ip=Ip(TELNET["src_ip"]), dst_ip=Ip(TELNET["dst_ip"]),
    ip_protocol=6, src_port=1024, dst_port=23,
)


@pytest.fixture(autouse=True)
def obs_clean():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def twins():
    """Two snapshots of one network whose bytes differ (an inert NTP
    line on the second's core0)."""
    configs = net1(2)
    edited = dict(configs)
    edited["net1-core0"] = configs["net1-core0"] + "ntp server 192.0.2.99\n"
    return configs, edited


class TestTrackerVectors:
    def test_touch_with_query_lands_in_vector(self):
        obs.touch("interface", "r0", "Ethernet0")  # no scope: nowhere
        with obs.coverage_scope() as vector:
            obs.touch("interface", "r1", "Ethernet0")
            obs.touch("interface", "r1", "Ethernet0")
            obs.touch("acl_line", "r1", "ACL", 0)
        obs.touch("interface", "r2", "Ethernet0")  # closed: nowhere
        assert vector == {
            ("interface", "r1", "Ethernet0", None): 2,
            ("acl_line", "r1", "ACL", 0): 1,
        }

    def test_lint_rule_labels_roll_up_under_lint(self):
        """A lint run is one scope: every rule's touches (ACL lines from
        the semantic rules) land in the one ``lint`` record."""
        session = Session.from_texts(net1(2))
        with session.question_scope("lint", None):
            session.lint()
        records = session.coverage_records()
        assert list(records) == [("lint", "{}")]
        vector = records[("lint", "{}")]["vector"]
        assert {
            "acl_line:net1-core0:SPUR_FILTER:0",
            "acl_line:net1-core0:SPUR_FILTER:1",
        } <= set(vector)

    def test_dump_and_merge_round_trip_vectors(self):
        with obs.coverage_scope() as worker:
            obs.touch("interface", "r1", "Ethernet0")
            obs.touch("acl_line", "r1", "ACL", 3)
        dump = obs.worker_dump(worker)
        obs.merge_worker_dump(dump)  # outside a scope: dropped
        with obs.coverage_scope() as parent:
            obs.merge_worker_dump(dump)
            obs.merge_worker_dump(dump)
        assert parent == {
            ("interface", "r1", "Ethernet0", None): 2,
            ("acl_line", "r1", "ACL", 3): 2,
        }


class TestSessionRecords:
    def test_an_unasked_twin_reads_zero_touched(self):
        store = SnapshotStore(None)
        first, second = twins()
        store.init("A", first)
        store.init("B", second)
        run_question(store, "B", "reachability", {})
        unasked = store.get("A").coverage_report()
        assert unasked.totals["interface"] > 0
        assert unasked.touched["interface"] == 0
        assert unasked.questions == {}
        asked = store.get("B").coverage_report()
        assert asked.touched["interface"] == asked.totals["interface"]
        run_question(store, "A", "reachability", {})
        assert store.get("A").coverage_report().touched == asked.touched

    def test_a_base_keeps_its_records_after_a_delta(self):
        """A delta hands its new session only the records it skips;
        the base session keeps all of its own."""
        configs = net1(2)
        base = Session.from_texts(configs)
        with base.question_scope("reachability", None):
            base.reachability()
        test_filter = {
            "node": "net1-core0", "filter": "SPUR_FILTER", "packet": TELNET,
        }
        with base.question_scope("test_filter", test_filter):
            base.test_filter("net1-core0", "SPUR_FILTER", TELNET_PACKET)
        kept = base.coverage_records()
        edited = base.delta({
            "net1-core1": configs["net1-core1"] + "ntp server 192.0.2.99\n"
        })
        assert base.coverage_records() == kept
        assert set(edited.coverage_records()) == {
            ("test_filter", qcov.canonical_params(test_filter))
        }
        assert [e["question"] for e in edited.delta_info.questions_affected] == [
            "reachability"
        ]

    def test_replaced_sessions_are_freed(self):
        """A 200-PATCH chain: every replaced session is garbage, and the
        live one holds only records of its own runs or carried to it."""
        store = SnapshotStore(None)
        configs = net1(2)
        store.init("lab", configs)
        run_question(store, "lab", "reachability", {})
        run_question(store, "lab", "routes", {})
        replaced = []
        text = configs["net1-core1"]
        for step in range(200):
            replaced.append(weakref.ref(store.get("lab")))
            text += f"ntp server 192.0.2.{step % 250}\n"
            store.patch("lab", {"net1-core1": text})
            run_question(store, "lab", "reachability", {})
            run_question(store, "lab", "routes", {})
        gc.collect()
        assert [ref for ref in replaced if ref() is not None] == []
        assert set(store.get("lab").coverage_records()) == {
            ("reachability", "{}"), ("routes", "{}"),
        }


def _touch_in_worker(_item):
    obs.touch("interface", "r1", "Ethernet0")
    return os.getpid(), obs.context.current_request_id()


class TestAttributionContext:
    def test_attribution_sets_and_restores_question(self):
        assert not obs.coverage_scoped()
        with obs.coverage_scope() as outer:
            obs.touch("interface", "r1", "Ethernet0")
            with obs.coverage_scope() as inner:
                obs.touch("interface", "r1", "Ethernet1")
            obs.touch("interface", "r1", "Ethernet2")
        assert not obs.coverage_scoped()
        assert inner == {("interface", "r1", "Ethernet1", None): 1}
        assert set(outer) == {
            ("interface", "r1", "Ethernet0", None),
            ("interface", "r1", "Ethernet2", None),
        }

    def test_attribution_preserves_enclosing_request_context(self):
        with obs.context.request_context(request_id="req-attr"):
            with obs.coverage_scope():
                assert obs.context.current_request_id() == "req-attr"

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_wire_round_trip_carries_question(self):
        """A forked worker inherits the request id; the question's touches
        come back through the worker's scope dump, into the asking scope."""
        with obs.context.request_context(request_id="req-wire"):
            with obs.coverage_scope() as question:
                seen = pmap(_touch_in_worker, range(2), jobs=2, min_items=2)
        assert {pid for pid, _ in seen} - {os.getpid()}, "map ran inline"
        assert [rid for _, rid in seen] == ["req-wire", "req-wire"]
        assert question == {("interface", "r1", "Ethernet0", None): 2}

    def test_touch_outside_a_scope_is_dropped(self):
        obs.enable_metrics()
        with obs.span("phase.simulate"):
            obs.touch("interface", "r1", "Ethernet0")
            with obs.coverage_scope() as vector:
                obs.touch("interface", "r1", "Ethernet1")
        assert vector == {("interface", "r1", "Ethernet1", None): 1}


class TestThreadAttributionStress:
    THREADS = 8
    ITERATIONS = 400

    def test_two_questions_do_not_bleed_across_threads(self):
        barrier = threading.Barrier(self.THREADS)
        vectors = {}

        def hammer(thread_index):
            with obs.coverage_scope() as vector:
                barrier.wait()
                for i in range(self.ITERATIONS):
                    # Same structures from every thread: the scope, not
                    # key-space, is what must keep them apart.
                    obs.touch("interface", "r1", f"Ethernet{i % 4}")
            vectors[thread_index] = vector

        threads = [
            threading.Thread(target=hammer, args=(t,))
            for t in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for vector in vectors.values():
            assert vector == {
                ("interface", "r1", f"Ethernet{i}", None): self.ITERATIONS // 4
                for i in range(4)
            }

    def test_concurrent_twins_record_what_each_records_alone(self):
        """Two threads ask ``reachability`` at once on two snapshots of
        one network: each record equals the one a lone run leaves."""
        first, second = twins()

        def alone(configs):
            store = SnapshotStore(None)
            store.init("x", configs)
            run_question(store, "x", "reachability", {})
            return store.get("x").coverage_records()

        expected = {"A": alone(first), "B": alone(second)}
        store = SnapshotStore(None)
        store.init("A", first)
        store.init("B", second)
        barrier = threading.Barrier(2)

        def ask(name):
            barrier.wait()
            run_question(store, name, "reachability", {})

        threads = [threading.Thread(target=ask, args=(n,)) for n in "AB"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for name in "AB":
            assert store.get(name).coverage_records() == expected[name]


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestPmapAttributionStress:
    ITEMS = 24

    @staticmethod
    def _work(item):
        obs.touch("interface", f"host{item}", "Ethernet0")
        obs.touch("acl_line", f"host{item}", "ACL", item)
        return item

    def test_worker_touches_come_back_attributed(self):
        with obs.coverage_scope() as vector:
            results = pmap(self._work, list(range(self.ITEMS)), jobs=2,
                           min_items=2)
        assert results == list(range(self.ITEMS))
        assert sum(vector.values()) == 2 * self.ITEMS
        assert {key[1] for key in vector} == {
            f"host{i}" for i in range(self.ITEMS)
        }

    def test_sequential_pmap_questions_stay_separate(self):
        with obs.coverage_scope() as qa:
            pmap(self._work, list(range(self.ITEMS)), jobs=2, min_items=2)
        pmap(self._work, list(range(self.ITEMS)), jobs=2, min_items=2)
        with obs.coverage_scope() as qb:
            pmap(self._work, list(range(self.ITEMS)), jobs=2, min_items=2)
        assert sum(qa.values()) == 2 * self.ITEMS
        assert qa == qb  # same work, so identical footprints, apart


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestForkedSweepTelemetry:
    """A sweep's telemetry is the same whether its scenarios run inline or
    on forked workers: the workers inherit the request context from the
    calling thread and ship their metrics and touches back."""

    @staticmethod
    def _sweep(jobs, trace):
        obs.reset()
        obs.enable(str(trace))
        session = Session.from_texts(network_by_name("NET1").generate(1))
        params = {"k": 1, "kinds": ["link"]}
        with obs.context.request_context(request_id=f"req-sweep-{jobs}"):
            with session.question_scope("sweep", params):
                result = session.sweep(k=1, kinds=("link",), jobs=jobs)
        obs.disable()
        counters = {
            name: value for name, value in obs.metrics().dump()["counters"].items()
            if name == "delta.runs" or name.startswith("sweep.")
        }
        with open(trace) as handle:
            events = [json.loads(line) for line in handle]
        return result, session.coverage_records(), counters, events

    def test_forked_sweep_reports_as_inline(self, tmp_path):
        serial, serial_records, serial_counters, _ = self._sweep(
            1, tmp_path / "serial.jsonl"
        )
        forked, forked_records, forked_counters, events = self._sweep(
            2, tmp_path / "forked.jsonl"
        )
        assert forked.stats.evaluated == serial.stats.evaluated >= 4
        assert forked_records == serial_records
        (record,) = forked_records.values()
        assert sum(record["vector"].values()) > 0
        assert forked_counters == serial_counters
        assert forked_counters["delta.runs"] == forked.stats.evaluated
        worker_spans = [
            event for event in events
            if event["type"] == "span" and event["pid"] != os.getpid()
        ]
        assert {event["name"] for event in worker_spans} >= {"delta", "dataplane"}
        assert {event.get("rid") for event in worker_spans} == {"req-sweep-2"}
