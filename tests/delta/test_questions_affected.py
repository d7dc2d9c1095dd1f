"""Coverage-guided question prioritization on deltas: after a one-line
routing edit, ``questions_affected`` is a strict subset of everything
that ran, skipped questions provably answer byte-identically, and the
records chain across two deltas (the invalidation regression)."""

import json

import pytest

from repro import obs
from repro.core.cache import SnapshotCache
from repro.service.serialize import QUESTIONS, run_question
from repro.service.store import SnapshotStore
from repro.synth.special import net1

ROUTE_LINE = "ip route 203.0.113.0 255.255.255.0 Null0\n"

#: A probe through net1-core0's SPUR_FILTER (deny tcp any any eq 23).
TELNET = {
    "src_ip": "10.99.0.1", "dst_ip": "10.99.0.2",
    "ip_protocol": "tcp", "src_port": 1024, "dst_port": 23,
}

#: Every registered question this battery can run without a second
#: snapshot (route_diff needs a reference snapshot).
BATTERY = [
    ("routes", {}),
    ("reachability", {}),
    ("traceroute", {
        "packet": TELNET, "node": "net1-core0", "interface": "Ethernet0",
    }),
    ("test_filter", {
        "node": "net1-core0", "filter": "SPUR_FILTER", "packet": TELNET,
    }),
    ("explain_route", {"node": "net1-core1", "prefix": "192.0.2.0/30"}),
    ("undefined_references", {}),
    ("unused_structures", {}),
    ("duplicate_ips", {}),
    ("lint", {}),
    ("parse_warnings", {}),
]

#: Wall-clock fields that legitimately differ between two identical
#: executions (the lint dataflow block carries fixpoint timing);
#: everything else must match byte for byte.
VOLATILE = {"rule_seconds", "total_seconds", "dataflow"}


def canonical(answer):
    """Byte-stable JSON form of an answer (timing fields stripped)."""
    if isinstance(answer, dict):
        answer = {
            key: value for key, value in answer.items()
            if key not in VOLATILE
        }
    return json.dumps(answer, sort_keys=True)


@pytest.fixture(autouse=True)
def obs_clean():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def run_battery(store, name):
    return {
        question: canonical(run_question(store, name, question, dict(params)))
        for question, params in BATTERY
    }


class TestQuestionsAffected:
    def test_routing_edit_affects_strict_subset(self, tmp_path):
        """The acceptance path: run every runnable registered question,
        make a one-line routing edit, and check the delta names a
        strict subset as affected — with the skipped ones provably
        answering byte-identically on the new snapshot."""
        obs.enable_metrics()
        store = SnapshotStore(SnapshotCache(str(tmp_path)))
        configs = net1(3)
        store.init("lab", configs)
        before = run_battery(store, "lab")

        store.patch("lab", {"net1-core2": configs["net1-core2"] + ROUTE_LINE})
        info = store.get("lab").delta_info
        assert info is not None
        assert info.seeds == ["net1-core2"]

        affected = {entry["question"] for entry in info.questions_affected}
        skipped = {entry["question"] for entry in info.questions_skipped}
        ran = {question for question, _ in BATTERY}
        # Strict subset of the registered questions, nothing invented,
        # nothing lost, no overlap.
        assert affected and affected < set(QUESTIONS)
        assert skipped and affected | skipped == ran
        assert not affected & skipped
        # Config-scoped questions pinned to untouched net1-core0 must
        # be skipped; the edit is a routing change, so routing-scoped
        # ones must rerun, and lint reads every device.
        assert {"test_filter"} <= skipped
        assert {"routes", "reachability", "lint"} <= affected
        # Ranking: every affected entry carries a positive overlap,
        # sorted best-first.
        overlaps = [entry["overlap"] for entry in info.questions_affected]
        assert all(value >= 1 for value in overlaps)
        assert overlaps == sorted(overlaps, reverse=True)

        # Differential validation: skipping was sound.
        after = run_battery(store, "lab")
        for question in skipped:
            assert after[question] == before[question], question

    def test_a_rebuilt_rib_affects_routing_questions_whatever_the_stages_reused(
        self, tmp_path
    ):
        """Every routing stage is taken from the base, yet the seed's
        main RIB changed: ``routing_changed`` keys on a RIB that may have
        changed — a seed's — not on ``fallback``, so every routing
        question is affected and answers differently."""
        obs.enable_metrics()
        store = SnapshotStore(SnapshotCache(str(tmp_path)))
        configs = net1(3)
        store.init("lab", configs)
        before = run_battery(store, "lab")
        store.patch("lab", {"net1-core2": configs["net1-core2"] + ROUTE_LINE})
        info = store.get("lab").delta_info
        affected = {entry["question"] for entry in info.questions_affected}
        routing = {
            question for question, _ in BATTERY
            if QUESTIONS[question].scope == "routing"
        }
        assert routing and routing <= affected
        after = run_battery(store, "lab")
        assert not info.fallback
        assert info.stages == {"igp": "reused", "bgp": "reused"}
        assert info.dirty_devices == ["net1-core2"]
        assert after["routes"] != before["routes"]

    def test_skipped_records_chain_across_two_deltas(self, tmp_path):
        """Regression for the stale-aggregate bug: records carried
        forward for skipped questions must survive a second delta
        without the question ever re-running, and the tracker must hold
        no touches for invalidated hosts."""
        obs.enable_metrics()
        store = SnapshotStore(SnapshotCache(str(tmp_path)))
        configs = net1(3)
        store.init("lab", configs)
        run_battery(store, "lab")

        store.patch("lab", {"net1-core2": configs["net1-core2"] + ROUTE_LINE})
        first = store.get("lab").delta_info
        first_skipped = {e["question"] for e in first.questions_skipped}
        assert "test_filter" in first_skipped

        # Second delta WITHOUT re-running anything in between: the
        # carried-forward records are the only knowledge source.
        store.patch("lab", {
            "net1-core2": configs["net1-core2"] + ROUTE_LINE + ROUTE_LINE
        })
        second = store.get("lab").delta_info
        second_skipped = {e["question"] for e in second.questions_skipped}
        assert "test_filter" in second_skipped
        assert "lint" not in second_skipped

        # Invalidation left no attributed touches on the edited host,
        # and the aggregates agree with the surviving vectors.
        tracker = obs.coverage()
        assert all(
            key[1] != "net1-core2" for key in tracker.touched_keys()
        )
        dump = tracker.dump()
        recomputed = {}
        for label, vector in dump["vectors"].items():
            for rendered, count in vector.items():
                kind = rendered.split(":", 1)[0]
                per_kind = recomputed.setdefault(label, {})
                per_kind[kind] = per_kind.get(kind, 0) + count
        assert dump["by_query"] == recomputed

    def test_new_device_marks_everything_affected(self, tmp_path):
        """A changed device *set* is unbounded: even an isolated new
        host grows global answers (routes rows, reachability sources),
        so no question may be skipped."""
        obs.enable_metrics()
        store = SnapshotStore(SnapshotCache(str(tmp_path)))
        store.init("lab", net1(3))
        run_battery(store, "lab")
        store.patch("lab", {"newdev": "hostname newdev\n"})
        info = store.get("lab").delta_info
        assert not info.questions_skipped
        assert {e["question"] for e in info.questions_affected} == {
            question for question, _ in BATTERY
        }
