"""Core obs subsystem tests: spans, metrics, coverage, and the
zero-cost-when-disabled guarantee."""

import json
import threading

import pytest

from repro import obs
from repro.config.loader import load_snapshot_from_texts
from repro.obs.metrics import DEFAULT_BUCKETS, Metrics
from repro.obs.trace import _NULL_SPAN


@pytest.fixture(autouse=True)
def obs_clean():
    """Every test starts and ends with obs off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestSpans:
    def test_nested_spans_record_parentage(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        spans = [e for e in obs.events() if e["type"] == "span"]
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner["parent"] == outer["id"]
        assert inner["depth"] == 1 and outer["depth"] == 0
        assert inner["wall_s"] >= 0.0 and inner["cpu_s"] >= 0.0

    def test_start_events_precede_close_events(self):
        obs.enable()
        with obs.span("phase"):
            pass
        types = [e["type"] for e in obs.events()]
        assert types == ["start", "span"]

    def test_span_attrs_serialized_sorted(self):
        obs.enable()
        with obs.span("parse", zebra=1, alpha="x"):
            pass
        event = [e for e in obs.events() if e["type"] == "span"][0]
        assert list(event["attrs"]) == ["alpha", "zebra"]

    def test_exception_marks_span(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("nope")
        event = [e for e in obs.events() if e["type"] == "span"][0]
        assert event["error"] == "ValueError"

    def test_unclosed_span_listed_in_flush(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        obs.enable(str(trace))
        span = obs.span("leaky")
        span.__enter__()
        obs.flush()
        flush_events = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if json.loads(line)["type"] == "flush"
        ]
        assert flush_events[-1]["unclosed"] == ["leaky"]
        span.__exit__(None, None, None)

    def test_jsonl_trace_is_valid_line_by_line(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        obs.enable(str(trace))
        with obs.span("a", n=1):
            obs.add("k")
        obs.flush()
        lines = trace.read_text().splitlines()
        assert lines
        for line in lines:
            event = json.loads(line)
            assert isinstance(event, dict) and "type" in event


class TestDisabledPath:
    def test_span_factory_returns_shared_null_span(self):
        assert obs.span("anything") is _NULL_SPAN
        assert obs.span("other", attr=1) is _NULL_SPAN

    def test_helpers_record_nothing_when_disabled(self):
        obs.add("counter")
        obs.gauge("gauge", 5)
        obs.observe("hist", 1.0)
        obs.touch("interface", "r1", "eth0")
        obs.coverage_event("q", {"interface:r1:eth0": 1})
        dump = obs.metrics_dump()
        assert dump["counters"] == {}
        assert dump["gauges"] == {}
        assert dump["bucket_histograms"] == {}
        assert obs.events() == []

    def test_the_pipeline_records_nothing_when_disabled(self):
        """Lint, a delta (validated, its graph built) and a k=1 sweep
        write through the guarded helpers: with obs off the registry
        stays empty."""
        from repro.core.session import Session
        from repro.delta.edits import relevant_edit
        from repro.synth.special import net1

        configs = net1(2)
        session = Session.from_texts(configs)
        session.lint()
        target = sorted(configs)[0]
        child = session.delta({target: relevant_edit(configs[target])}, validate=True)
        child.lint()
        child.reachability()
        session.sweep(k=1, kinds=["link"], jobs=1)
        assert obs.metrics().dump() == {
            "counters": {}, "gauges": {}, "bucket_histograms": {},
        }

    def test_obs_span_still_times_when_disabled(self):
        with obs.Span("bench") as span:
            sum(range(100))
        assert span.wall_s >= 0.0
        assert obs.events() == []


class TestMetrics:
    def test_counters_gauges_histograms(self):
        metrics = Metrics()
        metrics.inc("a")
        metrics.inc("a", 4)
        metrics.gauge("g", 2.5)
        metrics.observe("h", 1.0)
        metrics.observe("h", 3.0)
        assert metrics.counter("a") == 5
        assert metrics.gauge_value("g") == 2.5
        hist = metrics.bucket_histogram("h")
        assert hist.count == 2 and hist.total == 4.0
        # One sample in the (0.5, 1] bucket, one in (2.5, 5].
        assert hist.cumulative()[DEFAULT_BUCKETS.index(1.0)] == (1.0, 1)
        assert hist.cumulative()[DEFAULT_BUCKETS.index(5.0)] == (5.0, 2)

    def test_merge_adds_counters_and_histograms(self):
        a, b = Metrics(), Metrics()
        a.inc("c", 2)
        a.observe("h", 1.0)
        a.gauge("g", 1)
        b.inc("c", 3)
        b.observe("h", 5.0)
        b.gauge("g", 9)
        a.merge(b.dump())
        assert a.counter("c") == 5
        assert a.bucket_histogram("h").count == 2
        assert a.bucket_histogram("h").total == 6.0
        assert a.gauge_value("g") == 9  # gauges: last writer wins

    def test_dump_roundtrips_through_json(self):
        metrics = Metrics()
        metrics.inc("x")
        metrics.observe("y", 0.5)
        restored = Metrics()
        restored.merge(json.loads(json.dumps(metrics.dump())))
        assert restored.counter("x") == 1
        assert restored.bucket_histogram("y").count == 1

    def test_thread_safety_of_counters(self):
        obs.enable()

        def bump():
            for _ in range(1000):
                obs.add("threads")

        workers = [threading.Thread(target=bump) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert obs.metrics().counter("threads") == 4000


class TestPhase:
    def test_a_phase_is_one_span_and_one_sample_of_the_same_name(self):
        obs.enable()
        with obs.phase("parse", files=2):
            pass
        (event,) = [e for e in obs.events() if e["type"] == "span"]
        assert event["name"] == "parse" and event["attrs"] == {"files": 2}
        histogram = obs.metrics().bucket_histogram("phase.seconds", phase="parse")
        assert histogram.count == 1
        assert histogram.total == pytest.approx(event["wall_s"], abs=1e-6)

    def test_metrics_only_samples_without_a_span(self):
        obs.enable_metrics()
        with obs.phase("lint"):
            pass
        assert obs.events() == []
        assert obs.metrics().bucket_histogram("phase.seconds", phase="lint").count == 1

    def test_disabled_phase_is_the_null_span(self):
        assert obs.phase("dataplane") is _NULL_SPAN

    def test_a_failed_phase_records_no_sample(self):
        obs.enable_metrics()
        with pytest.raises(RuntimeError):
            with obs.phase("bdd"):
                raise RuntimeError("boom")
        assert obs.metrics().bucket_histogram("phase.seconds", phase="bdd") is None


class TestCoverage:
    CONFIGS = {
        "r1.cfg": """
hostname r1
interface eth0
 ip address 10.0.0.1 255.255.255.0
 ip access-group FILTER in
interface eth1
 ip address 10.1.0.1 255.255.255.0
ip access-list extended FILTER
 deny tcp any any eq 23
 permit ip any any
route-map RM permit 10
 match ip address prefix-list PL
""",
    }

    def test_touch_and_report(self):
        from repro.core.session import Session

        session = Session.from_texts(self.CONFIGS)
        obs.enable()
        with session.question_scope("parse_warnings", None):
            obs.touch("interface", "r1", "eth0")
            obs.touch("acl_line", "r1", "FILTER", 0)
        report = session.coverage_report()
        assert report.touched["interface"] == 1
        assert report.totals["interface"] == 2
        assert report.touched["acl_line"] == 1
        assert report.totals["acl_line"] == 2
        assert report.totals["route_map_clause"] == 1
        assert report.questions == {
            "parse_warnings": {
                "interface": 1, "acl_line": 1, "route_map_clause": 0,
            }
        }
        assert "interface" in report.describe()
        # The run is one coverage event in the trace.
        events = [e for e in obs.events() if e["type"] == "coverage"]
        assert events == [{
            "type": "coverage", "question": "parse_warnings",
            "pid": events[0]["pid"],
            "vector": {"acl_line:r1:FILTER:0": 1, "interface:r1:eth0": 1},
        }]

    def test_merge_unions_touches(self):
        """Two runs of one (question, params) on a session add up into
        one record: a rerun whose answer was cached touches less."""
        from repro.core.session import Session

        session = Session.from_texts(self.CONFIGS)
        with session.question_scope("parse_warnings", None):
            obs.touch("interface", "r1", "eth0")
        with session.question_scope("parse_warnings", None):
            obs.touch("interface", "r1", "eth0")
            obs.touch("interface", "r1", "eth1")
        (record,) = session.coverage_records().values()
        assert record["runs"] == 2
        assert record["hosts"] == ["r1"]
        assert record["vector"] == {
            "interface:r1:eth0": 2, "interface:r1:eth1": 1,
        }

    def test_session_coverage_report_counts_totals(self):
        from repro.core.session import Session

        session = Session.from_texts(self.CONFIGS)
        session.reachability()  # outside a scope: records nothing
        report = session.coverage_report()
        assert report.totals["interface"] == 2
        assert all(count == 0 for count in report.touched.values())
        assert report.uncovered_total == sum(report.totals.values())


class TestSessionIntegration:
    def test_parse_warnings_is_property_with_attribution(self):
        from repro.core.session import Session

        configs = {
            "r1.cfg": "hostname r1\nfrobnicate widget\n",
        }
        session = Session.from_texts(configs)
        warnings = session.parse_warnings
        assert isinstance(warnings, list)
        assert warnings, "unparsed line should produce a warning"
        assert warnings[0].source_file == "r1.cfg"
        assert "r1.cfg" in warnings[0].describe()

    def test_parse_counters_emitted(self):
        obs.enable()
        load_snapshot_from_texts(
            {"r1.cfg": "hostname r1\n", "r2.cfg": "hostname r2\n"}
        )
        assert obs.metrics().counter("parse.files") == 2
        assert obs.metrics().counter("parse.lines.ciscoish") >= 2
