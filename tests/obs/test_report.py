"""Tests for the ``python -m repro report`` trace renderer."""

import json
import subprocess
import sys

import pytest

from repro import obs
from repro.__main__ import main as repro_main
from repro.obs.report import TraceReport


def main(argv):
    return repro_main(["report", *argv])


@pytest.fixture(autouse=True)
def obs_clean():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def write_trace(path):
    """A small but complete trace: nested spans, metrics, coverage."""
    obs.enable(str(path))
    with obs.span("parse", files=2):
        obs.add("parse.files", 2)
    with obs.span("dataplane"):
        with obs.span("dataplane.bgp"):
            obs.observe(
                "dataplane.bgp.iteration_delta_routes", 7.0, obs.COUNT_BUCKETS
            )
    obs.gauge("bdd.nodes", 123)
    obs.coverage_event("reachability", {"interface:r1:eth0": 1})
    obs.flush()
    obs.disable()


class TestTraceReport:
    def test_span_tree_paths_and_aggregation(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        write_trace(trace)
        report = TraceReport.from_file(str(trace))
        paths = [row[0] for row in report.span_tree()]
        assert "parse" in paths
        assert "dataplane/dataplane.bgp" in paths
        assert report.unclosed() == []

    def test_render_contains_all_sections(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        write_trace(trace)
        rendered = TraceReport.from_file(str(trace)).render()
        assert "span tree" in rendered
        assert "parse.files" in rendered
        assert "bdd.nodes" in rendered
        # A histogram renders as its count, p50 and p95: one sample of 7
        # in the (5, 10] bucket interpolates to 7.5 and 9.75.
        (line,) = [
            line for line in rendered.splitlines()
            if "dataplane.bgp.iteration_delta_routes" in line
        ]
        assert line.split()[1:] == ["n=1", "p50=7.500", "p95=9.750"]
        assert "interface" in rendered
        assert "0 corrupt" in rendered

    def test_corrupt_and_halfwritten_lines_are_skipped(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        write_trace(trace)
        with open(trace, "a") as handle:
            handle.write("this is not json\n")
            handle.write('{"type": "span", "name": "torn", "wall_s"\n')
            handle.write("[1, 2, 3]\n")
        report = TraceReport.from_file(str(trace))
        assert report.corrupt_lines == 3
        assert report.unclosed() == []
        assert "3 corrupt" in report.render()

    def test_missing_file_degrades_to_empty_report(self, tmp_path, capsys):
        report = TraceReport.from_file(str(tmp_path / "nope.jsonl"))
        assert report.total_lines == 0
        assert "(no spans)" in report.render()

    def test_spans_merge_across_pids(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        events = [
            {"type": "span", "name": "work", "id": 1, "parent": 0,
             "depth": 0, "pid": 100, "wall_s": 1.0, "cpu_s": 1.0},
            {"type": "span", "name": "work", "id": 1, "parent": 0,
             "depth": 0, "pid": 200, "wall_s": 2.0, "cpu_s": 2.0},
        ]
        trace.write_text("".join(json.dumps(e) + "\n" for e in events))
        report = TraceReport.from_file(str(trace))
        rows = report.span_tree()
        assert rows == [("work", 2, 3.0, 3.0)]


class TestCli:
    def test_main_renders_and_exits_zero(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        write_trace(trace)
        assert main([str(trace)]) == 0
        assert "span tree" in capsys.readouterr().out

    def test_strict_fails_on_unclosed_span(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        obs.enable(str(trace))
        leaky = obs.span("leaky")
        leaky.__enter__()
        obs.flush()
        leaky.__exit__(None, None, None)
        # Truncate after the flush so the close event is not in the file.
        lines = [
            line
            for line in trace.read_text().splitlines()
            if json.loads(line).get("type") != "span"
        ]
        trace.write_text("".join(line + "\n" for line in lines))
        obs.disable()
        assert main([str(trace), "--strict"]) == 1
        assert "UNCLOSED: leaky" in capsys.readouterr().out

    def test_strict_passes_on_clean_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        write_trace(trace)
        assert main([str(trace), "--strict"]) == 0

    def test_span_events_carry_timestamps(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        write_trace(trace)
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        spanlike = [e for e in events if e["type"] in ("start", "span")]
        assert spanlike and all("ts" in e for e in spanlike)

    def test_strict_fails_on_close_before_start(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        events = [
            {"type": "start", "name": "warp", "id": 1, "parent": 0,
             "depth": 0, "pid": 100, "ts": 2000.0},
            {"type": "span", "name": "warp", "id": 1, "parent": 0,
             "depth": 0, "pid": 100, "wall_s": 0.5, "cpu_s": 0.5,
             "ts": 1999.0},
        ]
        trace.write_text("".join(json.dumps(e) + "\n" for e in events))
        report = TraceReport.from_file(str(trace))
        assert len(report.time_regressions()) == 1
        assert "warp" in report.time_regressions()[0]
        assert main([str(trace), "--strict"]) == 1
        captured = capsys.readouterr()
        assert "TIME REGRESSION" in captured.out
        assert "STRICT" in captured.err

    def test_strict_passes_when_close_after_start(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        events = [
            {"type": "start", "name": "fine", "id": 1, "parent": 0,
             "depth": 0, "pid": 100, "ts": 1000.0},
            {"type": "span", "name": "fine", "id": 1, "parent": 0,
             "depth": 0, "pid": 100, "wall_s": 0.5, "cpu_s": 0.5,
             "ts": 1000.5},
        ]
        trace.write_text("".join(json.dumps(e) + "\n" for e in events))
        report = TraceReport.from_file(str(trace))
        assert report.time_regressions() == []
        assert main([str(trace), "--strict"]) == 0

    def test_module_entrypoint_runs(self, tmp_path):
        import os

        trace = tmp_path / "trace.jsonl"
        write_trace(trace)
        repo_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "report", str(trace)],
            capture_output=True,
            text=True,
            env=env,
            cwd=repo_root,
        )
        assert result.returncode == 0
        assert "span tree" in result.stdout


class TestCoverageSection:
    def write_attributed_trace(self, path):
        obs.enable(str(path))
        obs.coverage_event(
            "reachability", {"interface:r1:eth0": 1, "interface:r1:eth1": 1}
        )
        obs.coverage_event("lint", {"acl_line:r1:ACL:0": 2})
        obs.coverage_event("lint", {"acl_line:r1:ACL:0": 1})
        obs.flush()
        obs.disable()

    def test_text_render_shows_per_question_attribution(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        self.write_attributed_trace(trace)
        assert main([str(trace)]) == 0
        out = capsys.readouterr().out
        assert "per-question attribution" in out
        assert "reachability: interface=2" in out
        # Two lint runs add up; a structure both touched counts once.
        assert "lint: acl_line=1" in out

    def test_json_flag_emits_coverage_section(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        self.write_attributed_trace(trace)
        assert main([str(trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-obs-report/v1"
        coverage = doc["coverage"]
        assert coverage["touched_by_kind"] == {"acl_line": 1, "interface": 2}
        assert coverage["questions"]["reachability"] == {"interface": 2}
        assert coverage["questions"]["lint"] == {"acl_line": 1}
        assert set(coverage) == {"touched_by_kind", "questions"}
        assert doc["events"]["corrupt"] == 0


def test_delta_section_names_every_stage_and_reuse_counter(tmp_path):
    """From a trace alone: how each routing stage and the analyzer of
    each delta came out, and how many RIBs, FIBs and graph pipelines
    came from the base."""
    from repro import Session
    from repro.delta.edits import irrelevant_edit
    from repro.synth.special import net1

    trace = tmp_path / "trace.jsonl"
    configs = net1(num_spurs=2)
    target = sorted(configs)[0]
    obs.enable(str(trace))
    base = Session.from_texts(configs)
    base.analyzer
    base.delta({target: irrelevant_edit(configs[target])}).analyzer
    obs.flush()
    obs.disable()
    rendered = TraceReport.from_file(str(trace)).render()
    section = rendered.split("== incremental (delta) engine ==")[1].split("\n\n")[0]
    devices = len(configs)
    counters = {
        "delta.reuse.devices": devices,
        "delta.reuse.fib": devices,
        "delta.reuse.pipeline": devices,  # the base's analyzer, whole
        "delta.reuse.rib": devices,
        "delta.stage.analyzer.reused": 1,
        "delta.stage.bgp.reused": 1,
        "delta.stage.fibs.reused": 1,
        "delta.stage.igp.reused": 1,
    }
    assert section.splitlines()[1:] == [
        "  runs: 1",
        f"  main RIBs rebuilt: 0/{devices} (100% kept from the base)",
        *(f"  {name:<42} {value:>12}" for name, value in counters.items()),
        "  parse memo hits: 3",
    ]
