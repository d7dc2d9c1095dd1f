"""Resilience report: findings, gates, renderers, and the CLI."""

import json

import pytest

from repro.__main__ import main
from repro.findings import SARIF_SCHEMA, Severity, to_sarif
from repro.sweep import sweep_session
from repro.sweep.report import (
    RULE_BASE_BROKEN,
    RULE_FAILURE_SET,
    RULE_SPOF,
    RULES,
    TOOL_NAME,
    findings_from_result,
    gate_exit_code,
    render_text,
    report_json,
)
from repro.sweep.scenarios import ReachabilityProperty, host_files
from tests.test_cli import run_module

CHAIN_PROP = ReachabilityProperty(
    src_node="r1", src_interface="Ethernet0", dst_ip="10.99.0.1"
)


@pytest.fixture(scope="module")
def chain_result(lab_configs):
    from repro.core.session import Session

    session = Session.from_texts(lab_configs, cache=False)
    return sweep_session(session, k=1, kinds=("link",), prop=CHAIN_PROP)


@pytest.fixture(scope="module")
def broken_result(lab_configs):
    from repro.core.session import Session

    session = Session.from_texts(lab_configs, cache=False)
    prop = ReachabilityProperty(
        src_node="island1", src_interface="Ethernet0", dst_ip="10.99.0.1"
    )
    return sweep_session(session, k=1, kinds=("link",), prop=prop)


class TestFindings:
    def test_spofs_become_error_findings(self, chain_result, lab_session):
        findings = findings_from_result(
            chain_result, host_files(lab_session.snapshot)
        )
        assert len(findings) == 2
        assert all(f.rule_id == RULE_SPOF for f in findings)
        assert all(f.severity is Severity.ERROR for f in findings)
        assert all(f.category == "resilience" for f in findings)
        # anchored at the config file of the first host in the element id
        assert findings[0].location.file in {"r1.cfg", "r2.cfg"}
        assert findings[0].hostname in {"r1", "r2"}
        assert dict(findings[0].properties)["elements"]

    def test_base_broken_short_circuits(self, broken_result):
        findings = findings_from_result(broken_result)
        assert [f.rule_id for f in findings] == [RULE_BASE_BROKEN]
        assert findings[0].severity is Severity.ERROR

    def test_multi_element_sets_are_warnings(self, chain_result):
        from repro.sweep.engine import SweepResult

        doctored = SweepResult(
            prop=chain_result.prop,
            k=2,
            kinds=chain_result.kinds,
            base_verdict=chain_result.base_verdict,
            outcomes=chain_result.outcomes,
            minimal_failing_sets=[("link:a[e0]--b[e0]", "link:c[e0]--d[e0]")],
            stats=chain_result.stats,
        )
        findings = findings_from_result(doctored)
        assert [f.rule_id for f in findings] == [RULE_FAILURE_SET]
        assert findings[0].severity is Severity.WARNING
        assert dict(findings[0].properties)["elements"] == (
            "link:a[e0]--b[e0]", "link:c[e0]--d[e0]",
        )


class TestGate:
    def test_levels(self, chain_result, broken_result):
        spof = findings_from_result(chain_result)
        base = findings_from_result(broken_result)
        assert gate_exit_code(spof, "none") == 0
        assert gate_exit_code(spof, "base") == 0
        assert gate_exit_code(spof, "spof") == 1
        assert gate_exit_code(spof, "any") == 1
        assert gate_exit_code(base, "base") == 1
        assert gate_exit_code([], "any") == 0

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="unknown --fail-on"):
            gate_exit_code([], "sometimes")


class TestRenderers:
    def test_text(self, chain_result):
        findings = findings_from_result(chain_result)
        text = render_text(chain_result, findings)
        assert "== resilience sweep ==" in text
        assert "single point of failure" in text
        assert "scenarios/s" in text

    def test_text_verbose_lists_scenarios(self, chain_result):
        text = render_text(chain_result, [], verbose=True)
        assert "per-scenario verdicts:" in text
        assert "link:r1[Ethernet0]--r2[Ethernet0]" in text

    def test_json_round_trips(self, chain_result):
        findings = findings_from_result(chain_result)
        body = json.loads(json.dumps(report_json(chain_result, findings)))
        assert body["schema"] == "repro-sweep/v1"
        assert len(body["findings"]) == len(findings)
        # the common Finding.to_json() row, elements under properties
        row = body["findings"][0]
        assert row["rule"] == RULE_SPOF and row["severity"] == "error"
        assert row["properties"]["elements"] == list(
            dict(findings[0].properties)["elements"]
        )

    def test_sarif_shape(self, chain_result, lab_session):
        findings = findings_from_result(
            chain_result, host_files(lab_session.snapshot)
        )
        stats = {"stats": chain_result.stats.to_json()}
        sarif = to_sarif(TOOL_NAME, RULES, findings, stats)
        assert sarif["$schema"] == SARIF_SCHEMA
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-sweep"
        assert run["properties"] == stats
        assert len(run["results"]) == len(findings)
        result = run["results"][0]
        assert result["ruleId"] == RULE_SPOF
        assert result["properties"]["elements"]
        rules = run["tool"]["driver"]["rules"]
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
        # round-trips through json
        json.loads(json.dumps(sarif))


class TestObsReportSection:
    def test_sweep_counters_surface_in_trace_report(self):
        from repro.obs.report import TraceReport

        report = TraceReport()
        report.metrics.inc("sweep.runs")
        report.metrics.inc("sweep.scenarios", 21)
        report.metrics.inc("sweep.scenarios_evaluated", 10)
        report.metrics.inc("sweep.scenarios_pruned", 11)
        report.metrics.inc("sweep.scenarios_pruned.cut", 9)
        report.metrics.inc("sweep.scenarios_pruned.duplicate", 2)
        report.metrics.inc("sweep.minimal_sets_found", 2)
        text = report.render()
        assert "== resilience sweeps ==" in text
        assert "pruned: 11/21 (52%: 9 cut, 2 duplicate)" in text
        body = report.to_json()
        assert body["sweep"]["sweep.scenarios"] == 21


class TestCli:
    #: a real ``python -m repro`` in the checkout this file belongs to
    _run = staticmethod(run_module)

    def test_report_text_gate_spof(self):
        proc = self._run(
            "sweep", "--network", "NET1", "-k", "1", "--kinds", "link",
            "--fail-on", "none",
        )
        assert proc.returncode == 0, proc.stderr
        assert "== resilience sweep ==" in proc.stdout

    def test_report_sarif_to_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.sarif"
        argv = [
            "sweep", "--network", "NET1", "-k", "1", "--kinds", "link",
            "--format", "sarif", "--out", str(out), "--fail-on", "none",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == ""
        sarif = json.loads(out.read_text())
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["properties"]["stats"]["scenarios"] > 0

    def test_fail_on_any_exits_nonzero_when_findings(self, capsys):
        # NET1 has single points of failure, so the gate trips
        argv = ["sweep", "--network", "NET1", "-k", "1", "--fail-on", "any"]
        assert main(argv) == 1
        assert "single-point-of-failure" in capsys.readouterr().out

    def test_validate_smoke_single_network(self):
        # --smoke caps the element universe at 4; --networks picks NET1
        proc = self._run("validate", "sweep", "--networks", "NET1", "--smoke")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "1 network(s), 10 checks, 0 finding(s)" in proc.stdout
