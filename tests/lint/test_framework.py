"""Framework behavior: config, suppression, metrics, runner, sessions."""

import pytest

from repro import obs
from repro.config.loader import load_snapshot_from_texts
from repro.core.session import Session
from repro.lint import (
    LintConfig,
    Severity,
    all_rules,
    get_rule,
    lint_snapshot,
)

MESSY = {
    "r1": """
hostname r1
! lint-disable duplicate-ip
interface e0
 ip address 10.0.0.1 255.255.255.0
 ip access-group MISSING in
interface e1
 ip address 10.0.0.1 255.255.255.0
ip access-list extended DEAD
 permit ip any any
""",
    "r2": """
hostname r2
interface e0
 ip address 10.0.0.1 255.255.255.0
""",
}


@pytest.fixture
def metrics_on():
    """Lint writes its metrics only while collection is on."""
    obs.enable_metrics()
    yield
    obs.disable()


@pytest.fixture(scope="module")
def snapshot():
    return load_snapshot_from_texts(MESSY)


class TestRegistry:
    def test_expected_rules_registered(self):
        rule_ids = {rule.rule_id for rule in all_rules()}
        assert rule_ids >= {
            "acl-line-unreachable",
            "acl-line-partially-shadowed",
            "route-map-clause-unreachable",
            "vacuous-match",
            "bgp-session-compat",
            "ospf-adjacency-mismatch",
            "mtu-mismatch",
            "undefined-reference",
            "unused-structure",
            "duplicate-ip",
        }

    def test_rules_sorted_and_described(self):
        rules = all_rules()
        assert [r.rule_id for r in rules] == sorted(r.rule_id for r in rules)
        for rule in rules:
            assert rule.description
            assert rule.category in {
                "semantic",
                "cross-device",
                "hygiene",
                "dataflow",
            }

    def test_get_rule(self):
        assert get_rule("duplicate-ip").severity is Severity.WARNING
        assert get_rule("nope") is None


class TestLintConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown lintconfig keys"):
            LintConfig.from_dict({"bogus": 1})

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="unknown severity"):
            LintConfig.from_dict({"severity": {"duplicate-ip": "fatal"}})

    def test_rule_selection(self):
        config = LintConfig.from_dict(
            {"rules": ["duplicate-ip", "unused-structure"],
             "disable": ["unused-structure"]}
        )
        assert config.rule_enabled("duplicate-ip")
        assert not config.rule_enabled("unused-structure")
        assert not config.rule_enabled("mtu-mismatch")


class TestRunner:
    def test_report_shape(self, snapshot):
        report = lint_snapshot(snapshot)
        assert set(report.rule_seconds) == set(report.rules_run)
        assert report.total_seconds >= 0
        payload = report.to_json()
        assert payload["summary"]["total"] == len(report.active())
        assert set(payload["rule_seconds"]) == set(report.rules_run)

    def test_rule_filtering(self, snapshot):
        report = lint_snapshot(
            snapshot, LintConfig.from_dict({"rules": ["undefined-reference"]})
        )
        assert report.rules_run == ["undefined-reference"]
        assert all(
            f.rule_id == "undefined-reference" for f in report.findings
        )
        assert len(report.findings) == 1

    def test_severity_override(self, snapshot):
        report = lint_snapshot(
            snapshot,
            LintConfig.from_dict(
                {"rules": ["undefined-reference"],
                 "severity": {"undefined-reference": "note"}}
            ),
        )
        assert report.findings[0].severity is Severity.NOTE

    def test_exit_codes(self, snapshot):
        report = lint_snapshot(snapshot)
        assert report.exit_code(None) == 0
        assert report.exit_code("never") == 0
        assert report.exit_code("error") == 1  # undefined-reference
        report = lint_snapshot(
            snapshot, LintConfig.from_dict({"rules": ["mtu-mismatch"]})
        )
        assert report.exit_code("note") == 0  # no findings at all

    def test_metrics_recorded(self, snapshot, metrics_on):
        metrics = obs.metrics()
        runs_before = metrics.counter("lint.runs")
        found_before = metrics.counter("lint.findings.undefined-reference")
        report = lint_snapshot(snapshot)
        assert metrics.counter("lint.runs") == runs_before + 1
        by_rule = report.counts_by_rule()
        assert (
            metrics.counter("lint.findings.undefined-reference")
            == found_before + by_rule["undefined-reference"]
        )
        histogram = metrics.bucket_histogram(
            "lint.rule.seconds", rule="undefined-reference"
        )
        assert histogram is not None and histogram.count >= 1


class TestSuppression:
    def test_in_source_lint_disable(self, snapshot):
        # r1 carries "! lint-disable duplicate-ip": its duplicate-ip
        # findings are suppressed but still present in the report.
        report = lint_snapshot(snapshot)
        dup = [f for f in report.findings if f.rule_id == "duplicate-ip"]
        assert dup, "duplicate address 10.0.0.1 should be found"
        suppressed = [f for f in dup if f.suppressed]
        assert suppressed and all(f.hostname == "r1" for f in suppressed)
        assert "lint-disable at r1:" in suppressed[0].suppression
        # Suppressed findings don't count toward exit codes.
        only_dup = lint_snapshot(
            snapshot, LintConfig.from_dict({"rules": ["duplicate-ip"]})
        )
        active_hosts = {f.hostname for f in only_dup.active()}
        assert "r1" not in active_hosts

    def test_lintconfig_suppression(self, snapshot):
        report = lint_snapshot(
            snapshot,
            LintConfig.from_dict(
                {"rules": ["undefined-reference"],
                 "suppress": [{"rule": "undefined-reference", "node": "r1"}]}
            ),
        )
        assert report.findings and all(f.suppressed for f in report.findings)
        assert report.exit_code("error") == 0

    def test_bare_lint_disable_suppresses_all(self):
        configs = {
            "r1": MESSY["r1"].replace(
                "! lint-disable duplicate-ip", "! lint-disable"
            ),
            "r2": MESSY["r2"],
        }
        report = lint_snapshot(load_snapshot_from_texts(configs))
        assert all(
            f.suppressed for f in report.findings if f.hostname == "r1"
        )


class TestSessionSurface:
    def test_session_lint(self, snapshot):
        report = Session(snapshot).lint(
            {"rules": ["undefined-reference", "duplicate-ip"]}
        )
        assert sorted(report.rules_run) == [
            "duplicate-ip", "undefined-reference",
        ]

    def test_session_lint_rejects_bad_config(self, snapshot):
        with pytest.raises(ValueError):
            Session(snapshot).lint({"nope": True})
