"""Suppression interplay for dataflow rules: in-source lint-disable,
lintconfig suppress entries, and rule disable must all compose with the
cross-device findings — and SARIF must record each suppression with the
right ``kind``."""

from repro.config.loader import load_snapshot_from_texts
from repro.findings import result_keys, to_sarif
from repro.lint import LintConfig, all_rules, lint_snapshot

#: r1 redistributes private space into an eBGP session (route-leak on
#: r1), and r2 re-advertises what it learned (route-leak echo on r2) —
#: two findings on two devices from one defect, which is exactly the
#: case device-scoped suppression must distinguish.
LEAKY = {
    "r1": """
hostname r1
interface Ethernet0
 ip address 10.0.12.1 255.255.255.0
 no shutdown
ip route 10.9.0.0 255.255.0.0 Null0
router bgp 65001
 redistribute static
 neighbor 10.0.12.2 remote-as 65002
""",
    "r2": """
hostname r2
interface Ethernet0
 ip address 10.0.12.2 255.255.255.0
 no shutdown
router bgp 65002
 neighbor 10.0.12.1 remote-as 65001
""",
}


def leak_report(configs, lintconfig=None):
    snapshot = load_snapshot_from_texts(configs)
    raw = dict(lintconfig or {})
    raw.setdefault("rules", ["route-leak"])
    return lint_snapshot(snapshot, LintConfig.from_dict(raw))


def sarif_for(report):
    return to_sarif("repro-lint", all_rules(), report.findings)


class TestInSourceSuppression:
    def test_lint_disable_is_device_scoped(self):
        configs = {
            "r1": LEAKY["r1"].replace(
                "router bgp 65001",
                "! lint-disable route-leak\nrouter bgp 65001",
            ),
            "r2": LEAKY["r2"],
        }
        report = leak_report(configs)
        by_host = {}
        for finding in report.findings:
            by_host.setdefault(finding.hostname, []).append(finding)
        assert by_host["r1"] and all(f.suppressed for f in by_host["r1"])
        assert by_host["r1"][0].suppression.startswith("lint-disable at r1:")
        # The echo on r2 is a different device: not suppressed.
        assert by_host["r2"] and not any(f.suppressed for f in by_host["r2"])
        # Suppressed findings don't gate CI...
        assert report.exit_code("error") == 1  # r2 still fails the run
        only_r2 = [f for f in report.active()]
        assert {f.hostname for f in only_r2} == {"r2"}

    def test_sarif_kind_in_source(self):
        configs = {
            "r1": LEAKY["r1"].replace(
                "router bgp 65001",
                "! lint-disable route-leak\nrouter bgp 65001",
            ),
            "r2": LEAKY["r2"],
        }
        report = leak_report(configs)
        log = sarif_for(report)
        results = log["runs"][0]["results"]
        suppressed = [r for r in results if r.get("suppressions")]
        live = [r for r in results if not r.get("suppressions")]
        assert suppressed and live
        entry = suppressed[0]["suppressions"][0]
        assert entry["kind"] == "inSource"
        assert entry["justification"].startswith("lint-disable at r1:")
        # Baseline comparison treats suppressed results as resolved.
        keys = result_keys(log)
        assert keys == {
            (r["ruleId"],
             r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],
             r["locations"][0]["physicalLocation"]["region"]["startLine"],
             r["message"]["text"])
            for r in live
        }
        assert all(uri == "r2" for _, uri, _, _ in keys)


class TestLintconfigSuppression:
    def test_suppress_entry_marks_external(self):
        report = leak_report(
            LEAKY,
            {"suppress": [{"rule": "route-leak", "node": "r1"}]},
        )
        r1 = [f for f in report.findings if f.hostname == "r1"]
        r2 = [f for f in report.findings if f.hostname == "r2"]
        assert r1 and all(f.suppressed for f in r1)
        assert r1[0].suppression == "lintconfig suppression"
        assert r2 and not any(f.suppressed for f in r2)
        log = sarif_for(report)
        kinds = {
            r["suppressions"][0]["kind"]
            for r in log["runs"][0]["results"]
            if r.get("suppressions")
        }
        assert kinds == {"external"}

    def test_wildcard_node_suppresses_both_devices(self):
        report = leak_report(LEAKY, {"suppress": ["route-leak"]})
        assert report.findings and all(f.suppressed for f in report.findings)
        assert report.exit_code("error") == 0
        assert result_keys(sarif_for(report)) == set()

    def test_in_source_wins_over_lintconfig(self):
        # Both mechanisms apply to r1; the in-source one is reported
        # (it is the more local, reviewable statement of intent).
        configs = {
            "r1": LEAKY["r1"].replace(
                "router bgp 65001",
                "! lint-disable route-leak\nrouter bgp 65001",
            ),
            "r2": LEAKY["r2"],
        }
        report = leak_report(
            configs, {"suppress": [{"rule": "route-leak", "node": "r1"}]}
        )
        r1 = [f for f in report.findings if f.hostname == "r1"]
        assert r1[0].suppression.startswith("lint-disable")


class TestRuleDisable:
    def test_disable_removes_rule_entirely(self):
        snapshot = load_snapshot_from_texts(LEAKY)
        report = lint_snapshot(
            snapshot,
            LintConfig.from_dict({"disable": ["route-leak"]}),
        )
        assert "route-leak" not in report.rules_run
        assert not any(f.rule_id == "route-leak" for f in report.findings)
        # Disabling one dataflow rule doesn't take the others down with
        # it: the shared fixpoint still runs and filter-gap still fires
        # on this (completely unfiltered) session.
        assert "filter-gap" in report.rules_run
        assert any(f.rule_id == "filter-gap" for f in report.findings)
        assert report.dataflow is not None

    def test_disabling_all_dataflow_rules_skips_fixpoint(self):
        snapshot = load_snapshot_from_texts(LEAKY)
        dataflow_rules = [
            r.rule_id for r in all_rules() if r.category == "dataflow"
        ]
        report = lint_snapshot(
            snapshot, LintConfig.from_dict({"disable": dataflow_rules})
        )
        assert report.dataflow is None
        assert not set(report.rules_run) & set(dataflow_rules)
