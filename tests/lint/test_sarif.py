"""SARIF 2.1.0 output shape, baseline diffing, and the CLI."""

import json

import pytest

from repro.__main__ import main
from repro.config.loader import load_snapshot_from_texts
from repro.findings import compare_to_baseline, result_keys, to_sarif
from repro.lint import all_rules, lint_snapshot


def lint_main(argv):
    return main(["lint", *argv])


MESSY = {
    "r1": """
hostname r1
! lint-disable unused-structure
interface e0
 ip address 10.0.0.1 255.255.255.0
 ip access-group MISSING in
ip access-list extended SHADOW
 permit ip any any
 deny tcp any any eq 80
""",
}


@pytest.fixture(scope="module")
def report():
    return lint_snapshot(load_snapshot_from_texts(MESSY))


@pytest.fixture(scope="module")
def sarif(report):
    return to_sarif("repro-lint", all_rules(), report.findings)


class TestSarifShape:
    def test_log_envelope(self, sarif):
        assert sarif["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in sarif["$schema"]
        assert len(sarif["runs"]) == 1

    def test_rule_metadata(self, sarif):
        driver = sarif["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rules = driver["rules"]
        assert len(rules) == len(all_rules())
        for rule in rules:
            assert rule["id"]
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in (
                "error", "warning", "note",
            )
            assert rule["properties"]["category"]

    def test_results_reference_rules(self, sarif):
        driver = sarif["runs"][0]["tool"]["driver"]
        for result in sarif["runs"][0]["results"]:
            index = result["ruleIndex"]
            assert driver["rules"][index]["id"] == result["ruleId"]

    def test_result_locations(self, sarif):
        results = sarif["runs"][0]["results"]
        assert results
        unreachable = next(
            r for r in results if r["ruleId"] == "acl-line-unreachable"
        )
        physical = unreachable["locations"][0]["physicalLocation"]
        assert physical["artifactLocation"]["uri"] == "r1"
        assert physical["region"]["startLine"] > 0
        # The shadowing witness rides along as a relatedLocation.
        assert unreachable["relatedLocations"]

    def test_suppressions(self, sarif):
        suppressed = [
            r
            for r in sarif["runs"][0]["results"]
            if r["ruleId"] == "unused-structure"
        ]
        assert suppressed
        for result in suppressed:
            assert result["suppressions"][0]["kind"] == "inSource"
            assert "lint-disable" in (
                result["suppressions"][0]["justification"]
            )


class TestBaseline:
    def test_suppressed_results_excluded_from_keys(self, sarif):
        keys = result_keys(sarif)
        assert keys
        assert not any(rule == "unused-structure" for rule, *_ in keys)

    def test_self_comparison_is_clean(self, sarif):
        assert compare_to_baseline(sarif, sarif) == ([], [])

    def test_drift_detected_both_directions(self, sarif, report):
        fewer = to_sarif(
            "repro-lint",
            all_rules(),
            [f for f in report.findings if f.rule_id != "acl-line-unreachable"],
        )
        new, resolved = compare_to_baseline(sarif, fewer)
        assert new and not resolved
        new, resolved = compare_to_baseline(fewer, sarif)
        assert resolved and not new


class TestCli:
    def _write_snapshot(self, tmp_path):
        directory = tmp_path / "snap"
        directory.mkdir()
        for name, text in MESSY.items():
            (directory / f"{name}.cfg").write_text(text)
        return str(directory)

    def test_fail_on_threshold(self, tmp_path, capsys):
        snap = self._write_snapshot(tmp_path)
        assert lint_main(["--snapshot", snap, "--fail-on", "never"]) == 0
        assert lint_main(["--snapshot", snap, "--fail-on", "error"]) == 1
        assert (
            lint_main(
                ["--snapshot", snap, "--fail-on", "error",
                 "--rules", "mtu-mismatch"]
            )
            == 0
        )
        capsys.readouterr()

    def test_sarif_output_file(self, tmp_path, capsys):
        snap = self._write_snapshot(tmp_path)
        out = tmp_path / "out.sarif"
        assert (
            lint_main(
                ["--snapshot", snap, "--format", "sarif", "--out", str(out)]
            )
            == 0
        )
        log = json.loads(out.read_text())
        assert log["version"] == "2.1.0"
        capsys.readouterr()

    def test_baseline_drift_exit_code(self, tmp_path, capsys):
        snap = self._write_snapshot(tmp_path)
        baseline = tmp_path / "base.sarif"
        assert (
            lint_main(
                ["--snapshot", snap, "--format", "sarif",
                 "--out", str(baseline)]
            )
            == 0
        )
        # Unchanged configs: no drift.
        assert (
            lint_main(["--snapshot", snap, "--baseline", str(baseline)]) == 0
        )
        # A new finding appears: drift, exit 2.
        extra = tmp_path / "snap" / "r9.cfg"
        extra.write_text(
            "hostname r9\n"
            "interface e0\n"
            " ip address 10.0.0.1 255.255.255.0\n"
            " ip access-group ALSO_MISSING in\n"
        )
        assert (
            lint_main(["--snapshot", snap, "--baseline", str(baseline)]) == 2
        )
        capsys.readouterr()

    def test_missing_source_is_usage_error(self, capsys):
        assert lint_main([]) == 2
        capsys.readouterr()
