"""The findings spine: one ``Finding``, one SARIF emitter, four
producers (lint rules, resilience sweeps, the differential validators,
the coverage gate)."""

import base64
import json
import os
import pickle

import pytest

from repro.__main__ import VALIDATE_RULES
from repro.config.loader import load_snapshot_from_texts
from repro.core.cache import SnapshotCache
from repro.core.session import Session
from repro.findings import (
    Finding,
    Location,
    Related,
    Severity,
    result_keys,
    to_sarif,
)
from repro.lint import all_rules, lint_snapshot
from repro.questions import coverage as qcov
from repro.sweep import report as sweep_report
from repro.sweep.scenarios import ReachabilityProperty, host_files

MESSY = """
hostname r1
interface e0
 ip address 10.0.0.1 255.255.255.0
 ip access-group MISSING in
"""


def _lint():
    report = lint_snapshot(load_snapshot_from_texts({"r1": MESSY}))
    return "repro-lint", all_rules(), report.findings


def _sweep():
    from tests.sweep.conftest import LAB_CONFIGS

    session = Session.from_texts(LAB_CONFIGS, cache=False)
    prop = ReachabilityProperty("r1", "Ethernet0", "10.99.0.1")
    result = session.sweep(k=1, kinds=("link",), prop=prop)
    findings = sweep_report.findings_from_result(
        result, host_files(session.snapshot)
    )
    return sweep_report.TOOL_NAME, sweep_report.RULES, findings


def _differential():
    rule = VALIDATE_RULES["sweep"]
    finding = rule.finding(
        "NET1: link:a[e0]--b[e0]: pruned=holds != brute=fails",
        location=Location("<NET1>"),
        network="NET1",
    )
    return "repro-validate", list(VALIDATE_RULES.values()), [finding]


def _coverage():
    baseline = {"networks": {"NET1": {"lint": {"acl_line": [2, 2]}}}}
    drift = qcov.gate_diff(baseline, {"NET1": {"lint": {"acl_line": [1, 2]}}})
    return qcov.GATE_TOOL, [qcov.GATE_RULE], drift


PRODUCERS = {
    "lint": (_lint, "hygiene"),
    "resilience": (_sweep, "resilience"),
    "differential": (_differential, "differential"),
    "coverage": (_coverage, "coverage"),
}


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_to_sarif_renders_every_producer(producer):
    make, category = PRODUCERS[producer]
    tool, rules, findings = make()
    assert findings
    log = to_sarif(tool, rules, findings, {"producer": producer})
    # envelope
    assert log["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in log["$schema"]
    (run,) = log["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == tool
    assert run["properties"] == {"producer": producer}
    assert [r["id"] for r in driver["rules"]] == [r.rule_id for r in rules]
    assert len(run["results"]) == len(findings)
    for finding, result in zip(findings, run["results"]):
        # ruleIndex <-> rules
        assert driver["rules"][result["ruleIndex"]]["id"] == result["ruleId"]
        assert result["ruleId"] == finding.rule_id
        assert result["level"] == finding.severity.label
        # properties round-trip: node, category and the producer's extras
        assert result["properties"]["node"] == finding.hostname
        assert result["properties"]["category"] == finding.category == category
        extras = json.loads(json.dumps(dict(finding.properties)))
        for key, value in extras.items():
            assert result["properties"][key] == value
        assert finding.to_json().get("properties", {}) == extras
    # the log is JSON all the way down and keys like any lint log
    assert len(result_keys(json.loads(json.dumps(log)))) == len(
        {(f.rule_id, f.location, f.message) for f in findings}
    )


def test_producers_carry_their_extras():
    _tool, _rules, sweep = _sweep()
    assert all(dict(f.properties)["elements"] for f in sweep)
    assert sweep[0].to_json()["properties"]["elements"] == list(
        dict(sweep[0].properties)["elements"]
    )
    _tool, _rules, drift = _coverage()
    assert dict(drift[0].properties) == {
        "network": "NET1",
        "question": "lint",
        "kind": "acl_line",
        "baseline": (2, 2),
        "current": (1, 2),
    }


class TestFindingType:
    FINDING = Finding(
        "acl-line-unreachable",
        Severity.WARNING,
        "semantic",
        "r1",
        "line 2 of SHADOW can never match",
        Location("r1.cfg", 9),
        (Related(Location("r1.cfg", 8), "shadowed by this line"),),
    )

    def test_properties_are_excluded_from_identity(self):
        tagged = Finding(
            "r", Severity.NOTE, "c", "h", "m", properties=(("k", (1, 2)),)
        )
        plain = Finding("r", Severity.NOTE, "c", "h", "m")
        assert tagged == plain and hash(tagged) == hash(plain)
        assert len({tagged, plain}) == 1
        hash(tagged.properties)  # the field itself stays hashable
        with pytest.raises(AttributeError):
            tagged.message = "frozen"

    def test_lint_json_keys_are_unchanged(self):
        assert list(self.FINDING.to_json()) == [
            "rule", "severity", "category", "node", "message", "location",
            "related",
        ]

    def test_pickles_with_properties(self):
        tagged = Finding(
            "r", Severity.ERROR, "c", "h", "m", properties=(("k", ("v",)),)
        )
        clone = pickle.loads(pickle.dumps([self.FINDING, tagged]))
        assert clone == [self.FINDING, tagged]
        assert clone[1].properties == (("k", ("v",)),)

    #: ``pickle.dumps([FINDING])`` as written by the commit before the
    #: types moved: every class is addressed as ``repro.lint.model.X``.
    PARENT_ENTRY = (
        "gAWVaQEAAAAAAABdlIwQcmVwcm8ubGludC5tb2RlbJSMB0ZpbmRpbmeUk5QpgZR9lCiM"
        "B3J1bGVfaWSUjBRhY2wtbGluZS11bnJlYWNoYWJsZZSMCHNldmVyaXR5lGgBjAhTZXZl"
        "cml0eZSTlEsChZRSlIwIY2F0ZWdvcnmUjAhzZW1hbnRpY5SMCGhvc3RuYW1llIwCcjGU"
        "jAdtZXNzYWdllIwgbGluZSAyIG9mIFNIQURPVyBjYW4gbmV2ZXIgbWF0Y2iUjAhsb2Nh"
        "dGlvbpRoAYwITG9jYXRpb26Uk5QpgZR9lCiMBGZpbGWUjAZyMS5jZmeUjARsaW5llEsJ"
        "dWKMB3JlbGF0ZWSUaAGMB1JlbGF0ZWSUk5QpgZR9lChoE2gVKYGUfZQoaBhoGWgaSwh1"
        "YmgRjBVzaGFkb3dlZCBieSB0aGlzIGxpbmWUdWKFlIwKc3VwcHJlc3NlZJSJjAtzdXBw"
        "cmVzc2lvbpSMAJR1YmEu"
    )

    def test_parent_written_lint_cache_entry_misses_cleanly(self, tmp_path):
        """The engine version keys every cache entry, so one written
        when lint still memoized findings (classes addressed under their
        old module) is never asked for; if it were (or the key collided),
        it must read as a miss, not as a crash or as half-built
        findings."""
        cache = SnapshotCache(str(tmp_path))
        os.makedirs(cache.root, exist_ok=True)
        with open(os.path.join(cache.root, "snapshot-stale.pkl"), "wb") as handle:
            handle.write(base64.b64decode(self.PARENT_ENTRY))
        assert cache.load("snapshot", "stale") is None
        assert cache.stats() == {"hits": 0, "misses": 1, "evictions": 0}
        # and an entry written now round-trips through the same cache
        cache.store("snapshot", "fresh", [self.FINDING])
        assert cache.load("snapshot", "fresh") == [self.FINDING]
