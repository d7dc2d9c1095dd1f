"""``python -m repro``: one front door. Selection and gate behaviour
that every subcommand shares, the validators as gates (green on NET1,
red on a seeded corruption), and one real subprocess per subcommand."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro.__main__ as cli
from repro.core.session import Session
from repro.dataplane.fib import Fib, FibActionType
from repro.delta import engine as delta_engine
from repro.fidelity.differential import run_differential_suite
from repro.lint.dataflow.domain import AbstractRoutes
from repro.sweep import validate as sweep_validate
from repro.sweep.scenarios import Verdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
SUBCOMMANDS = ("lint", "sweep", "validate", "coverage", "report", "explain")


def run_module(*argv, module="repro"):
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_JOBS="1"),
        cwd=ROOT,
        timeout=240,
    )


# ----------------------------------------------------------------------
# Selection: a gate may not pass while checking nothing


#: Every way of naming a registry network that does not exist.
UNKNOWN_NETWORK = {
    "lint": ["lint", "--network", "NTE3"],
    "sweep": ["sweep", "--network", "NTE3"],
    "explain": ["explain", "route", "--network", "NTE3", "r1", "10.0.0.0/8"],
    "coverage": ["coverage", "--networks", "NTE3"],
    "validate-fidelity": ["validate", "fidelity", "--networks", "NTE3"],
    "validate-delta": ["validate", "delta", "--networks", "NTE3"],
    "validate-sweep": ["validate", "sweep", "--networks", "NTE3"],
    "validate-dataflow": ["validate", "dataflow", "--networks", "NTE3"],
}


class TestSelection:
    @pytest.mark.parametrize("case", sorted(UNKNOWN_NETWORK))
    def test_unknown_network_is_a_one_line_usage_error(self, case, capsys):
        # parent: KeyError traceback from lint / sweep / sweep validate
        assert cli.main(UNKNOWN_NETWORK[case]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "unknown network 'NTE3'" in line
        assert "NET1" in line and "NET11" in line  # the valid names

    def test_typo_beside_a_real_name_checks_nothing(self, capsys):
        # parent: "validated 2, failed 0 across 2 network(s)", exit 0
        assert cli.main(["validate", "delta", "--networks", "NET1,NTE3"]) == 2
        captured = capsys.readouterr()
        assert "network(s)" not in captured.out
        assert "unknown network 'NTE3'" in captured.err

    def test_case_typo_alone_does_not_turn_the_gate_green(self, capsys):
        # parent: "0 network(s), 0 divergence(s)", exit 0
        assert cli.main(["validate", "dataflow", "--networks", "nte3"]) == 2
        assert "network(s)" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", (["validate", "all"], ["coverage"]))
    def test_empty_selection_is_an_error(self, command, capsys):
        assert cli.main([*command, "--networks", " , "]) == 2
        assert "no network selected" in capsys.readouterr().err

    def test_summary_counts_networks_run_not_names_given(self, capsys):
        argv = ["validate", "dataflow", "--networks", "NET1,NET1,NET5"]
        assert cli.main(argv) == 0
        assert "validate dataflow: 2 network(s)" in capsys.readouterr().out

    def test_registry_order_and_smoke(self):
        names = [spec.name for spec in cli.select_networks("NET5,NET1", False)]
        assert names == ["NET1", "NET5"]
        smoke = [spec.name for spec in cli.select_networks(None, True)]
        assert tuple(smoke) == cli.SMOKE_NETWORKS
        assert len(cli.select_networks(None, False)) == 11

    def test_source_is_required(self, capsys):
        for command in (["lint"], ["sweep"]):
            assert cli.main(command) == 2
        assert "--snapshot or --network" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Usage errors: a bad argument is refused on one line that names it

NET1 = ["--network", "NET1"]
#: A property that holds on NET1 (its default one).
PROPERTY = ["--src", "net1-core0", "--src-interface", "Ethernet0",
            "--dst", "10.16.0.33"]
FLOW = ["--src-ip", "10.0.0.1", "--dst-ip", "10.16.0.33"]

#: ``id: (argv, what the stderr line says)``. The parent's answer is in
#: the comment: a wrong answer with exit 0, or a traceback with exit 1.
USAGE_ERRORS = {
    # "base-broken": the property was never checked against the snapshot
    "sweep-src-interface": (
        ["sweep", *NET1, *PROPERTY[:2], "--src-interface", "nosuch",
         *PROPERTY[4:]],
        "error: property: 'net1-core0' has no interface 'nosuch'",
    ),
    # "resilient" over 0 scenarios, exit 0 under --fail-on any
    "sweep-limit": (
        ["sweep", *NET1, "--limit", "-1", "--fail-on", "any"],
        "error: limit: must be >= 1",
    ),
    "sweep-max-elements": (
        ["sweep", *NET1, "--max-elements", "0", "--fail-on", "any"],
        "error: max_elements: must be >= 1",
    ),
    # tracebacks
    "sweep-src": (
        ["sweep", *NET1, "--src", "nosuch", *PROPERTY[2:]],
        "error: property: no device named 'nosuch'",
    ),
    "sweep-kinds": (
        ["sweep", *NET1, "--kinds", "bogus"], "error: kinds: must be a non-empty",
    ),
    "sweep-k": (["sweep", *NET1, "-k", "0"], "error: k: must be >= 1"),
    "sweep-dst": (
        ["sweep", *NET1, *PROPERTY[:4], "--dst", "banana"],
        "error: property.dst_ip: ",
    ),
    # "no route and no recorded derivation"
    "explain-route-node": (
        ["explain", "route", *NET1, "nosuch", "10.0.0.0/24"],
        "error: node: no device named 'nosuch'",
    ),
    # traceback
    "explain-route-prefix": (
        ["explain", "route", *NET1, "net1-core0", "banana"], "error: prefix: ",
    ),
    # KeyError traceback
    "explain-flow-node": (
        ["explain", "flow", *NET1, "nosuch", "Ethernet0", *FLOW],
        "error: node: no device named 'nosuch'",
    ),
    # a packet "received on nosuch"
    "explain-flow-interface": (
        ["explain", "flow", *NET1, "net1-core0", "nosuch", *FLOW],
        "error: interface: 'net1-core0' has no interface 'nosuch'",
    ),
    # 0 findings, exit 0: a typo turns the gate green
    "lint-rules": (
        ["lint", *NET1, "--rules", "bogus"],
        "error: unknown rule id(s) in rules: bogus (known: acl-line-",
    ),
    "lint-disable": (
        ["lint", *NET1, "--disable", "bogus"],
        "error: unknown rule id(s) in disable: bogus (known: acl-line-",
    ),
    # an empty report, exit 0 under --strict
    "report": (
        ["report", "/nonexistent/trace.jsonl", "--strict"],
        "error: no trace file at /nonexistent/trace.jsonl",
    ),
    # FileNotFoundError traceback
    "snapshot": (
        ["lint", "--snapshot", "/nonexistent"],
        "error: --snapshot: [Errno 2] No such file or directory: '/nonexistent'",
    ),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_a_bad_argument_is_a_one_line_usage_error(case, capsys):
    argv, says = USAGE_ERRORS[case]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"repro {argv[0]}: error: ")
    assert says in line


# ----------------------------------------------------------------------
# validate: green on NET1, red (with a Finding in the SARIF) when seeded


def _flip_one_fib_action(fibs):
    """Turn the first device's first next-hop route into a drop."""
    hostname = sorted(fibs)[0]
    flipped = Fib(hostname)
    done = False
    for _prefix, entries in fibs[hostname].entries():
        for entry in entries:
            if not done and entry.arp_ip is not None:
                done = True
                entry = dataclasses.replace(
                    entry,
                    action=FibActionType.DROP_NULL,
                    out_interface=None,
                    arp_ip=None,
                )
            flipped.add(entry)
    assert done
    fibs[hostname] = flipped


def _corrupt_fidelity(monkeypatch):
    def validate_engines(session):
        analyzer = session.analyzer  # BDD graph compiled from the true FIBs
        _flip_one_fib_action(analyzer.fibs)  # the concrete engine reads these
        return run_differential_suite(analyzer)

    monkeypatch.setattr(Session, "validate_engines", validate_engines)


def _corrupt_delta(monkeypatch):
    real_delta = Session.delta

    def delta(session, changed, validate=None):
        new = real_delta(session, changed, validate=False)
        _flip_one_fib_action(new.fibs)
        delta_engine._validate(new)
        return new

    monkeypatch.setattr(Session, "delta", delta)


def _corrupt_sweep(monkeypatch):
    real = sweep_validate.brute_force_verdicts

    def brute_force_verdicts(*args):
        verdicts = real(*args)
        scenario = sorted(verdicts)[0]
        verdicts[scenario] = Verdict(holds=not verdicts[scenario].holds)
        return verdicts

    monkeypatch.setattr(
        sweep_validate, "brute_force_verdicts", brute_force_verdicts
    )


def _corrupt_dataflow(monkeypatch):
    real = cli.analyze

    def analyze(snapshot):
        analysis = real(snapshot)
        node = sorted(analysis.states)[0]
        analysis.states[node] = AbstractRoutes.bottom()
        return analysis

    monkeypatch.setattr(cli, "analyze", analyze)


CORRUPTIONS = {
    "fidelity": (_corrupt_fidelity, "engine-mismatch"),
    "delta": (_corrupt_delta, "delta-fib-mismatch"),
    "sweep": (_corrupt_sweep, "sweep-verdict-mismatch"),
    "dataflow": (_corrupt_dataflow, "dataflow-not-contained"),
}


class TestValidate:
    def test_fidelity_is_a_registry_gate(self, tmp_path, capsys):
        sarif = tmp_path / "fidelity.sarif"
        argv = ["validate", "fidelity", "--networks", "NET1", "--verbose"]
        assert cli.main([*argv, "--sarif", str(sarif)]) == 0
        out = capsys.readouterr().out
        assert "OK   fidelity NET1" in out
        assert "validate fidelity: 1 network(s), 961 checks, 0 finding(s)" in out
        run = json.loads(sarif.read_text())["runs"][0]
        assert run["results"] == []
        assert run["properties"]["fidelity"] == {
            "networks": 1, "checks": 961, "findings": 0,
        }

    def test_all_runs_the_four_validators(self, capsys):
        assert cli.main(["validate", "all", "--networks", "NET1", "--smoke"]) == 0
        out = capsys.readouterr().out
        for name, checks in (
            ("fidelity", 961), ("delta", 3), ("sweep", 10), ("dataflow", 24),
        ):
            assert (
                f"validate {name}: 1 network(s), {checks} checks, "
                "0 finding(s)" in out
            )

    @pytest.mark.parametrize("validator", sorted(CORRUPTIONS))
    def test_seeded_corruption_turns_the_gate_red(
        self, validator, monkeypatch, tmp_path, capsys
    ):
        corrupt, rule_id = CORRUPTIONS[validator]
        corrupt(monkeypatch)
        sarif = tmp_path / "out.sarif"
        argv = ["validate", validator, "--networks", "NET1", "--smoke"]
        assert cli.main([*argv, "--sarif", str(sarif)]) == 1
        out = capsys.readouterr().out
        assert f"FAIL {validator} NET1" in out
        assert rule_id in out  # the finding rows follow the FAIL line
        run = json.loads(sarif.read_text())["runs"][0]
        assert run["results"]
        assert run["properties"][validator]["findings"] == len(run["results"])
        for result in run["results"]:
            assert result["ruleId"] == rule_id and result["level"] == "error"
            assert result["properties"]["category"] == "differential"
            assert result["properties"]["network"] == "NET1"
            assert result["message"]["text"].startswith("NET1: ")
            uri = result["locations"][0]["physicalLocation"]["artifactLocation"]
            # The delta validator knows the file it edited (ROADMAP 5d).
            located = "net1-core0" if validator == "delta" else "<NET1>"
            assert uri == {"uri": located}


# ----------------------------------------------------------------------
# coverage: the gate on a subset


class TestCoverageGate:
    BASELINE = str(ROOT / "ci" / "coverage_baseline.json")

    def test_subset_is_gated_against_its_own_slice(self, capsys):
        # parent: ten "network ... not measured" drifts, exit 2
        argv = ["coverage", "--networks", "NET1", "--baseline", self.BASELINE]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert "measured 1 network(s)" in captured.out
        assert "no drift" in captured.err

    def _baseline(self, tmp_path, edit):
        with open(self.BASELINE) as handle:
            doc = json.load(handle)
        edit(doc["networks"])
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_selected_network_missing_from_baseline_is_drift(
        self, tmp_path, capsys
    ):
        baseline = self._baseline(tmp_path, lambda nets: nets.pop("NET1"))
        argv = ["coverage", "--networks", "NET1", "--baseline", baseline]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "network NET1 missing from baseline" in err
        assert "not measured" not in err

    def test_mismatch_inside_a_selected_network_is_drift(
        self, tmp_path, capsys
    ):
        def edit(networks):
            networks["NET1"]["lint"]["acl_line"] = [1, 2]
            networks["NET1"]["ghost"] = {"acl_line": [0, 2]}
            networks["NET2"]["lint"] = {"acl_line": [9, 9]}  # not selected

        baseline = self._baseline(tmp_path, edit)
        sarif = tmp_path / "drift.sarif"
        argv = ["coverage", "--networks", "NET1", "--baseline", baseline]
        assert cli.main([*argv, "--sarif", str(sarif)]) == 2
        err = capsys.readouterr().err
        assert "NET1/lint/acl_line: baseline [1, 2] != current [2, 2]" in err
        assert "NET1/ghost/acl_line" in err
        assert "NET2" not in err
        results = json.loads(sarif.read_text())["runs"][0]["results"]
        assert len(results) == 2
        assert {r["ruleId"] for r in results} == {"coverage-drift"}

    def test_full_run_still_holds_the_baseline_to_nothing_unmeasured(self):
        # the strictness a subset waives: a network only the baseline has
        baseline = {"networks": {"NET1": {}, "NET99": {}}}
        drift = cli.qcov.gate_diff(baseline, {"NET1": {}})
        assert [f.message for f in drift] == ["network NET99 not measured"]

    def test_sarif_is_written_whenever_it_is_given(self, tmp_path, capsys):
        # parent: only written together with --baseline
        sarif = tmp_path / "nobaseline.sarif"
        argv = ["coverage", "--networks", "NET1", "--sarif", str(sarif)]
        assert cli.main(argv) == 0
        run = json.loads(sarif.read_text())["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-coverage-gate"
        assert run["results"] == []
        capsys.readouterr()

    def test_write_baseline_round_trips(self, tmp_path, capsys):
        baseline = tmp_path / "fresh.json"
        argv = ["coverage", "--networks", "NET1", "--baseline", str(baseline)]
        assert cli.main([*argv, "--write-baseline"]) == 0
        assert cli.main(argv) == 0
        assert cli.main(["coverage", "--write-baseline"]) == 2
        capsys.readouterr()


# ----------------------------------------------------------------------
# One real `python -m repro <cmd>` per subcommand (sweep and validate:
# tests/sweep/test_report.py; report: tests/obs/test_report.py)


class TestEntryPoints:
    def test_help_lists_the_six_subcommands(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        for command in SUBCOMMANDS:
            assert f"\n    {command} " in proc.stdout
        assert "profile" not in proc.stdout

    @pytest.mark.parametrize(
        "module",
        ("repro.lint", "repro.sweep", "repro.delta", "repro.lint.dataflow"),
    )
    def test_old_entry_points_are_gone(self, module):
        proc = run_module("--help", module=module)
        assert proc.returncode != 0
        assert "__main__" in proc.stderr  # "... is a package and cannot be ..."

    def test_lint(self, tmp_path):
        out = tmp_path / "lint.sarif"
        proc = run_module(
            "lint", "--network", "NET1", "--format", "sarif", "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        driver = json.loads(out.read_text())["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"

    def test_lint_registry_matches_the_committed_baseline_bytes(self, tmp_path):
        out = tmp_path / "all.sarif"
        baseline = ROOT / "ci" / "lint_baseline.sarif"
        argv = ["lint", "--network", "all", "--format", "sarif"]
        argv += ["--out", str(out), "--baseline", str(baseline)]
        assert cli.main(argv) == 0
        assert out.read_bytes() == baseline.read_bytes()

    def test_coverage(self):
        proc = run_module("coverage", "--networks", "NET1", "--verbose")
        assert proc.returncode == 0, proc.stderr
        assert "NET1: lint:2/2 acl" in proc.stdout

    def test_explain(self):
        proc = run_module(
            "explain", "route", "--network", "NET1", "net1-core0",
            "10.16.0.32/30",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("route 10.16.0.32/30 @ net1-core0")

    def test_explain_flow_in_process(self, capsys):
        argv = ["explain", "flow", "--network", "NET1", "net1-core0"]
        argv += ["Ethernet0", "--src-ip", "10.0.0.1", "--dst-ip", "10.16.0.33"]
        assert cli.main([*argv, "--protocol", "icmp"]) == 0
        assert "hop net1-core0" in capsys.readouterr().out
